import json
import math
import warnings

import numpy as np
import pytest

from fvc import Grid, GridFn, TrajectoryPair
from fvc.cli import InputError, load_problem, load_trajectory, main, write_trajectory

CLASSIC = {
    "alpha": 1.0,
    "beta": 1.0,
    "interval": [0.0, 1.0],
    "grid": {"n_cells": 256},
    "dim": 1,
    "phi": "xb1",
    "lagrangian": "0.5*(x1^2 + u1^2)",
}


@pytest.fixture
def problem_file(tmp_path):
    def make(name="problem.json", **overrides):
        doc = dict(CLASSIC)
        doc.update(overrides)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return make


class TestLoadProblem:
    def test_round_trip(self, problem_file):
        spec = load_problem(problem_file())
        assert spec.alpha == 1.0
        assert spec.grid.n_cells == 256
        assert spec.constraint_map is None

    def test_n_cells_override(self, problem_file):
        spec = load_problem(problem_file(), n_cells_override=64)
        assert spec.grid.n_cells == 64

    def test_standard_constraint_block(self, problem_file):
        path = problem_file(
            constraint={"kind": "fixed_both", "x_a": [0.0], "x_b": [1.0]}
        )
        spec = load_problem(path)
        assert spec.n_constraints == 2

    def test_explicit_constraint_block(self, problem_file):
        path = problem_file(
            constraint={
                "g": ["xb1 - xa1"],
                "set": {"type": "box", "lower": [None], "upper": [0.5]},
            }
        )
        spec = load_problem(path)
        assert spec.target_set.dim == 1
        assert spec.target_set.lower == (-math.inf,)

    def test_invalid_alpha_rejected(self, problem_file, capsys):
        assert main(["solve", problem_file(alpha=1.5)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_parse_error_reported_with_offset(self, problem_file, capsys):
        assert main(["solve", problem_file(phi="xb1 +")]) == 1
        assert "offset" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1


class TestSolveCommand:
    def test_classic_objective(self, problem_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["solve", problem_file(), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["objective"] - (-0.5 / math.tanh(1.0))) < 1e-3
        assert doc["converged"] is True
        assert "objective" in capsys.readouterr().out

    def test_iteration_budget_exit_code(self, problem_file):
        assert main(["solve", problem_file(), "--max-iters", "1"]) == 2

    def test_trial_point_outside_domain(self, problem_file, capsys):
        path = problem_file(
            alpha=0.8, phi="5*xb1", lagrangian="0.5*u1^2 - log(1 + x1)", grid={"n_cells": 128}
        )
        assert main(["solve", path, "--max-iters", "20"]) == 2
        assert "objective" in capsys.readouterr().out

    def test_zero_progress_exit_code(self, problem_file):
        path = problem_file(
            alpha=0.8, phi="5*xb1", lagrangian="0.5*u1^2 - log(1 + x1)", grid={"n_cells": 128}
        )
        assert main(["solve", path]) == 2

    def test_evaluation_error_reported(self, problem_file, capsys):
        # the default start x = 0 is outside the domain of log(x1)
        assert main(["solve", problem_file(lagrangian="0.5*u1^2 - log(x1)")]) == 1
        assert capsys.readouterr().err.startswith("error: non-finite value")

    def test_trajectory_round_trip(self, problem_file, tmp_path):
        traj_path = tmp_path / "traj.csv"
        assert main(["solve", problem_file(), "--traj-out", str(traj_path)]) == 0
        spec = load_problem(problem_file())
        traj = load_trajectory(str(traj_path), spec)
        assert traj.u.values.shape == (257, 1)


class TestCheckCommand:
    def test_solution_passes(self, problem_file, tmp_path, capsys):
        traj_path = tmp_path / "traj.csv"
        main(["solve", problem_file(), "--traj-out", str(traj_path)])
        code = main(["check", problem_file(), str(traj_path)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_zero_candidate_fails(self, problem_file, tmp_path, capsys):
        spec = load_problem(problem_file())
        traj_path = tmp_path / "zero.csv"
        write_trajectory(
            str(traj_path),
            TrajectoryPair(GridFn.constant(spec.grid, 0.0), np.zeros(1)),
        )
        code = main(["check", problem_file(), str(traj_path)])
        assert code == 3
        out = capsys.readouterr().out
        assert "transversality_b 1.0" in out
        assert "FAIL" in out

    def test_report_written(self, problem_file, tmp_path):
        spec = load_problem(problem_file())
        traj_path = tmp_path / "zero.csv"
        write_trajectory(
            str(traj_path),
            TrajectoryPair(GridFn.constant(spec.grid, 0.0), np.zeros(1)),
        )
        out = tmp_path / "report.json"
        main(["check", problem_file(), str(traj_path), "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["transversality_b"] == 1.0

    def test_missing_metadata_line(self, problem_file, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,u_1\n0.0,0.0\n")
        assert main(["check", problem_file(), str(bad)]) == 1
        assert "y =" in capsys.readouterr().err

    def test_wrong_row_count(self, problem_file, tmp_path, capsys):
        spec = load_problem(problem_file())
        rows = ["# y = 0.0", "t,u_1"]
        rows += [f"{float(t)!r},0.0" for t in spec.grid.nodes()[:-5]]
        bad = tmp_path / "short.csv"
        bad.write_text("\n".join(rows) + "\n")
        assert main(["check", problem_file(), str(bad)]) == 1
        assert "rows" in capsys.readouterr().err

    def test_grid_mismatch(self, problem_file, tmp_path):
        spec = load_problem(problem_file())
        rows = ["# y = 0.0", "t,u_1"]
        rows += [f"{float(t) + 0.1!r},0.0" for t in spec.grid.nodes()]
        bad = tmp_path / "shifted.csv"
        bad.write_text("\n".join(rows) + "\n")
        assert main(["check", problem_file(), str(bad)]) == 1


class TestTrajectoryCSV:
    # bytes written by the csv.writer-based writer, including its \r\n line ends
    GOLDEN = (
        b"# y = 0.1,-0.3333333333333333\n"
        b"t,u_1,u_2\r\n"
        b"0.0,0.1,0.3333333333333333\r\n"
        b"0.3333333333333333,-2.5e-300,1e+300\r\n"
        b"0.6666666666666666,-0.0,5e-324\r\n"
        b"1.0,2.0,-7.25\r\n"
    )

    @pytest.fixture
    def spec_3d(self, problem_file):
        path = problem_file(
            dim=3, grid={"n_cells": 64}, phi="xb1 + xb2 + xb3",
            lagrangian="0.5*(u1^2 + u2^2 + u3^2)",
        )
        return load_problem(path)

    def write_lines(self, tmp_path, lines, name="edited.csv"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_golden_bytes(self, tmp_path):
        u = np.array([[0.1, 1 / 3], [-2.5e-300, 1e300], [-0.0, 5e-324], [2.0, -7.25]])
        traj = TrajectoryPair(GridFn(Grid(0.0, 1.0, 3), u), np.array([0.1, -1 / 3]))
        path = tmp_path / "golden.csv"
        write_trajectory(str(path), traj)
        assert path.read_bytes() == self.GOLDEN

    def test_round_trip_is_bitwise(self, spec_3d, tmp_path, rng):
        scales = 10.0 ** rng.integers(-300, 300, (1, 3))
        values = rng.standard_normal((spec_3d.grid.n_nodes, 3)) * scales
        traj = TrajectoryPair(GridFn(spec_3d.grid, values), rng.standard_normal(3))
        path = str(tmp_path / "traj.csv")
        write_trajectory(path, traj)
        back = load_trajectory(path, spec_3d)
        assert back.u.values.tobytes() == traj.u.values.tobytes()
        assert back.y.tobytes() == traj.y.tobytes()

    def test_header_only_file(self, problem_file, tmp_path):
        path = self.write_lines(tmp_path, ["# y = 0.0", "t,u_1"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="rows"):
                load_trajectory(path, load_problem(problem_file()))

    @pytest.mark.parametrize("edit", ["ragged", "trailing_comma", "underscore_literal"])
    def test_malformed_row_exit_code(self, problem_file, tmp_path, capsys, edit):
        spec = load_problem(problem_file())
        rows = [f"{float(t)!r},0.0" for t in spec.grid.nodes()]
        rows[7] = {
            "ragged": rows[7] + ",1.0",
            "trailing_comma": rows[7] + ",",
            "underscore_literal": f"{float(spec.grid.nodes()[7])!r},1_0",
        }[edit]
        path = self.write_lines(tmp_path, ["# y = 0.0", "t,u_1"] + rows)
        assert main(["check", problem_file(), path]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_quotes_comments_and_blank_lines_accepted(self, spec_3d, tmp_path, rng):
        values = rng.standard_normal((spec_3d.grid.n_nodes, 3))
        traj = TrajectoryPair(GridFn(spec_3d.grid, values), rng.standard_normal(3))
        plain = str(tmp_path / "plain.csv")
        write_trajectory(plain, traj)
        lines = (tmp_path / "plain.csv").read_text().splitlines()
        fields = lines[5].split(",")
        lines[5] = ",".join([fields[0], f'"{fields[1]}"'] + fields[2:])
        lines[1] = '"t",u_1,u_2,"u_3"'
        lines[20:20] = ["# a comment in the middle", "", "   "]
        edited = load_trajectory(self.write_lines(tmp_path, lines), spec_3d)
        expected = load_trajectory(plain, spec_3d)
        assert edited.u.values.tobytes() == expected.u.values.tobytes()
        assert edited.y.tobytes() == expected.y.tobytes()

    @pytest.mark.parametrize("y_line, row", [
        ("# y = abc", None), ("# y =", None), ("# y = 1,,2", None),
        ("# y = nan", None), ("# y = 0.0", "nan"),
    ])
    def test_bad_initial_value_or_entry_exit_code(self, problem_file, tmp_path, capsys, y_line, row):
        spec = load_problem(problem_file())
        rows = [f"{float(t)!r},0.0" for t in spec.grid.nodes()]
        if row is not None:
            rows[3] = f"{float(spec.grid.nodes()[3])!r},{row}"
        path = self.write_lines(tmp_path, [y_line, "t,u_1"] + rows)
        assert main(["check", problem_file(), path]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestSweepCommand:
    def test_columns_and_flags(self, problem_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep-alpha",
                problem_file(),
                "--alphas",
                "1.0,0.75,0.5",
                "--n-cells",
                "64",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,objective,grad_norm,transversality_b,nonexistence_flag"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [1.0, 0.75, 0.5]
        for r in rows:
            if float(r[0]) < 1.0:
                assert float(r[3]) == 1.0
                assert r[4] == "1"
            else:
                assert float(r[3]) <= 1e-2
                assert r[4] == "0"

    def test_single_alpha_matches_solve(self, problem_file, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        solve_out = tmp_path / "solve.json"
        main(["sweep-alpha", problem_file(), "--alphas", "1.0", "--out", str(sweep_out)])
        main(["solve", problem_file(), "--out", str(solve_out)])
        row = sweep_out.read_text().strip().splitlines()[1].split(",")
        assert float(row[1]) == json.loads(solve_out.read_text())["objective"]

    def test_empty_alpha_list(self, problem_file, capsys):
        assert main(["sweep-alpha", problem_file(), "--alphas", " "]) == 1
        assert "alphas" in capsys.readouterr().err

    def test_bad_alpha_value_in_list(self, problem_file):
        assert main(["sweep-alpha", problem_file(), "--alphas", "1.0,0.0"]) == 1

    def test_stdout_fallback(self, problem_file, capsys):
        code = main(
            ["sweep-alpha", problem_file(), "--alphas", "1.0", "--n-cells", "32"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("alpha,objective")


class TestDeterminism:
    def test_identical_output_files(self, problem_file, tmp_path):
        paths = []
        for tag in ("one", "two"):
            out = tmp_path / f"{tag}.json"
            traj = tmp_path / f"{tag}.csv"
            assert (
                main(
                    [
                        "solve",
                        problem_file(),
                        "--out",
                        str(out),
                        "--traj-out",
                        str(traj),
                    ]
                )
                == 0
            )
            paths.append((out.read_bytes(), traj.read_bytes()))
        assert paths[0] == paths[1]
