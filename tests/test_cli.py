import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fvc import Grid, GridFn, RegularityError, SolverConfig, TrajectoryPair, solve
from fvc import cli
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

    @pytest.mark.parametrize("command", [["solve"], ["sweep-alpha", "--alphas", "1.0"]])
    def test_zero_n_cells_rejected(self, problem_file, capsys, command):
        # 0 is a given value, not a missing one: it must not fall back to the file's 256
        assert main([command[0], problem_file(), *command[1:], "--n-cells", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "need n_cells >= 2, got 0" in err

    def test_infinite_interval_rejected(self, problem_file, capsys):
        path = problem_file()
        with open(path) as fh:
            text = fh.read().replace('"interval": [0.0, 1.0]', '"interval": [0.0, 1e999]')
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(InputError, match="finite"):
            load_problem(path)
        assert main(["solve", path]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_nan_ball_radius_rejected(self, problem_file, capsys):
        path = problem_file(
            constraint={"g": ["xb1"], "set": {"type": "ball", "center": [0.0], "radius": math.nan}}
        )
        with pytest.raises(InputError, match="radius"):
            load_problem(path)
        assert main(["solve", path]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("kind, target", [
        ("singleton", {"type": "singleton", "point": [math.nan]}),
        ("box", {"type": "box", "lower": [math.nan], "upper": [1.0]}),
    ])
    def test_nan_set_coordinates_rejected(self, problem_file, capsys, kind, target):
        path = problem_file(constraint={"g": ["xb1"], "set": target})
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"bad {kind} descriptor" in err

    def test_standard_constraint_block(self, problem_file):
        path = problem_file(
            constraint={"kind": "fixed_both", "x_a": [0.0], "x_b": [1.0]}
        )
        spec = load_problem(path)
        assert spec.n_constraints == 2

    @pytest.mark.parametrize("constraint, message", [
        ({"kind": "fixed_both", "x_a": [0]}, "fixed_both needs x_a and x_b"),
        ({"kind": "fixed_initial"}, "fixed_initial needs x_a"),
    ])
    def test_standard_constraint_missing_endpoint(self, problem_file, capsys, constraint, message):
        assert main(["solve", problem_file(constraint=constraint)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

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

    @pytest.mark.parametrize("descriptor, message", [
        ({"type": "sphere", "center": [0.0]}, "unknown set type 'sphere'"),
        ([0.0], "set descriptor must be an object with a 'type' key"),
    ])
    def test_bad_set_descriptor(self, problem_file, capsys, descriptor, message):
        assert main(["solve", problem_file(constraint={"g": ["xb1"], "set": descriptor})]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_invalid_alpha_rejected(self, problem_file, capsys):
        assert main(["solve", problem_file(alpha=1.5)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_parse_error_reported_with_offset(self, problem_file, capsys):
        assert main(["solve", problem_file(phi="xb1 +")]) == 1
        assert "offset" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1

    def test_t_in_endpoint_cost_rejected(self, problem_file, capsys):
        path = problem_file(phi="t*xb1")
        with pytest.raises(InputError, match=r"phi: uses non-endpoint variables \['t'\]"):
            load_problem(path)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert "phi: uses non-endpoint variables ['t']" in err
        assert "unbound" not in err


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

    @pytest.mark.parametrize("max_iters", ["-3", "0"])
    def test_nonpositive_iteration_budget_rejected(self, problem_file, capsys, max_iters):
        assert main(["solve", problem_file(), "--max-iters", max_iters]) == 1
        assert "max_iters must be an integer >= 1" in capsys.readouterr().err

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

    def test_stalled_line_search_exit_code(self, problem_file, tmp_path):
        # exit 2 also covers a line search that stalls with budget left: late in
        # this solve only steps that leave the objective unchanged pass the
        # Armijo test (tests/test_solver.py::test_zero_progress_stops_early)
        path = problem_file(
            alpha=0.8, phi="5*xb1", lagrangian="0.5*u1^2 - log(1 + x1)", grid={"n_cells": 128},
        )
        out = tmp_path / "result.json"
        assert main(["solve", path, "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["converged"] is False
        assert doc["iterations"] < SolverConfig().max_iters

    def test_evaluation_error_reported(self, problem_file, capsys):
        # the default start x = 0 is outside the domain of log(x1)
        assert main(["solve", problem_file(lagrangian="0.5*u1^2 - log(x1)")]) == 1
        assert capsys.readouterr().err.startswith("error: non-finite value")

    @pytest.mark.parametrize("base", ["0", "(-2)"])
    def test_non_positive_constant_base_reported(self, problem_file, capsys, base):
        path = problem_file(lagrangian=f"0.5*u1^2 + {base}^x1")
        assert main(["solve", path]) == 1
        assert capsys.readouterr().err.startswith("error: non-finite value")

    @pytest.mark.parametrize("command", ["solve", "check"])
    @pytest.mark.parametrize("power", ["0^0.5", "(1e-200)^(-1.5)", "(-8)^0.5"])
    def test_constant_power_with_non_finite_derivative_reported(
        self, problem_file, tmp_path, capsys, command, power
    ):
        # differentiating x1*c^p folds c^(p - 1): 0^-0.5, (1e-200)^-2.5 and (-8)^-0.5
        path = problem_file(lagrangian=f"0.5*(x1^2 + u1^2) + x1*{power}")
        traj_path = str(tmp_path / "zero.csv")
        grid = Grid(0.0, 1.0, CLASSIC["grid"]["n_cells"])
        write_trajectory(traj_path, TrajectoryPair(GridFn.constant(grid, 0.0), np.zeros(1)))
        assert main([command, path] + ([traj_path] if command == "check" else [])) == 1
        assert capsys.readouterr().err.startswith("error: non-finite value")

    @pytest.mark.parametrize("constraint, target", [
        # x(b) in [0.5, 1.5]; phi = x(b) pushes it down onto 0.5
        ({"g": ["xb1"], "set": {"type": "ball", "center": [1.0], "radius": 0.5}}, "ball"),
        # x(a) = 0 and x(b) >= 0.5, the box unbounded above
        ({"g": ["xa1", "xb1"], "set": {"type": "product", "factors": [
            {"type": "singleton", "point": [0.0]},
            {"type": "box", "lower": [0.5], "upper": [None]},
        ]}}, "product"),
    ])
    def test_ball_and_product_targets(self, problem_file, tmp_path, constraint, target):
        path = problem_file(grid={"n_cells": 64}, constraint=constraint)
        out, traj_path = tmp_path / "result.json", tmp_path / "traj.csv"
        assert main(["solve", path, "--out", str(out), "--traj-out", str(traj_path)]) == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["feasibility_distance"] < 1e-5
        assert doc["report"]["psi_in_cone"] is True
        spec = load_problem(path)
        x = load_trajectory(str(traj_path), spec).state(spec.alpha).values
        if target == "ball":
            assert abs(x[-1, 0] - 0.5) < 1e-5
        else:
            assert spec.target_set.factors[1].upper == (math.inf,)
            assert abs(x[0, 0]) < 1e-5 and x[-1, 0] > 0.5 - 1e-5

    @pytest.mark.parametrize("command", [["solve"], ["sweep-alpha", "--alphas", "1.0"]])
    def test_irregular_constraint_reported(self, problem_file, capsys, command):
        # g = xa1 - xa1 has a zero Jacobian: no multiplier can be extracted
        path = problem_file(
            grid={"n_cells": 32}, constraint={"g": ["xa1 - xa1"], "set": {"type": "singleton", "point": [0]}}
        )
        assert main([command[0], path, *command[1:]]) == 1
        assert capsys.readouterr().err.startswith("error: constraint Jacobian is rank deficient")

    def test_irregular_constraint_keeps_candidate(self, problem_file, tmp_path, capsys):
        # the solve finishes before the report finds the zero Jacobian: the
        # candidate goes to --traj-out, the exit code is 1 and --out is not written
        path = problem_file(
            grid={"n_cells": 32}, constraint={"g": ["xa1 - xa1"], "set": {"type": "singleton", "point": [0]}}
        )
        out, traj_path = tmp_path / "result.json", tmp_path / "traj.csv"
        assert main(["solve", path, "--out", str(out), "--traj-out", str(traj_path)]) == 1
        assert capsys.readouterr().err.startswith("error: constraint Jacobian is rank deficient")
        assert not out.exists()
        spec = load_problem(path)
        with pytest.raises(RegularityError) as raised:
            solve(spec)
        want, got = raised.value.traj, load_trajectory(str(traj_path), spec)
        assert np.array_equal(got.u.values, want.u.values) and np.array_equal(got.y, want.y)

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

    def test_irregular_constraint_reported(self, problem_file, tmp_path, capsys):
        path = problem_file(constraint={"g": ["xa1 - xa1"], "set": {"type": "singleton", "point": [0]}})
        spec = load_problem(path)
        traj_path = tmp_path / "zero.csv"
        write_trajectory(str(traj_path), TrajectoryPair(GridFn.constant(spec.grid, 0.0), np.zeros(1)))
        assert main(["check", path, str(traj_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: constraint Jacobian is rank deficient")
        assert captured.out == ""

    def test_unreadable_trajectory(self, problem_file, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["check", problem_file(), str(missing)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}")

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

    @pytest.mark.parametrize("edit", ["ragged", "trailing_comma", "underscore_literal", "t_not_increasing"])
    def test_malformed_row_exit_code(self, problem_file, tmp_path, capsys, edit):
        spec = load_problem(problem_file())
        rows = [f"{float(t)!r},0.0" for t in spec.grid.nodes()]
        rows[7] = {
            "ragged": rows[7] + ",1.0",
            "trailing_comma": rows[7] + ",",
            "underscore_literal": f"{float(spec.grid.nodes()[7])!r},1_0",
            "t_not_increasing": rows[6],
        }[edit]
        path = self.write_lines(tmp_path, ["# y = 0.0", "t,u_1"] + rows)
        assert main(["check", problem_file(), path]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("t1", ["nan", "inf", "-inf"])
    def test_non_finite_t_exit_code(self, problem_file, tmp_path, capsys, t1):
        problem = problem_file(grid={"n_cells": 4})
        rows = [f"{t},0.0" for t in ["0.0", t1, "0.5", "0.75", "1.0"]]
        path = self.write_lines(tmp_path, ["# y = 0.0", "t,u_1"] + rows)
        assert main(["check", problem, path]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: t column ")

    def test_bad_header(self, problem_file, tmp_path, capsys):
        spec = load_problem(problem_file())
        rows = [f"{float(t)!r},0.0" for t in spec.grid.nodes()]
        path = self.write_lines(tmp_path, ["# y = 0.0", "t,u_2"] + rows)
        assert main(["check", problem_file(), path]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: expected header t,u_1")

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

    @pytest.mark.parametrize("comment", ["# energy = 0.5", "# accuracy = high"])
    def test_only_the_y_key_sets_the_initial_value(self, problem_file, tmp_path, comment):
        spec = load_problem(problem_file())
        rows = [f"{float(t)!r},0.0" for t in spec.grid.nodes()]
        path = self.write_lines(tmp_path, ["# y = -0.25", "t,u_1", *rows[:5], comment, *rows[5:]])
        assert load_trajectory(path, spec).y.tolist() == [-0.25]

    @pytest.mark.parametrize("y_line, row", [
        ("# y = abc", None), ("# y =", None), ("# y = 1,,2", None),
        ("# y = nan", None), ("# y = 0.0", "nan"), ("# y = 0.0,1.0", None),
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

    def test_non_numeric_alpha_in_list(self, problem_file, capsys):
        assert main(["sweep-alpha", problem_file(), "--alphas", "0.5,abc"]) == 1
        assert capsys.readouterr().err.startswith("error: bad --alphas list")

    def test_every_alpha_checked_before_solving(self, problem_file, monkeypatch, capsys):
        solves = []
        monkeypatch.setattr("fvc.cli.solve", lambda *args: solves.append(args))
        assert main(["sweep-alpha", problem_file(), "--alphas", "0.5,nan"]) == 1
        assert solves == []
        assert "alpha: out of (0,1]: nan" in capsys.readouterr().err

    def test_stdout_fallback(self, problem_file, capsys):
        code = main(
            ["sweep-alpha", problem_file(), "--alphas", "1.0", "--n-cells", "32"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("alpha,objective")


class TestUsageErrors:
    """argparse's own exit code 2 would read as "not converged"; a usage error is exit 1."""

    @pytest.mark.parametrize("argv", [
        [],
        ["solve"],
        ["check", "p.json", "t.csv", "--tol", "-inf"],
        ["solve", "p.json", "--no-such-option"],
        ["frobnicate"],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert "usage: fvc" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: fvc")


class TestLogLevel:
    def test_unknown_level_runs_quiet(self, problem_file, monkeypatch, capsys):
        monkeypatch.setenv("FVC_LOG", "chatty")
        assert main(["sweep-alpha", problem_file(), "--alphas", "1.0", "--n-cells", "32"]) == 0
        assert "alpha=" not in capsys.readouterr().err

    @pytest.mark.parametrize("levels, shown", [(("quiet", "info"), True), (("info", "quiet"), False)])
    def test_each_call_applies_its_level(self, problem_file, monkeypatch, capsys, levels, shown):
        # one process, two calls: the second call's FVC_LOG decides, and stdout never changes
        path = problem_file()
        outs = []
        for level in levels:
            monkeypatch.setenv("FVC_LOG", level)
            capsys.readouterr()
            assert main(["sweep-alpha", path, "--alphas", "1.0", "--n-cells", "32"]) == 0
            captured = capsys.readouterr()
            outs.append(captured.out)
        assert ("INFO alpha=1 " in captured.err) == shown
        assert outs[0] == outs[1]


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


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", [
        ["solve", "--out"], ["solve", "--traj-out"], ["sweep-alpha", "--alphas", "1.0", "--out"],
    ])
    def test_reported_as_error(self, problem_file, tmp_path, capsys, command):
        path = str(tmp_path / "missing" / "out")
        argv = [command[0], problem_file(grid={"n_cells": 32})] + command[1:] + [path]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err

    def test_check_out(self, problem_file, tmp_path, capsys):
        spec = load_problem(problem_file())
        traj_path = tmp_path / "zero.csv"
        write_trajectory(str(traj_path), TrajectoryPair(GridFn.constant(spec.grid, 0.0), np.zeros(1)))
        path = str(tmp_path / "missing" / "report.json")
        assert main(["check", problem_file(), str(traj_path), "--out", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err


class TestSkippedStagesExitCode:
    """A budget that ends before the last penalty stage is not convergence."""

    @pytest.fixture
    def fixed_both(self, problem_file):
        return problem_file(
            alpha=0.7, phi="0", grid={"n_cells": 128},
            constraint={"kind": "fixed_both", "x_a": [0.0], "x_b": [1.0]},
        )

    def test_first_stage_only_exits_2(self, fixed_both, capsys):
        assert main(["solve", fixed_both, "--max-iters", "6"]) == 2
        assert "converged False" in capsys.readouterr().out

    def test_every_stage_exits_0(self, fixed_both):
        assert main(["solve", fixed_both, "--max-iters", "17"]) == 0


class TestIntegerSizes:
    """dim, grid.n_cells and a whole_space n are whole numbers, never truncated."""

    @pytest.mark.parametrize("overrides, key", [
        ({"dim": 1.7}, "dim"),
        ({"dim": True}, "dim"),
        ({"grid": {"n_cells": 64.9}}, "grid.n_cells"),
        ({"grid": {"n_cells": False}}, "grid.n_cells"),
        ({"grid": {"n_cells": math.inf}}, "grid.n_cells"),
        ({"constraint": {"g": ["xb1"], "set": {"type": "whole_space", "n": 1.5}}}, "n"),
        ({"constraint": {"g": ["xb1"], "set": {"type": "whole_space", "n": True}}}, "n"),
    ])
    def test_rejected_with_key(self, problem_file, capsys, overrides, key):
        path = problem_file(**overrides)
        with pytest.raises(InputError, match=rf"\b{key}: must be an integer, got "):
            load_problem(path)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key}: must be an integer" in err

    @pytest.mark.parametrize("override", [64.5, True, [64], "many"])
    def test_bad_n_cells_override(self, problem_file, override):
        path = problem_file()
        with pytest.raises(InputError, match=rf"^{re.escape(path)}: n_cells: must be an integer"):
            load_problem(path, n_cells_override=override)

    def test_integral_floats_accepted(self, problem_file):
        spec = load_problem(problem_file(
            dim=1.0, grid={"n_cells": 64.0},
            constraint={"g": ["xb1"], "set": {"type": "whole_space", "n": 1.0}},
        ))
        assert (spec.dim, spec.grid.n_cells, spec.target_set.n) == (1, 64, 1)
        assert all(type(v) is int for v in (spec.dim, spec.grid.n_cells, spec.target_set.n))


class TestCheckTolerance:
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "-1e-300"])
    def test_rejected_before_any_file_is_read(self, tmp_path, capsys, tol):
        # neither file exists: the tolerance error must come first
        missing = [str(tmp_path / "nope.json"), str(tmp_path / "nope.csv")]
        assert main(["check", *missing, f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --tol must be finite and >= 0")
        assert "cannot read" not in captured.err
        assert captured.out == ""

    def test_zero_tolerance_accepted(self, problem_file, tmp_path, capsys):
        spec = load_problem(problem_file())
        traj_path = tmp_path / "zero.csv"
        write_trajectory(str(traj_path), TrajectoryPair(GridFn.constant(spec.grid, 0.0), np.zeros(1)))
        assert main(["check", problem_file(), str(traj_path), "--tol", "0"]) == 3
        assert capsys.readouterr().out.endswith("FAIL\n")


class TestProblemReuse:
    """A process reuses the spec of a problem file whose content is unchanged."""

    @pytest.fixture
    def candidate(self, problem_file, tmp_path):
        problem = problem_file(
            alpha=0.8, beta=0.7, phi="0.5*xb1^2", lagrangian="0.5*(x1^2 + u1^2) + 0.1*sin(u1)",
            constraint={"kind": "fixed_initial", "x_a": [0.25]},
        )
        spec = load_problem(problem)
        path = tmp_path / "candidate.csv"
        u = GridFn(spec.grid, np.cos(3.0 * spec.grid.nodes()))
        write_trajectory(str(path), TrajectoryPair(u, np.array([0.25])))
        return problem, str(path)

    def test_unchanged_file_returns_same_spec(self, problem_file):
        path = problem_file()
        first = load_problem(path)
        assert load_problem(path) is first
        assert load_problem(problem_file()) is first  # rewritten with the same bytes

    def test_rewritten_file_returns_new_spec(self, problem_file):
        path = problem_file()
        first = load_problem(path)
        assert load_problem(path) is first
        assert problem_file(alpha=0.5, grid={"n_cells": 32}) == path
        second = load_problem(path)
        assert second is not first
        assert (second.alpha, second.grid.n_cells) == (0.5, 32)
        assert (first.alpha, first.grid.n_cells) == (1.0, 256)

    def test_n_cells_override_is_part_of_the_key(self, problem_file):
        path = problem_file()
        assert load_problem(path, 64).grid.n_cells == 64
        assert load_problem(path).grid.n_cells == 256
        assert load_problem(path, 64) is load_problem(path, 64.0) is load_problem(path, np.int64(64))

    def test_check_builds_the_parser_once(self, candidate, monkeypatch, capsys):
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        try:
            assert main(["check", *candidate]) == main(["check", *candidate])
        finally:
            cli._build_parser.cache_clear()  # the next test builds its parser without the counter
        assert built.count("fvc") == 1

    def test_malformed_file_raises_on_every_call(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"alpha": 1.0,')
        for _ in range(3):
            with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: invalid JSON"):
                load_problem(str(path))
        for _ in range(2):
            assert main(["check", str(path), str(tmp_path / "any.csv")]) == 1
            assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON")

    def test_fresh_process_equals_cache_hit(self, candidate, tmp_path, capsys):
        problem, csv = candidate
        cold_report = tmp_path / "cold.json"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        cold = subprocess.run(
            [sys.executable, "-m", "fvc.cli", "check", problem, csv, "--out", str(cold_report)],
            env=env, capture_output=True, timeout=120,
        )
        warm_report = tmp_path / "warm.json"
        for _ in range(2):
            code = main(["check", problem, csv, "--out", str(warm_report)])
            out = capsys.readouterr().out
        assert load_problem(problem) is load_problem(problem)
        assert b"psi " in cold.stdout  # the constrained report line is compared too
        assert (cold.stdout, cold.returncode) == (out.encode(), code)
        assert cold_report.read_bytes() == warm_report.read_bytes()
