import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fvc
from conftest import classic_spec


def run_fresh(code):
    """stdout of `python -c code` in a new interpreter that imports this fvc."""
    src = str(Path(fvc.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return out.stdout.strip()


def test_import_does_not_load_scipy_signal():
    # importing scipy.signal costs about a second and tens of MB at start-up
    src = str(Path(fvc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, fvc; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_import_loads_no_scipy():
    # scipy.special costs about 0.3 s at start-up, and solve, check and
    # sweep-alpha never need it
    code = (
        "import sys, fvc, fvc.cli\n"
        "print([m for m in ('scipy', 'scipy.special', 'scipy.signal') if m in sys.modules])"
    )
    assert run_fresh(code) == "[]"


def test_needle_sensitivity_in_fresh_process():
    # the first needle_sensitivity call imports scipy.special on demand
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from conftest import classic_spec\n"
        "from fvc import GridFn, TrajectoryPair, needle_sensitivity\n"
        "spec = classic_spec(alpha=0.6, beta=0.8)\n"
        "u = GridFn(spec.grid, np.cos(3.0 * spec.grid.nodes()))\n"
        "value = needle_sensitivity(spec, TrajectoryPair(u, np.array([0.2])), 0.5, [1.5])\n"
        "print(value.hex(), 'scipy.special' in sys.modules)"
    )
    spec = classic_spec(alpha=0.6, beta=0.8)
    u = fvc.GridFn(spec.grid, np.cos(3.0 * spec.grid.nodes()))
    expected = fvc.needle_sensitivity(spec, fvc.TrajectoryPair(u, np.array([0.2])), 0.5, [1.5])
    assert run_fresh(code) == f"{expected.hex()} True"


def test_building_a_plan_imports_no_module():
    # the plan and its generated functions use numpy and the standard library
    # modules that import fvc already loaded
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import fvc, fvc.cli\n"
        "from conftest import classic_spec\n"
        "from fvc import GridFn, TrajectoryPair\n"
        "spec = classic_spec(alpha=0.6, beta=0.8)\n"
        "traj = TrajectoryPair(GridFn(spec.grid, np.cos(spec.grid.nodes())), np.array([0.2]))\n"
        "traj.state(spec.alpha)\n"  # numpy loads numpy.fft on its first use
        "before = set(sys.modules)\n"
        "fvc.solve(spec, fvc.SolverConfig(max_iters=3))\n"
        "fvc.gateaux_second(spec, traj, traj)\n"
        "fvc.evaluate(fvc.parse('sin(x1)^2', 1), {'x1': np.ones(3)})\n"
        "print(sorted(set(sys.modules) - before))"
    )
    assert run_fresh(code) == "[]"


def test_import_builds_no_parser_and_loads_no_problem():
    # the parser and the problem specs are built on first use, so import stays cheap
    code = (
        "import fvc.cli as cli\n"
        "print(cli._build_parser.cache_info().currsize, cli._build_problem.cache_info().currsize)"
    )
    assert run_fresh(code) == "0 0"
