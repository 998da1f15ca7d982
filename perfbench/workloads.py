"""The three benchmark workloads: their inputs, their ops and their correctness gates.

Each workload builds its inputs once (set-up), then hands out one *pass*: a
fixed list of ops that the runner times and repeats. The seed changes only
which inputs a pass uses and in what order; every input it can choose has a
reference output pinned in refs.json, so every op is checked.

- free_fine: the classic free instance at n = 16384, one solve then one
  build_report on its result. The O(n^2) fractional integrals dominate.
  The instance is fixed, so the seed does not change it.
- constrained_sweep: fixed_both and periodic at six alphas, n = 1024. Each
  convolution is cheap, so the time goes into per-evaluation overhead of the
  penalty/L-BFGS loop. The seed permutes the order of the 12 solves.
- verify_batch: `fvc check` (through fvc.cli.main) on 8 candidate CSV files of
  a 3-D nonlinear problem with beta < 1, chosen by the seed from a pool of 32.
  No solver work; CSV parsing, residual assembly and right integrals.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import fvc
from fvc import cli

# The op a user waits for in each workload; its timing is the workload's op_s.
PRIMARY_KIND = {"free_fine": "solve", "constrained_sweep": "solve", "verify_batch": "check"}

CLASSIC_LAGRANGIAN = "0.5*(x1^2 + u1^2)"
FREE_FINE_N = 16384
FREE_FINE_ALPHA = 0.75

SWEEP_N = 1024
SWEEP_ALPHAS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)
SWEEP_KINDS = {
    # kind: (phi, lagrangian)
    "fixed_both": ("0", CLASSIC_LAGRANGIAN),
    "periodic": ("xb1", "0.5*(x1^2 + u1^2) - t*x1"),
}
# fixed_both, alpha = 1, x(0) = 0, x(1) = 1: the classical minimum is coth(1)/2.
ORACLE_KEY = "fixed_both@1.0"
ORACLE_VALUE = 0.5 / math.tanh(1.0)

VERIFY_PROBLEM = {
    "alpha": 0.7,
    "beta": 0.8,
    "interval": [0.0, 1.0],
    "dim": 3,
    "phi": "xb1 + 0.5*xb2^2 - xb3",
    "lagrangian": (
        "0.5*(u1^2 + u2^2 + u3^2) + 0.5*(x1^2 + x2^2 + x3^2)"
        " + 0.2*sin(x1)*u2 + 0.1*x3*u1 + 0.05*t*x2^2"
    ),
    "constraint": {"kind": "fixed_initial", "x_a": [0.0, 0.5, -0.5]},
    "grid": {"n_cells": 2048},
}
VERIFY_POOL = 32
VERIFY_BATCH = 8
VERIFY_MODES = 4  # cosine modes per control component
POOL_TAG = 20050560  # keeps pool streams apart from the run seed's stream

LADDER_SIZES = (512, 2048, 8192, 32768)
LADDER_LEFT_REPEATS = 5

# Reference tolerances (relative). Objectives of converged solves and residuals
# of a fixed candidate move only by rounding. The EL residual sup of a solve
# result depends on the optimizer's path: replacing np.convolve by an FFT
# convolution (a change of rounding only) moved it by 4% at fixed_both,
# alpha = 1, n = 1024, and changed that solve's iteration count from 137 to
# 134, so iterations are reported against their pinned value but not gated.
OBJECTIVE_RTOL = 1e-6
SOLVE_EL_RTOL = 0.1
CHECK_EL_RTOL = 1e-6


@dataclass(frozen=True)
class Op:
    kind: str  # "solve", "report" or "check"
    key: str  # reference key in refs.json
    run: Callable[[], dict]
    needs_previous: bool = False  # skipped when the op before it failed


def classic_free(n_cells: int, alpha: float = FREE_FINE_ALPHA) -> fvc.ProblemSpec:
    return fvc.ProblemSpec(
        alpha=alpha, beta=1.0, grid=fvc.Grid(0.0, 1.0, n_cells), dim=1,
        phi=fvc.parse("xb1", 1), lagrangian=fvc.parse(CLASSIC_LAGRANGIAN, 1),
    )


def sweep_spec(kind: str, alpha: float) -> fvc.ProblemSpec:
    phi, lagrangian = SWEEP_KINDS[kind]
    constraint_map, target_set = fvc.standard_constraint(kind, 1, [0.0], [1.0])
    return fvc.ProblemSpec(
        alpha=alpha, beta=1.0, grid=fvc.Grid(0.0, 1.0, SWEEP_N), dim=1,
        phi=fvc.parse(phi, 1), lagrangian=fvc.parse(lagrangian, 1),
        constraint_map=constraint_map, target_set=target_set,
    )


def sweep_keys():
    return [f"{kind}@{alpha}" for kind in SWEEP_KINDS for alpha in SWEEP_ALPHAS]


def verify_candidate(spec: fvc.ProblemSpec, k: int) -> fvc.TrajectoryPair:
    """Pool member k: a smooth random control started at the fixed x(a)."""
    rng = np.random.default_rng((POOL_TAG, k))
    coeffs = rng.normal(size=(VERIFY_MODES, spec.dim)) / np.arange(1, VERIFY_MODES + 1)[:, None]
    modes = np.cos(np.pi * np.outer(spec.grid.nodes(), np.arange(VERIFY_MODES)))
    y = np.array(VERIFY_PROBLEM["constraint"]["x_a"], dtype=float)
    return fvc.TrajectoryPair(fvc.GridFn(spec.grid, modes @ coeffs), y)


def _solve_outcome(result) -> dict:
    return {
        "objective": result.objective,
        "iterations": result.iterations,
        "el_residual_sup": result.report.el_residual_sup,
    }


def _solved(spec: fvc.ProblemSpec) -> dict:
    return _solve_outcome(fvc.solve(spec))


def _cli_check(problem_path: str, traj_path: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["check", problem_path, traj_path])
    for line in out.getvalue().splitlines():
        if line.startswith("el_residual_sup "):
            return {"el_residual_sup": float(line.split()[1]), "exit_code": code}
    raise ValueError(f"fvc check printed no el_residual_sup (exit code {code})")


class FreeFine:
    name = "free_fine"

    def __init__(self, seed: int, workdir: str):
        self.spec = classic_free(FREE_FINE_N)

    def ops(self):
        solved = {}

        def solve():
            result = fvc.solve(self.spec)
            solved["traj"] = result.traj
            return _solve_outcome(result)

        def report():
            return {"el_residual_sup": fvc.build_report(self.spec, solved["traj"]).el_residual_sup}

        return [Op("solve", self.name, solve), Op("report", self.name, report, True)]


class ConstrainedSweep:
    name = "constrained_sweep"

    def __init__(self, seed: int, workdir: str):
        keys = sweep_keys()
        order = np.random.default_rng(seed).permutation(len(keys))
        self.items = []
        for i in order:
            kind, alpha = keys[i].split("@")
            self.items.append((keys[i], sweep_spec(kind, float(alpha))))

    def ops(self):
        return [Op("solve", key, functools.partial(_solved, spec)) for key, spec in self.items]


def write_verify_problem(workdir: str) -> str:
    path = os.path.join(workdir, "verify_problem.json")
    with open(path, "w") as fh:
        json.dump(VERIFY_PROBLEM, fh)
    return path


class VerifyBatch:
    name = "verify_batch"

    def __init__(self, seed: int, workdir: str):
        self.problem_path = write_verify_problem(workdir)
        spec = cli.load_problem(self.problem_path)
        chosen = np.random.default_rng(seed).choice(VERIFY_POOL, size=VERIFY_BATCH, replace=False)
        self.items = []
        for k in chosen:
            path = os.path.join(workdir, f"candidate_{k:02d}.csv")
            cli.write_trajectory(path, verify_candidate(spec, int(k)))
            self.items.append((str(k), path))

    def ops(self):
        return [Op("check", key, functools.partial(_cli_check, self.problem_path, path))
                for key, path in self.items]


WORKLOAD_CLASSES = {cls.name: cls for cls in (FreeFine, ConstrainedSweep, VerifyBatch)}
WORKLOADS = tuple(WORKLOAD_CLASSES)


def build(name: str, seed: int, workdir: str):
    return WORKLOAD_CLASSES[name](seed, workdir)


# -- correctness gates ------------------------------------------------------------


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def check_outcome(workload: str, kind: str, key: str, outcome: dict, refs: dict) -> dict:
    """Compare one op's outputs with its pinned reference.

    Returns {"devs": {name: relative deviation}, "violations": [text],
    "iterations": (value, pinned) or None, "oracle_err": float or None}.
    Residual sizes are not gated: free_fine and the alpha < 1 sweep items sit
    in the paper's nonexistence regime, where O(1) residuals are the correct
    output.
    """
    ref = refs[workload][key]
    devs, violations = {}, []

    def gate(name, rtol):
        devs[name] = _rel(outcome[name], ref[name])
        if not devs[name] <= rtol:
            violations.append(
                f"{workload} {kind} {key}: {name} {outcome[name]!r} vs pinned {ref[name]!r}"
                f" (relative deviation {devs[name]:.3g} > {rtol:g})"
            )

    result = {"devs": devs, "violations": violations, "iterations": None, "oracle_err": None}
    if kind == "solve":
        gate("objective", OBJECTIVE_RTOL)
        gate("el_residual_sup", SOLVE_EL_RTOL)
        result["iterations"] = (outcome["iterations"], ref["iterations"])
        if key == ORACLE_KEY:
            err = abs(outcome["objective"] - ORACLE_VALUE)
            result["oracle_err"] = err
            # first-order scheme: the error must stay within one grid step
            if not err <= 1.0 / SWEEP_N:
                violations.append(f"oracle_err {err:.3g} > h = {1.0 / SWEEP_N:.3g}")
    elif kind == "report":
        gate("el_residual_sup", SOLVE_EL_RTOL)
    else:
        gate("el_residual_sup", CHECK_EL_RTOL)
        if outcome["exit_code"] != ref["exit_code"]:
            violations.append(
                f"{workload} check {key}: exit code {outcome['exit_code']} vs pinned {ref['exit_code']}"
            )
    return result


def pin_references(workdir: str) -> dict:
    """Run every op any seed can choose once and return its outputs."""
    refs = {"free_fine": {}, "constrained_sweep": {}, "verify_batch": {}}
    refs["free_fine"]["free_fine"] = _solved(classic_free(FREE_FINE_N))
    for key in sweep_keys():
        kind, alpha = key.split("@")
        refs["constrained_sweep"][key] = _solved(sweep_spec(kind, float(alpha)))
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        problem_path = write_verify_problem(scratch)
        spec = cli.load_problem(problem_path)
        for k in range(VERIFY_POOL):
            path = os.path.join(scratch, f"candidate_{k:02d}.csv")
            cli.write_trajectory(path, verify_candidate(spec, k))
            refs["verify_batch"][str(k)] = _cli_check(problem_path, path)
    return refs


# -- size ladder (informational) ----------------------------------------------------


def size_ladder() -> list:
    """rl_integral_left (median of a few calls) and one classic free solve per n."""
    rows = []
    for n in LADDER_SIZES:
        spec = classic_free(n)
        u = fvc.GridFn(spec.grid, np.cos(3.0 * spec.grid.nodes()))
        left = []
        for _ in range(LADDER_LEFT_REPEATS):
            start = perf_counter()
            fvc.rl_integral_left(u, FREE_FINE_ALPHA)
            left.append(perf_counter() - start)
        start = perf_counter()
        result = fvc.solve(spec)
        rows.append({
            "n": n,
            "rl_integral_left_s": float(np.median(left)),
            "solve_s": perf_counter() - start,
            "iterations": result.iterations,
            "objective": result.objective,
        })
    return rows
