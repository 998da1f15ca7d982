"""Command-line front end: solve problems, check candidates, sweep alpha.

Problems are JSON documents, trajectories are CSV files with a "# y = ..."
metadata line. Exit codes: 0 success, 1 input error, 2 not converged (budget
exhausted or line search stalled), 3 residuals above tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from .conditions import RegularityError, build_report
from .expr import EvalError, ParseError, parse
from .frac_ops import Grid, GridFn
from .model import (
    Ball,
    Box,
    ConvexSet,
    ProblemSpec,
    Product,
    Singleton,
    TrajectoryPair,
    WholeSpace,
    standard_constraint,
    validate,
)
from .solver import (
    SolverConfig,
    SolverError,
    nonexistence_diagnostic,
    objective_gradient,
    solve,
)

__all__ = ["main", "load_problem", "load_trajectory", "write_trajectory"]

log = logging.getLogger("fvc")
_handler = logging.StreamHandler()  # the one handler of log; main points it at the current stderr
_handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MAXITER = 2
EXIT_RESIDUAL = 3


class InputError(ValueError):
    """Malformed problem or trajectory file."""


# -- file formats ----------------------------------------------------------------


def _parse_set(doc) -> ConvexSet:
    if not isinstance(doc, dict) or "type" not in doc:
        raise InputError("set descriptor must be an object with a 'type' key")
    kind = doc["type"]
    try:
        if kind == "whole_space":
            return WholeSpace(_integer(doc["n"], "n"))
        if kind == "singleton":
            return Singleton(tuple(doc["point"]))
        if kind == "box":
            # null bounds mean unbounded on that side
            lo = tuple(float("-inf") if v is None else float(v) for v in doc["lower"])
            hi = tuple(float("inf") if v is None else float(v) for v in doc["upper"])
            return Box(lo, hi)
        if kind == "ball":
            return Ball(tuple(doc["center"]), float(doc["radius"]))
        if kind == "product":
            return Product(tuple(_parse_set(f) for f in doc["factors"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {kind} descriptor: {exc}") from exc
    raise InputError(f"unknown set type {kind!r}")


def _integer(value, key: str) -> int:
    """value as an int; a bool, a fraction or a non-number is a ValueError naming key."""
    if not isinstance(value, bool):
        try:
            if int(value) == float(value):
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{key}: must be an integer, got {value!r}")


def load_problem(path: str, n_cells_override=None) -> ProblemSpec:
    """The problem in the JSON file at path; an unchanged file gives the same spec.

    The spec is frozen and its plan only ever adds compiled groups and weights,
    so a process that checks many candidates against one problem parses,
    differentiates and compiles it once.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if n_cells_override is not None:  # an int before it becomes part of the cache key
        try:
            n_cells_override = _integer(n_cells_override, "n_cells")
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from exc
    return _build_problem(path, text, n_cells_override)


# keyed by content, not mtime, so an edited file always gets a new spec; one entry
# holds a spec and its plan: compiled groups and a few node-length weight vectors
@functools.lru_cache(maxsize=4)
def _build_problem(path: str, text: str, n_cells_override) -> ProblemSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at offset {exc.pos}: {exc.msg}") from exc
    try:
        dim = _integer(doc["dim"], "dim")
        a, b = (float(v) for v in doc["interval"])
        n_cells = n_cells_override
        if n_cells is None:
            n_cells = _integer(doc.get("grid", {}).get("n_cells", 128), "grid.n_cells")
        grid = Grid(a, b, n_cells)
        phi = _parse_expr(doc["phi"], dim, "phi")
        lagrangian = _parse_expr(doc["lagrangian"], dim, "lagrangian")
        constraint_map, target_set = None, None
        cdoc = doc.get("constraint")
        if cdoc is not None:
            if "kind" in cdoc:
                constraint_map, target_set = standard_constraint(
                    cdoc["kind"], dim, cdoc.get("x_a"), cdoc.get("x_b")
                )
            else:
                constraint_map = tuple(
                    _parse_expr(src, dim, f"constraint[{k}]")
                    for k, src in enumerate(cdoc["g"])
                )
                target_set = _parse_set(cdoc["set"])
        spec = ProblemSpec(
            alpha=float(doc["alpha"]),
            beta=float(doc["beta"]),
            grid=grid,
            dim=dim,
            phi=phi,
            lagrangian=lagrangian,
            constraint_map=constraint_map,
            target_set=target_set,
        )
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    issues = validate(spec)
    if issues:
        raise InputError(f"{path}: " + "; ".join(issues))
    return spec


def _parse_expr(source, dim, label):
    try:
        return parse(str(source), dim)
    except ParseError as exc:
        raise InputError(f"{label}: {exc} (offset {exc.offset})") from exc


def load_trajectory(path: str, spec: ProblemSpec) -> TrajectoryPair:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    y = None
    rows = []
    for line in lines:
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq and key.strip() == "y":
                try:
                    y = [float(v) for v in value.split(",")]
                except ValueError as exc:
                    raise InputError(f"{path}: bad '# y = ...' line: {exc}") from exc
            continue
        if line.strip():
            rows.append(line)
    if y is None:
        raise InputError(f"{path}: missing '# y = ...' metadata line")
    if len(y) != spec.dim:
        raise InputError(f"{path}: y has {len(y)} entries, problem dim is {spec.dim}")
    expected = ["t"] + [f"u_{i + 1}" for i in range(spec.dim)]
    if not rows or [h.strip().strip('"') for h in rows[0].split(",")] != expected:
        raise InputError(f"{path}: expected header {','.join(expected)}")
    shape = (spec.grid.n_nodes, spec.dim + 1)
    data = np.empty((len(rows) - 1, 0))
    if data.shape[0] == shape[0]:  # counted first: loadtxt warns on an input without data
        try:
            data = np.loadtxt(rows[1:], delimiter=",", quotechar='"', ndmin=2)
        except ValueError as exc:
            raise InputError(f"{path}: non-numeric entry: {exc}") from exc
    if data.shape != shape:
        raise InputError(
            f"{path}: expected {shape[0]} rows of {shape[1]} columns, got {data.shape[0]}"
        )
    t = data[:, 0]
    if not np.all(np.diff(t) > 0):
        raise InputError(f"{path}: t column must be strictly increasing")
    if not np.max(np.abs(t - spec.grid.nodes())) <= 1e-9:
        raise InputError(f"{path}: t column does not match the problem grid")
    try:
        return TrajectoryPair(GridFn(spec.grid, data[:, 1:]), np.array(y))
    except ValueError as exc:  # a nan or inf in y or in a control value
        raise InputError(f"{path}: {exc}") from exc


def write_trajectory(path: str, traj: TrajectoryPair):
    header = ["t"] + [f"u_{i + 1}" for i in range(traj.u.dim)]
    table = np.column_stack([traj.u.grid.nodes(), traj.u.values]).tolist()
    with open(path, "w", newline="") as fh:
        fh.write("# y = " + ",".join(repr(float(v)) for v in traj.y) + "\n")
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in table)


# -- subcommands -----------------------------------------------------------------


def _solver_config(args) -> SolverConfig:
    try:
        return SolverConfig(**({} if args.max_iters is None else {"max_iters": args.max_iters}))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_solve(args) -> int:
    spec = load_problem(args.problem, args.n_cells)
    try:
        result = solve(spec, _solver_config(args))
    except RegularityError as exc:  # no report, but the candidate is kept
        if args.traj_out:
            write_trajectory(args.traj_out, exc.traj)
        raise
    log.info(
        "solve: objective=%.6g feasibility=%.3g iterations=%d converged=%s",
        result.objective, result.feasibility_distance, result.iterations,
        result.converged,
    )
    doc = {
        "objective": result.objective,
        "feasibility_distance": result.feasibility_distance,
        "iterations": result.iterations,
        "converged": result.converged,
        "y": result.traj.y.tolist(),
        "report": result.report.to_dict(),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    if args.traj_out:
        write_trajectory(args.traj_out, result.traj)
    print(f"objective {result.objective!r} converged {result.converged}")
    return EXIT_OK if result.converged else EXIT_MAXITER


def cmd_check(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise InputError(f"--tol must be finite and >= 0, got {args.tol!r}")
    spec = load_problem(args.problem, None)
    traj = load_trajectory(args.trajectory, spec)
    report = build_report(spec, traj)
    residuals = ("el_residual_sup", "transversality_a", "transversality_b")
    for name in residuals:
        print(f"{name} {getattr(report, name)!r}")
    ok = all(getattr(report, name) <= args.tol for name in residuals)
    ok = ok and report.legendre_ok and report.psi_in_cone is not False
    print(f"legendre_ok {report.legendre_ok}")
    if report.psi is not None:
        print(f"psi {report.psi.tolist()!r} in_cone {report.psi_in_cone}")
    print("PASS" if ok else "FAIL")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    return EXIT_OK if ok else EXIT_RESIDUAL


def cmd_sweep_alpha(args) -> int:
    try:
        alphas = [float(v) for v in args.alphas.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"bad --alphas list: {exc}") from exc
    if not alphas:
        raise InputError("--alphas must list at least one value")
    spec = load_problem(args.problem, args.n_cells)
    # every alpha and the config are checked before the first solve
    subs = [dataclasses.replace(spec, alpha=alpha) for alpha in alphas]
    issues = [issue for sub in subs for issue in validate(sub)]
    if issues:
        raise InputError("; ".join(issues))
    config = _solver_config(args)
    lines = ["alpha,objective,grad_norm,transversality_b,nonexistence_flag"]
    for sub in subs:
        result = solve(sub, config)
        grad_u, grad_y = objective_gradient(sub, result.traj)
        grad_norm = float(
            np.sqrt(np.sum(grad_u.values**2) + np.sum(grad_y**2))
        )
        diag = nonexistence_diagnostic(sub, result)
        row = [sub.alpha, result.objective, grad_norm, result.report.transversality_b,
               int(bool(diag["flag"]))]
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        log.info("alpha=%g objective=%.6g flag=%s", sub.alpha, result.objective, diag["flag"])
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


@functools.cache  # one parser per process; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvc",
        description="Solve and verify fractional Bolza variational problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimize the cost of a problem file")
    p.add_argument("problem")
    p.add_argument("--n-cells", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--out", default=None, help="write the SolveResult JSON here")
    p.add_argument("--traj-out", default=None, help="write the trajectory CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="evaluate residuals of a candidate trajectory")
    p.add_argument("problem")
    p.add_argument("trajectory")
    p.add_argument("--tol", type=float, default=1e-2)
    p.add_argument("--out", default=None, help="write the ResidualReport JSON here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep-alpha", help="solve across a list of alpha values")
    p.add_argument("problem")
    p.add_argument("--alphas", required=True, help="comma-separated alpha values")
    p.add_argument("--n-cells", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--out", default=None, help="write the sweep CSV here")
    p.set_defaults(func=cmd_sweep_alpha)
    return parser


def _configure_logging():
    """Apply FVC_LOG to the fvc logger on each call, writing to the current sys.stderr."""
    level = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    log.setLevel(level.get(os.environ.get("FVC_LOG", "quiet").lower(), logging.ERROR))
    _handler.stream = sys.stderr
    log.addHandler(_handler)  # adds nothing once it is there
    log.propagate = False


def main(argv=None) -> int:
    _configure_logging()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, and 2 means "not converged" here
        return EXIT_INPUT if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except (InputError, OSError, SolverError, EvalError, RegularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
