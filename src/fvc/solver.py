"""Direct minimization of the discretized Bolza functional.

The decision variables are the control values on cells (the last node is tied
to its neighbor) together with the initial value y. Endpoint constraints are
handled by a smooth quadratic penalty with an increasing weight schedule, one
stage per epsilon of the Ekeland-style schedule. The inner loop is a
limited-memory quasi-Newton descent with backtracking and box projection onto
the control bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conditions import ResidualReport, build_report
from .convex import dist, dist_sq_gradient, project
from .expr import EvalError, Var
from .frac_ops import GridFn, _volterra
from .functional import bolza_eval, constraint_value
from .model import ProblemSpec, TrajectoryPair

__all__ = [
    "SolverConfig",
    "SolveResult",
    "SolverError",
    "objective_gradient",
    "default_initial",
    "solve",
    "nonexistence_diagnostic",
]


class SolverError(RuntimeError):
    """Raised when the descent encounters a non-finite objective."""


@dataclass(frozen=True)
class SolverConfig:
    radius: float = 50.0
    epsilon_schedule: tuple = (1e-3, 1e-4, 1e-5, 1e-6)
    penalty_weights: tuple = (1e3, 1e4, 1e5, 1e6)
    max_iters: int = 5000
    grad_tol: float = 1e-7
    shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    memory: int = 10
    eps_grad_scale: float = 1e-3

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        eps = tuple(float(e) for e in self.epsilon_schedule)
        if not eps or any(e <= 0 for e in eps) or any(
            b >= a for a, b in zip(eps, eps[1:])
        ):
            raise ValueError("epsilon schedule must be strictly decreasing and positive")
        rho = tuple(float(r) for r in self.penalty_weights)
        if len(rho) != len(eps) or any(r <= 0 for r in rho):
            raise ValueError("penalty weights must be positive, one per epsilon")
        if self.grad_tol <= 0 or not (0 < self.shrink < 1) or self.sufficient_decrease <= 0:
            raise ValueError("tolerances and line-search parameters must be positive")
        object.__setattr__(self, "epsilon_schedule", eps)
        object.__setattr__(self, "penalty_weights", rho)


@dataclass(frozen=True)
class SolveResult:
    traj: TrajectoryPair
    objective: float
    feasibility_distance: float
    report: ResidualReport
    iterations: int
    converged: bool


# -- exact gradient of the discrete functional -----------------------------------


def objective_gradient(spec: ProblemSpec, traj: TrajectoryPair):
    """Gradient of the discrete cost in (u, y).

    It is the exact transpose of the linear maps inside the first Gateaux
    differential, so grad . delta reproduces gateaux_first(delta) to rounding.
    The last control node does not enter the quadrature; its entry is zero.
    """
    grid = spec.grid
    n_cells = grid.n_cells
    plan = spec._plan
    x = traj.state(spec.alpha)
    d1, d2 = plan.running(x, traj.u, "L_x", "L_u")
    dphi_a, dphi_b = plan.endpoint(x.values[0], x.values[-1], "phi_a", "phi_b")
    w_beta = plan.w_beta[:, None]

    grad_u = np.zeros_like(traj.u.values)
    weighted_d1 = w_beta * d1[:-1]
    grad_u[:-1] = w_beta * d2[:-1] + plan.w_alpha_rev * dphi_b[None, :]
    # transpose of the causal fractional-integral map: node j collects the
    # downstream contributions of d1L at cells j+1..n-1
    grad_u[: n_cells - 1] += _volterra(weighted_d1[:0:-1], spec.alpha, grid)[::-1]
    grad_y = dphi_a + dphi_b + weighted_d1.sum(axis=0)
    return GridFn(grid, grad_u), grad_y


# -- penalty plumbing ------------------------------------------------------------


def _traj_from(spec: ProblemSpec, z: np.ndarray) -> TrajectoryPair:
    n, n_cells = spec.dim, spec.grid.n_cells
    cells = z[: n_cells * n].reshape(n_cells, n)
    vals = np.vstack([cells, cells[-1:]])
    return TrajectoryPair(GridFn(spec.grid, vals), z[n_cells * n :])


def _pack(spec: ProblemSpec, traj: TrajectoryPair) -> np.ndarray:
    return np.concatenate([traj.u.values[:-1].ravel(), traj.y])


def _penalized(spec: ProblemSpec, z: np.ndarray, rho: float):
    """Value of Phi + rho * dist^2 to the target set, and a thunk for its gradient.

    The line search needs only values; the gradient is computed when a trial
    point is accepted, from the same trajectory and its memoized state.
    """
    traj = _traj_from(spec, z)
    value = bolza_eval(spec, traj)
    constrained = spec.constraint_map is not None and rho > 0.0
    if constrained:
        x = traj.state(spec.alpha)
        xa, xb = x.values[0], x.values[-1]
        g_val = constraint_value(spec, xa, xb)
        feas = dist(spec.target_set, g_val)
        value += rho * feas * feas
    if not np.isfinite(value):
        raise SolverError("penalized objective is not finite")

    def gradient():
        grad_u, grad_y = objective_gradient(spec, traj)
        gu = grad_u.values[:-1].copy()
        gy = grad_y.copy()
        if constrained:
            outer = rho * dist_sq_gradient(spec.target_set, g_val)
            plan = spec._plan
            ga, gb = plan.endpoint(xa, xb, "g_a", "g_b")
            pull_a = ga.T @ outer  # d/dxa, and xa = y
            pull_b = gb.T @ outer  # d/dxb; xb = y + sum_j w_alpha[n-1-j] u_j
            gu += plan.w_alpha_rev * pull_b[None, :]
            gy += pull_a + pull_b
        return np.concatenate([gu.ravel(), gy])

    return value, gradient


def _bounds(spec: ProblemSpec, radius: float):
    n_u = spec.grid.n_cells * spec.dim
    lo = np.concatenate([np.full(n_u, -radius), np.full(spec.dim, -np.inf)])
    hi = np.concatenate([np.full(n_u, radius), np.full(spec.dim, np.inf)])
    return lo, hi


def _descend(fun, z, lo, hi, tol, max_iters, cfg: SolverConfig):
    """Projected limited-memory quasi-Newton descent with backtracking.

    fun(z) returns (value, gradient thunk); the thunk is called only at the
    start point and at accepted trial points. Accepted steps are strictly
    non-increasing in the objective. The line search fails, and the descent
    stops, once a trial point rounds back onto z or the step falls below
    machine epsilon times the unit quasi-Newton step. Returns
    (z, value, gradient, iterations, converged).
    """
    z = np.clip(z, lo, hi)
    f, grad = fun(z)
    g = grad()
    eps = np.finfo(float).eps
    history = []  # (s, y, 1 / (s . y)) of the last cfg.memory accepted steps
    it = 0
    while it < max_iters:
        pg = z - np.clip(z - g, lo, hi)
        if float(np.linalg.norm(pg)) <= tol:
            return z, f, g, it, True
        d = -_lbfgs_direction(g, history)
        if float(d @ g) >= 0.0:
            d = -g
            history = []
        step = 1.0
        accepted = False
        while step >= eps:
            z_new = np.clip(z + step * d, lo, hi)
            if np.array_equal(z_new, z):
                break  # the Armijo test would pass as 0 <= 0 with no progress
            try:
                f_new, grad = fun(z_new)
                if f_new <= f + cfg.sufficient_decrease * float(g @ (z_new - z)):
                    g_new = grad()
                    accepted = True
                    break
            except (SolverError, EvalError):
                pass  # a trial point outside the integrand's domain is a rejected step
            step *= cfg.shrink
        it += 1
        if not accepted:
            return z, f, g, it, float(np.linalg.norm(pg)) <= tol
        s, yv = z_new - z, g_new - g
        sy = float(s @ yv)
        if sy > 1e-14 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            history.append((s, yv, 1.0 / sy))
            if len(history) > cfg.memory:
                history.pop(0)
        z, f, g = z_new, f_new, g_new
    pg = z - np.clip(z - g, lo, hi)
    return z, f, g, it, float(np.linalg.norm(pg)) <= tol


def _lbfgs_direction(g, history):
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        alphas.append((a, rho, s, y))
        q -= a * y
    if history:
        s, y, _ = history[-1]
        q *= float(s @ y) / float(y @ y)
    for a, rho, s, y in reversed(alphas):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


# -- public driver ---------------------------------------------------------------


def default_initial(spec: ProblemSpec) -> TrajectoryPair:
    """u = 0 with y picked compatible with identity-style endpoint constraints."""
    y = np.zeros(spec.dim)
    if spec.constraint_map is not None:
        feas = project(spec.target_set, np.zeros(spec.target_set.dim))
        for k, g in enumerate(spec.constraint_map):
            if isinstance(g, Var) and g.name.startswith("xa"):
                y[int(g.name[2:]) - 1] = feas[k]
    return TrajectoryPair(GridFn.constant(spec.grid, np.zeros(spec.dim)), y)


def solve(
    spec: ProblemSpec, config: SolverConfig = SolverConfig(), initial: Optional[TrajectoryPair] = None
) -> SolveResult:
    """Minimize the discrete Bolza cost, with penalty stages when constrained."""
    if initial is None:
        initial = default_initial(spec)
    z = _pack(spec, initial)
    lo, hi = _bounds(spec, config.radius)
    constrained = spec.constraint_map is not None
    stages = list(zip(config.epsilon_schedule, config.penalty_weights))
    if not constrained:
        stages = stages[-1:]
    total_iters = 0
    converged = False
    for eps, rho in stages:
        tol = max(config.grad_tol, math.sqrt(eps) * config.eps_grad_scale)
        budget = config.max_iters - total_iters
        if budget <= 0:
            break
        fun = lambda zz, r=(rho if constrained else 0.0): _penalized(spec, zz, r)
        z, _, _, used, converged = _descend(fun, z, lo, hi, tol, budget, config)
        total_iters += used
    traj = _traj_from(spec, z)
    feas = 0.0
    if constrained:
        x = traj.state(spec.alpha)
        feas = dist(spec.target_set, constraint_value(spec, x.values[0], x.values[-1]))
    return SolveResult(
        traj=traj,
        objective=bolza_eval(spec, traj),
        feasibility_distance=feas,
        report=build_report(spec, traj),
        iterations=total_iters,
        converged=converged,
    )


def nonexistence_diagnostic(spec: ProblemSpec, result: SolveResult) -> dict:
    """Flag candidates whose endpoint condition at b is structurally unsatisfiable.

    For alpha < 1 with beta >= 1 (or beta > alpha) the right integral in the
    endpoint condition vanishes identically, so a nonzero gradient of phi in
    its second argument rules out any trajectory satisfying the necessary
    conditions.
    """
    in_regime = spec.alpha < 1.0 and (spec.beta >= 1.0 or spec.beta > spec.alpha)
    if not in_regime:
        return {"applicable": False, "flag": False, "dphi_b_norm": None,
                "transversality_b": None}
    x = result.traj.state(spec.alpha)
    (dphi_b,) = spec._plan.endpoint(x.values[0], x.values[-1], "phi_b")
    norm = float(np.linalg.norm(dphi_b))
    return {
        "applicable": True,
        "flag": norm > 1e-12,
        "dphi_b_norm": norm,
        "transversality_b": norm,
    }
