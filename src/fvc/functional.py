"""Evaluation and sensitivity analysis of the fractional Bolza functional.

The cost is phi(x(a), x(b)) + I^beta[L(x, u, .)](b). All quadrature treats
integrands as piecewise-constant on cells (left value) and integrates the
weight (b-s)^(beta-1) exactly over each cell, which stays valid for beta < 1
where the weight is unbounded at b.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .convex import dist
from .expr import Expr, evaluate
from .frac_ops import Grid, GridFn
from .model import ProblemSpec, TrajectoryPair

__all__ = [
    "NeedleParams",
    "SecondDiffData",
    "bolza_eval",
    "gateaux_first",
    "gateaux_second",
    "needle_apply",
    "needle_sensitivity",
    "needle_bounds_check",
    "y_sensitivity",
    "penalized_value",
    "beta_cell_weights",
    "constraint_value",
]


@dataclass(frozen=True)
class NeedleParams:
    """Constant replacement value v on the window [tau, tau+h)."""

    tau: float
    h: float
    v: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        if self.h <= 0:
            raise ValueError("needle window must have positive width")


@dataclass(frozen=True)
class SecondDiffData:
    """Hessian blocks of phi (A, B, C) and of L (P, Q, Rmat) along a trajectory."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    P: np.ndarray  # (n_nodes, n, n)
    Q: np.ndarray
    Rmat: np.ndarray


# -- quadrature weights ---------------------------------------------------------


@functools.lru_cache(maxsize=16)
def beta_cell_weights(grid: Grid, beta: float) -> np.ndarray:
    """Exact integrals of (b-s)^(beta-1)/Gamma(beta) over each cell.

    Cached per (grid, beta); the returned array is read-only.
    """
    if beta <= 0:
        raise ValueError(f"need beta > 0, got {beta}")
    t = grid.nodes()
    gaps = (grid.b - t).clip(min=0.0)
    w = (gaps[:-1] ** beta - gaps[1:] ** beta) / math.gamma(beta + 1.0)
    w.setflags(write=False)
    return w


# -- expression plumbing --------------------------------------------------------


def running_env(spec: ProblemSpec, x: GridFn, u: GridFn) -> dict:
    env = {"t": spec.grid.nodes()}
    for i in range(spec.dim):
        env[f"x{i + 1}"] = x.values[:, i]
        env[f"u{i + 1}"] = u.values[:, i]
    return env


def endpoint_env(spec: ProblemSpec, xa: np.ndarray, xb: np.ndarray) -> dict:
    env = {}
    for i in range(spec.dim):
        env[f"xa{i + 1}"] = float(xa[i])
        env[f"xb{i + 1}"] = float(xb[i])
    return env


def eval_vector(exprs, env) -> np.ndarray:
    return np.array([float(evaluate(e, env)) for e in exprs])


def eval_matrix(rows, env) -> np.ndarray:
    return np.array([[float(evaluate(e, env)) for e in row] for row in rows])


def eval_profile(exprs, env, n_nodes: int) -> np.ndarray:
    """Evaluate a tuple of expressions over the whole grid, shape (n_nodes, k)."""
    cols = [np.broadcast_to(evaluate(e, env), (n_nodes,)) for e in exprs]
    return np.column_stack(cols)


def constraint_value(spec: ProblemSpec, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    env = endpoint_env(spec, xa, xb)
    return eval_vector(spec.constraint_map, env)


# -- the functional and its differentials ---------------------------------------


def bolza_eval(spec: ProblemSpec, traj: TrajectoryPair) -> float:
    """phi(x(a), x(b)) + I^beta[L](b) for x reconstructed from (u, y)."""
    x = traj.state(spec.alpha)
    env = running_env(spec, x, traj.u)
    lag = np.broadcast_to(evaluate(spec.lagrangian, env), (spec.grid.n_nodes,))
    weights = beta_cell_weights(spec.grid, spec.beta)
    integral = float(weights @ lag[:-1])
    mayer = float(
        evaluate(spec.phi, endpoint_env(spec, x.values[0], x.values[-1]))
    )
    return mayer + integral


def gateaux_first(spec: ProblemSpec, traj: TrajectoryPair, eta: TrajectoryPair) -> float:
    """First directional differential along the variation eta = (cD eta, eta(a))."""
    x = traj.state(spec.alpha)
    eta_x = eta.state(spec.alpha)
    env = running_env(spec, x, traj.u)
    n_nodes = spec.grid.n_nodes
    d1 = eval_profile(spec.d_lagrangian("x"), env, n_nodes)
    d2 = eval_profile(spec.d_lagrangian("u"), env, n_nodes)
    integrand = np.sum(d1 * eta_x.values + d2 * eta.u.values, axis=1)
    weights = beta_cell_weights(spec.grid, spec.beta)
    integral = float(weights @ integrand[:-1])
    ep = endpoint_env(spec, x.values[0], x.values[-1])
    dphi_a = eval_vector(spec.d_phi("xa"), ep)
    dphi_b = eval_vector(spec.d_phi("xb"), ep)
    return float(dphi_a @ eta_x.values[0] + dphi_b @ eta_x.values[-1]) + integral


def second_diff_data(spec: ProblemSpec, traj: TrajectoryPair) -> SecondDiffData:
    x = traj.state(spec.alpha)
    env = running_env(spec, x, traj.u)
    ep = endpoint_env(spec, x.values[0], x.values[-1])
    n, n_nodes = spec.dim, spec.grid.n_nodes

    def profile(rows):
        mats = np.empty((n_nodes, n, n))
        for i in range(n):
            for j in range(n):
                mats[:, i, j] = np.broadcast_to(evaluate(rows[i][j], env), (n_nodes,))
        return mats

    return SecondDiffData(
        A=eval_matrix(spec.d2_phi("xa", "xa"), ep),
        B=eval_matrix(spec.d2_phi("xa", "xb"), ep),
        C=eval_matrix(spec.d2_phi("xb", "xb"), ep),
        P=profile(spec.d2_lagrangian("x", "x")),
        Q=profile(spec.d2_lagrangian("x", "u")),
        Rmat=profile(spec.d2_lagrangian("u", "u")),
    )


def gateaux_second(spec: ProblemSpec, traj: TrajectoryPair, eta: TrajectoryPair) -> float:
    """Second directional differential (quadratic form in eta)."""
    data = second_diff_data(spec, traj)
    eta_x = eta.state(spec.alpha).values
    nu = eta.u.values
    ea, eb = eta_x[0], eta_x[-1]
    endpoint = float(ea @ data.A @ ea + 2.0 * ea @ data.B @ eb + eb @ data.C @ eb)
    quad = (
        np.einsum("ki,kij,kj->k", eta_x, data.P, eta_x)
        + 2.0 * np.einsum("ki,kij,kj->k", eta_x, data.Q, nu)
        + np.einsum("ki,kij,kj->k", nu, data.Rmat, nu)
    )
    weights = beta_cell_weights(spec.grid, spec.beta)
    return endpoint + float(weights @ quad[:-1])


# -- needle perturbations --------------------------------------------------------


def needle_apply(u: GridFn, p: NeedleParams) -> GridFn:
    """Overwrite u with the constant v on [tau, tau+h); window ends at nodes."""
    grid = u.grid
    k0 = grid.node_index(p.tau)
    k1 = grid.node_index(p.tau + p.h)
    if p.v.shape != (u.dim,):
        raise ValueError("needle value dimension mismatch")
    vals = u.values.copy()
    vals[k0:k1] = p.v
    if k1 == grid.n_cells:
        # the final node carries no cell; keep it consistent with the last cell
        vals[k1] = p.v
    return u.with_values(vals)


def _right_double_kernel_at(
    grid: Grid, alpha: float, beta: float, g_cells: np.ndarray, tau: float
) -> np.ndarray:
    """int_tau^b (s-tau)^(a-1)/G(a) * (b-s)^(b-1)/G(b) * g(s) ds, g cellwise constant.

    Both weakly singular factors are integrated exactly per cell through the
    regularized incomplete Beta function.
    """
    from scipy.special import betainc  # deferred: importing scipy.special costs ~0.3 s at start-up

    span = grid.b - tau
    t = grid.nodes()
    z = ((t - tau) / span).clip(0.0, 1.0)
    cdf = betainc(alpha, beta, z)
    moments = (cdf[1:] - cdf[:-1]) * span ** (alpha + beta - 1.0) / math.gamma(alpha + beta)
    return moments @ g_cells


def needle_sensitivity(spec: ProblemSpec, traj: TrajectoryPair, tau: float, v) -> np.ndarray:
    """Right derivative of the cost under a vanishing needle at tau.

    Returns a scalar (0-d semantics kept as float) via the closed formula:
    weighted Lagrangian gap at tau plus endpoint and adjoint-type terms
    against (v - u(tau)).
    """
    grid = spec.grid
    if not (grid.a < tau < grid.b):
        raise ValueError("needle base point must be interior")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    k = grid.node_index(tau)
    x = traj.state(spec.alpha)
    env = running_env(spec, x, traj.u)
    ep = endpoint_env(spec, x.values[0], x.values[-1])
    u_tau = traj.u.values[k]
    x_tau = x.values[k]

    point_env = {"t": tau}
    for i in range(spec.dim):
        point_env[f"x{i + 1}"] = float(x_tau[i])
    env_u = dict(point_env)
    env_v = dict(point_env)
    for i in range(spec.dim):
        env_u[f"u{i + 1}"] = float(u_tau[i])
        env_v[f"u{i + 1}"] = float(v[i])
    lag_gap = float(evaluate(spec.lagrangian, env_v)) - float(
        evaluate(spec.lagrangian, env_u)
    )
    w_beta = (grid.b - tau) ** (spec.beta - 1.0) / math.gamma(spec.beta)
    w_alpha = (grid.b - tau) ** (spec.alpha - 1.0) / math.gamma(spec.alpha)

    dphi_b = eval_vector(spec.d_phi("xb"), ep)
    d1 = eval_profile(spec.d_lagrangian("x"), env, grid.n_nodes)
    adjoint = np.column_stack(
        [
            _right_double_kernel_at(grid, spec.alpha, spec.beta, d1[:-1, i], tau)
            for i in range(spec.dim)
        ]
    ).ravel()
    return float(w_beta * lag_gap + (w_alpha * dphi_b + adjoint) @ (v - u_tau))


def needle_bounds_check(
    spec: ProblemSpec, traj: TrajectoryPair, p: NeedleParams, radius: float,
    slack: float = 1e-9,
) -> bool:
    """Verify the uniform and pointwise trajectory-deviation bounds of a needle."""
    if traj.u.sup_norm() > radius + slack or float(np.max(np.abs(p.v))) > radius + slack:
        raise ValueError("control or needle value exceeds the radius bound")
    grid = spec.grid
    alpha = spec.alpha
    x = traj.state(alpha)
    x_pert = TrajectoryPair(needle_apply(traj.u, p), traj.y).state(alpha)
    deviation = x_pert.values - x.values
    uniform_bound = 2.0 * radius * p.h**alpha / math.gamma(alpha + 1.0)
    if float(np.max(np.abs(deviation))) > uniform_bound + slack:
        return False

    # pointwise bound on (tau+h, b]
    k0 = grid.node_index(p.tau)
    k1 = grid.node_index(p.tau + p.h)
    t = grid.nodes()
    u_tau = traj.u.values[k0]
    window_mean = traj.u.values[k0:k1].mean(axis=0)
    ga = math.gamma(alpha)
    for k in range(k1 + 1, grid.n_nodes):
        lhs = np.linalg.norm(deviation[k] / p.h - (t[k] - p.tau) ** (alpha - 1.0) / ga * (p.v - u_tau))
        rhs = (t[k] - p.tau) ** (alpha - 1.0) / ga * np.linalg.norm(window_mean - u_tau)
        rhs += 2.0 * radius / ga * ((t[k] - (p.tau + p.h)) ** (alpha - 1.0) - (t[k] - p.tau) ** (alpha - 1.0))
        if lhs > rhs + slack:
            return False
    return True


def y_sensitivity(spec: ProblemSpec, traj: TrajectoryPair, y_dir) -> float:
    """Directional derivative of the cost in the initial value."""
    y_dir = np.atleast_1d(np.asarray(y_dir, dtype=float))
    x = traj.state(spec.alpha)
    env = running_env(spec, x, traj.u)
    ep = endpoint_env(spec, x.values[0], x.values[-1])
    d1 = eval_profile(spec.d_lagrangian("x"), env, spec.grid.n_nodes)
    weights = beta_cell_weights(spec.grid, spec.beta)
    integral = weights @ d1[:-1]
    dphi_a = eval_vector(spec.d_phi("xa"), ep)
    dphi_b = eval_vector(spec.d_phi("xb"), ep)
    return float((dphi_a + dphi_b + integral) @ y_dir)


def penalized_value(
    spec: ProblemSpec, traj: TrajectoryPair, ref_value: float, epsilon: float
) -> float:
    """Ekeland-style penalty: sqrt(((cost - ref + eps)^+)^2 + dist^2 to the target)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    gap = max(bolza_eval(spec, traj) - ref_value + epsilon, 0.0)
    if spec.constraint_map is None:
        feas = 0.0
    else:
        x = traj.state(spec.alpha)
        g = constraint_value(spec, x.values[0], x.values[-1])
        feas = dist(spec.target_set, g)
    return math.hypot(gap, feas)
