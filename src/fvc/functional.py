"""Evaluation and sensitivity analysis of the fractional Bolza functional.

The cost is phi(x(a), x(b)) + I^beta[L(x, u, .)](b). All quadrature treats
integrands as piecewise-constant on cells (left value) and integrates the
weight (b-s)^(beta-1) exactly over each cell, which stays valid for beta < 1
where the weight is unbounded at b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import dist
from .frac_ops import Grid, GridFn, beta_cell_weights
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


def constraint_value(spec: ProblemSpec, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    return spec._plan.endpoint(xa, xb, "g")[0]


# -- the functional and its differentials ---------------------------------------


def bolza_eval(spec: ProblemSpec, traj: TrajectoryPair) -> float:
    """phi(x(a), x(b)) + I^beta[L](b) for x reconstructed from (u, y)."""
    plan = spec._plan
    x = traj.state(spec.alpha)
    (lag,) = plan.running(x, traj.u, "L")
    integral = float(plan.w_beta @ lag[:-1])
    (mayer,) = plan.endpoint(x.values[0], x.values[-1], "phi")
    return mayer + integral


def gateaux_first(spec: ProblemSpec, traj: TrajectoryPair, eta: TrajectoryPair) -> float:
    """First directional differential along the variation eta = (cD eta, eta(a))."""
    plan = spec._plan
    x = traj.state(spec.alpha)
    eta_x = eta.state(spec.alpha)
    d1, d2 = plan.running(x, traj.u, "L_x", "L_u")
    integrand = np.sum(d1 * eta_x.values + d2 * eta.u.values, axis=1)
    integral = float(plan.w_beta @ integrand[:-1])
    dphi_a, dphi_b = plan.endpoint(x.values[0], x.values[-1], "phi_a", "phi_b")
    return float(dphi_a @ eta_x.values[0] + dphi_b @ eta_x.values[-1]) + integral


def second_diff_data(spec: ProblemSpec, traj: TrajectoryPair) -> SecondDiffData:
    plan = spec._plan
    x = traj.state(spec.alpha)
    A, B, C = plan.endpoint(x.values[0], x.values[-1], "phi_aa", "phi_ab", "phi_bb")
    P, Q, Rmat = plan.running(x, traj.u, "L_xx", "L_xu", "L_uu")
    return SecondDiffData(A=A, B=B, C=C, P=P, Q=Q, Rmat=Rmat)


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
    return endpoint + float(spec._plan.w_beta @ quad[:-1])


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
    plan = spec._plan
    x = traj.state(spec.alpha)
    u_tau = traj.u.values[k]
    point = (tau, *map(float, x.values[k]))
    lagrangian, _ = plan.group(("L",))
    lag_gap = float(lagrangian(*point, *map(float, v))[0]) - float(
        lagrangian(*point, *map(float, u_tau))[0]
    )
    w_beta = (grid.b - tau) ** (spec.beta - 1.0) / math.gamma(spec.beta)
    w_alpha = (grid.b - tau) ** (spec.alpha - 1.0) / math.gamma(spec.alpha)

    (dphi_b,) = plan.endpoint(x.values[0], x.values[-1], "phi_b")
    (d1,) = plan.running(x, traj.u, "L_x")
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
    plan = spec._plan
    x = traj.state(spec.alpha)
    (d1,) = plan.running(x, traj.u, "L_x")
    integral = plan.w_beta @ d1[:-1]
    dphi_a, dphi_b = plan.endpoint(x.values[0], x.values[-1], "phi_a", "phi_b")
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
