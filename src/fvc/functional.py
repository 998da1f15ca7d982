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
from .frac_ops import Grid, GridFn, _left_sums, beta_cell_weights
from .model import ProblemSpec, TrajectoryPair, WholeSpace

__all__ = [
    "NeedleParams",
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


def constraint_value(spec: ProblemSpec, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    return spec._plan.endpoint(xa, xb, "g")[0]


# -- the functional and its differentials ---------------------------------------


def _cost(plan, x: np.ndarray, u: np.ndarray, *parts) -> tuple:
    """phi(x(a), x(b)) + I^beta[L](b) on the (n_nodes, dim) arrays x and u.

    Returns (value, [the endpoint parts named in parts]); phi and those parts
    come from one compiled endpoint call.
    """
    (lag,) = plan.running(x, u, "L")
    integral = float(plan.w_beta @ lag[:-1])
    mayer, *extra = plan.endpoint(x[0], x[-1], "phi", *parts)
    return mayer + integral, extra


def _cost_gradient(plan, x: np.ndarray, u: np.ndarray, out: np.ndarray, outer=None):
    """Gradient of the cost in the cell controls and y, written into out.

    out is laid out as plan.split reads it; the views (grad_u, grad_y) into it
    are returned. It is the exact transpose of the linear maps inside the
    first Gateaux differential, so grad . delta reproduces gateaux_first(delta)
    to rounding. When outer is given, the gradient of outer . g(x(a), x(b)) is
    added by _pull_back, with the Jacobian [g_a, g_b] taken from the same
    endpoint call as the gradient of phi; that Jacobian is returned third (an
    empty list without outer).
    """
    spec = plan.spec
    grad_u, grad_y = plan.split(out)
    d1, d2 = plan.running(x, u, "L_x", "L_u")
    ends = ("phi_a", "phi_b") if outer is None else ("phi_a", "phi_b", "g_a", "g_b")
    dphi_a, dphi_b, *jacobian = plan.endpoint(x[0], x[-1], *ends)
    w_beta = plan.w_beta[:, None]
    weighted_d1 = w_beta * d1[:-1]
    np.multiply(w_beta, d2[:-1], out=grad_u)
    grad_u += plan.w_alpha_rev * dphi_b[None, :]
    # transpose of the causal fractional-integral map: cell j collects the
    # downstream contributions of d1L at cells j+1..n-1
    grad_u[:-1] += _left_sums(weighted_d1[:0:-1], spec.alpha, spec.grid)[:0:-1]
    grad_y[:] = dphi_a + dphi_b + weighted_d1.sum(axis=0)
    if outer is not None:
        _pull_back(plan, jacobian, outer, out)
    return grad_u, grad_y, jacobian


def objective_gradient(spec: ProblemSpec, traj: TrajectoryPair):
    """Gradient of the discrete cost in (u, y).

    It is the exact transpose of the linear maps inside the first Gateaux
    differential, so grad . delta reproduces gateaux_first(delta) to rounding.
    The last control node does not enter the quadrature; its entry is zero.
    """
    out = np.empty(spec.grid.n_cells * spec.dim + spec.dim)
    x = traj.state(spec.alpha).values
    grad_cells, grad_y, _ = _cost_gradient(spec._plan, x, traj.u.values, out)
    grad_u = np.zeros_like(traj.u.values)
    grad_u[:-1] = grad_cells
    return GridFn(spec.grid, grad_u), grad_y


def _pull_back(plan, jacobian, outer, out):
    """Add the gradient of outer . g(x(a), x(b)) in (u, y) to out, laid out as
    in _cost_gradient, from the Jacobian [g_a, g_b] of g at the endpoints."""
    ga, gb = jacobian
    pull_a = ga.T @ outer  # d/dxa, and xa = y
    pull_b = gb.T @ outer  # d/dxb; xb = y + sum_j w_alpha[n-1-j] u_j
    grad_u, grad_y = plan.split(out)
    grad_u += plan.w_alpha_rev * pull_b[None, :]
    grad_y += pull_a + pull_b


def bolza_eval(spec: ProblemSpec, traj: TrajectoryPair) -> float:
    """phi(x(a), x(b)) + I^beta[L](b) for x reconstructed from (u, y)."""
    x = traj.state(spec.alpha)
    return _cost(spec._plan, x.values, traj.u.values)[0]


def gateaux_first(spec: ProblemSpec, traj: TrajectoryPair, eta: TrajectoryPair) -> float:
    """First directional differential along the variation eta = (cD eta, eta(a))."""
    plan = spec._plan
    x = traj.state(spec.alpha)
    eta_x = eta.state(spec.alpha)
    d1, d2 = plan.running(x.values, traj.u.values, "L_x", "L_u")
    integrand = np.sum(d1 * eta_x.values + d2 * eta.u.values, axis=1)
    integral = float(plan.w_beta @ integrand[:-1])
    dphi_a, dphi_b = plan.endpoint(x.values[0], x.values[-1], "phi_a", "phi_b")
    return float(dphi_a @ eta_x.values[0] + dphi_b @ eta_x.values[-1]) + integral


def gateaux_second(spec: ProblemSpec, traj: TrajectoryPair, eta: TrajectoryPair) -> float:
    """Second directional differential (quadratic form in eta): the Hessian
    blocks of phi (A, B, C) and of L (P, Q, R) along traj, applied to eta."""
    plan = spec._plan
    x = traj.state(spec.alpha).values
    A, B, C = plan.endpoint(x[0], x[-1], "phi_aa", "phi_ab", "phi_bb")
    P, Q, R = plan.running(x, traj.u.values, "L_xx", "L_xu", "L_uu")
    eta_x = eta.state(spec.alpha).values
    nu = eta.u.values
    ea, eb = eta_x[0], eta_x[-1]
    endpoint = float(ea @ A @ ea + 2.0 * ea @ B @ eb + eb @ C @ eb)
    quad = (
        np.einsum("ki,kij,kj->k", eta_x, P, eta_x)
        + 2.0 * np.einsum("ki,kij,kj->k", eta_x, Q, nu)
        + np.einsum("ki,kij,kj->k", nu, R, nu)
    )
    return endpoint + float(plan.w_beta @ quad[:-1])


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
    (d1,) = plan.running(x.values, traj.u.values, "L_x")
    adjoint = np.column_stack(
        [
            _right_double_kernel_at(grid, spec.alpha, spec.beta, d1[:-1, i], tau)
            for i in range(spec.dim)
        ]
    ).ravel()
    return float(w_beta * lag_gap + (w_alpha * dphi_b + adjoint) @ (v - u_tau))


def needle_bounds_check(
    spec: ProblemSpec, traj: TrajectoryPair, p: NeedleParams, radius: float
) -> bool:
    """Verify the uniform and pointwise trajectory-deviation bounds of a needle."""
    slack = 1e-9  # absolute, in every bound test
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

    # pointwise bound at the nodes in (tau+h, b]
    k0 = grid.node_index(p.tau)
    k1 = grid.node_index(p.tau + p.h)
    t = grid.nodes()[k1 + 1 :]
    u_tau = traj.u.values[k0]
    window_mean = traj.u.values[k0:k1].mean(axis=0)
    ga = math.gamma(alpha)
    kernel = (t - p.tau) ** (alpha - 1.0)
    lhs = np.linalg.norm(deviation[k1 + 1 :] / p.h - (kernel / ga)[:, None] * (p.v - u_tau), axis=1)
    rhs = kernel / ga * np.linalg.norm(window_mean - u_tau)
    rhs += 2.0 * radius / ga * ((t - (p.tau + p.h)) ** (alpha - 1.0) - kernel)
    return not np.any(lhs > rhs + slack)  # a NaN compares false, so it fails no node


def y_sensitivity(spec: ProblemSpec, traj: TrajectoryPair, y_dir) -> float:
    """Directional derivative of the cost in the initial value."""
    grad_y = objective_gradient(spec, traj)[1]
    return float(grad_y @ np.atleast_1d(np.asarray(y_dir, dtype=float)))


def penalized_value(
    spec: ProblemSpec, traj: TrajectoryPair, ref_value: float, epsilon: float
) -> float:
    """Ekeland-style penalty: sqrt(((cost - ref + eps)^+)^2 + dist^2 to the target)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x, u = traj.state(spec.alpha).values, traj.u.values
    if spec.constraint_map is None or isinstance(spec.target_set, WholeSpace):
        cost, feas = _cost(spec._plan, x, u)[0], 0.0
    else:
        cost, (g_val,) = _cost(spec._plan, x, u, "g")
        feas = dist(spec.target_set, g_val)
    return math.hypot(max(cost - ref_value + epsilon, 0.0), feas)
