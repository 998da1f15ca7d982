"""Computable first- and second-order necessary-condition residuals.

Everything is reported in integrated form so that no weakly singular quantity
is differentiated numerically. The residuals vanish (up to quadrature error)
exactly when the candidate satisfies the Euler-Lagrange equation, the
transversality conditions (with multiplier when endpoint constraints are
present) and the weighted Legendre condition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .convex import in_normal_cone, normal_cone_basis, project
from .frac_ops import GridFn, _cell_moments, rl_integral_right
from .model import ProblemSpec, TrajectoryPair

__all__ = [
    "ResidualReport",
    "RegularityError",
    "el_residual",
    "transversality_residuals",
    "extract_multiplier",
    "legendre_check",
    "rigidity_probe",
    "moments",
    "build_report",
]

DEFAULT_LEGENDRE_TOL = 1e-10
REGULARITY_SV_TOL = 1e-8


class RegularityError(ValueError):
    """The endpoint-constraint Jacobian is not surjective at the candidate.

    solve attaches its candidate as traj, so a caller can still keep it."""

    traj = None


@dataclass(frozen=True, kw_only=True)
class ResidualReport:
    """All necessary-condition residuals of one candidate trajectory."""

    el_residual_sup: float
    el_residual_profile: GridFn
    transversality_a: float
    transversality_b: float
    legendre_min_eig_profile: np.ndarray
    legendre_ok: bool
    psi: Optional[np.ndarray] = None
    psi_in_cone: Optional[bool] = None
    adjoint_p: GridFn

    def to_dict(self) -> dict:
        """Every field in declaration order, arrays and grid functions as nested lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, GridFn):
                value = value.values
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# -- shared profiles -------------------------------------------------------------


def _right_terms(spec: ProblemSpec, traj: TrajectoryPair, ends: bool = True):
    """d1L, iw = I^(1-alpha)_right[weight * d2L] and, if ends, the endpoint parts
    phi_a, phi_b (then g, g_a, g_b when constrained) from one plan call: what the
    EL residual, the multiplier, transversality and the adjoint share."""
    plan = spec._plan
    x = traj.state(spec.alpha).values
    d1, d2 = plan.running(x, traj.u.values, "L_x", "L_u")
    w = GridFn(spec.grid, plan.node_weights(spec.beta)[:, None] * d2)
    parts = ("phi_a", "phi_b") + (() if spec.constraint_map is None else ("g", "g_a", "g_b"))
    endpoint = plan.endpoint(x[0], x[-1], *parts) if ends else None
    return d1, rl_integral_right(w, 1.0 - spec.alpha), endpoint


def _el_profile(spec: ProblemSpec, d1: np.ndarray, iw: GridFn):
    # tail(t) = int_t^b (b-s)^(beta-1)/Gamma(beta) d1L(s) ds at every node t
    cells = spec._plan.w_beta[:, None] * d1[:-1]
    tail = np.zeros_like(d1)
    tail[:-1] = np.cumsum(cells[::-1], axis=0)[::-1]
    r = iw.values - iw.values[-1] + tail
    return GridFn(spec.grid, r), float(np.max(np.abs(r)))


def _transversality(spec: ProblemSpec, iw: GridFn, ends: list, psi=None):
    vec_a = iw.values[0] - ends[0]
    vec_b = iw.values[-1] + ends[1]
    if psi is not None:
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        if psi.shape != (spec.n_constraints,):
            raise ValueError(
                f"psi has shape {psi.shape}, problem has {spec.n_constraints} constraints"
            )
        if spec.constraint_map is not None:  # an empty psi of a free problem adds nothing
            ga, gb = ends[3:]
            vec_a = vec_a + ga.T @ psi
            vec_b = vec_b - gb.T @ psi
    return float(np.linalg.norm(vec_a)), float(np.linalg.norm(vec_b))


def _multiplier(spec: ProblemSpec, iw: GridFn, ends: list):
    dphi_a, dphi_b, g_val, ga, gb = ends
    dg = np.hstack([ga, gb])
    sv = np.linalg.svd(dg, compute_uv=False)
    if sv.size == 0 or sv[-1] < REGULARITY_SV_TOL:
        raise RegularityError(
            f"constraint Jacobian is rank deficient (smallest singular value {sv[-1] if sv.size else 0.0:.2e})"
        )
    g_feas = project(spec.target_set, g_val)
    basis = normal_cone_basis(spec.target_set, g_feas)
    system = np.vstack([ga.T, -gb.T])
    rhs = np.concatenate([dphi_a - iw.values[0], -(dphi_b + iw.values[-1])])
    coeffs, *_ = np.linalg.lstsq(system @ basis, rhs, rcond=None)
    psi = basis @ coeffs
    # the cone test runs at the nearest feasible point so slightly infeasible
    # numerical candidates still get a meaningful verdict
    cone_ok = in_normal_cone(spec.target_set, g_feas, -psi, tol=1e-6)
    return psi, cone_ok, _transversality(spec, iw, ends, psi)


# -- the residuals ---------------------------------------------------------------


def el_residual(spec: ProblemSpec, traj: TrajectoryPair):
    """Integrated Euler-Lagrange residual profile and its sup norm.

    r(t) = I^(1-alpha)_right[w](t) - I^(1-alpha)_right[w](b)
           + int_t^b (b-s)^(beta-1)/Gamma(beta) d1L(s) ds,
    which vanishes identically along stationary trajectories.
    """
    d1, iw, _ = _right_terms(spec, traj, ends=False)
    return _el_profile(spec, d1, iw)


def transversality_residuals(spec: ProblemSpec, traj: TrajectoryPair, psi=None):
    """Norms of the endpoint stationarity defects at a and b.

    With psi omitted the unconstrained form is checked; otherwise the
    constraint Jacobians enter with the multiplier. The right integral at b
    is exactly zero for alpha < 1, so that residual reduces bitwise to the
    norm of the phi/constraint terms.
    """
    _, iw, ends = _right_terms(spec, traj)
    return _transversality(spec, iw, ends, psi)


def extract_multiplier(spec: ProblemSpec, traj: TrajectoryPair):
    """Least-squares multiplier for the constrained transversality system.

    Solves the 2n stacked endpoint equations for psi restricted to the span
    of the normal cone at g(x(a), x(b)), then checks -psi against the cone.
    Returns (psi, cone_ok, (residual_a, residual_b)).
    """
    if spec.constraint_map is None:
        raise ValueError("problem has no endpoint constraints")
    _, iw, ends = _right_terms(spec, traj)
    return _multiplier(spec, iw, ends)


def legendre_check(spec: ProblemSpec, traj: TrajectoryPair, tol: float = DEFAULT_LEGENDRE_TOL):
    """Minimum-eigenvalue profile of the weighted control Hessian of L.

    The node t=a is never checked (almost-everywhere condition) and t=b is
    skipped when beta < 1 (unbounded weight); skipped entries replicate the
    nearest checked value so the profile stays plottable. Returns
    (profile, min over checked nodes >= -tol).
    """
    x = traj.state(spec.alpha)
    (hess,) = spec._plan.running(x.values, traj.u.values, "L_uu")
    n_nodes = spec.grid.n_nodes
    weight = spec._plan.node_weights(spec.beta)
    sym = 0.5 * (hess + np.transpose(hess, (0, 2, 1)))
    # one eigenproblem when L_uu does not vary; a NaN fails the test and takes the batched path
    low = np.linalg.eigvalsh(sym[0])[0] if (sym == sym[0]).all() else np.linalg.eigvalsh(sym)[:, 0]
    eigs = low * weight
    lo, hi = 1, n_nodes if spec.beta >= 1.0 else n_nodes - 1
    profile = eigs.copy()
    profile[0] = eigs[lo]
    if hi < n_nodes:
        profile[hi:] = eigs[hi - 1]
    ok = bool(np.min(eigs[lo:hi]) >= -tol)
    return GridFn(spec.grid, profile), ok


# -- memory rigidity probe -------------------------------------------------------


def rigidity_probe(
    alpha: float,
    u_left: GridFn,
    window,
    fit_degree: int = 0,
) -> float:
    """Sup-norm defect of a polynomial fit to the memory term on a window.

    Psi(t) = int_a^c (t-s)^(alpha-1)/Gamma(alpha) u_left(s) ds is evaluated at
    200 evenly spaced points of [c, d] (c = right end of u_left's grid, so the
    kernel is nonsingular) and fitted by a degree fit_degree polynomial in
    least squares. The residual is zero only for u_left identically zero.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"need alpha in (0,1), got {alpha}")
    c, d = float(window[0]), float(window[1])
    grid = u_left.grid
    if not (grid.b <= c < d):
        raise ValueError(f"window [{c}, {d}] must sit right of the data interval")
    if fit_degree < 0:
        raise ValueError("fit_degree must be nonnegative")
    t_eval = np.linspace(c, d, 200)
    # exact cell moments of the kernel: shape (200, n_cells)
    gaps = t_eval[:, None] - grid.nodes()[None, :]
    psi = _cell_moments(gaps[:, :-1], gaps[:, 1:], alpha) @ u_left.values[:-1]
    # centered abscissa keeps the Vandermonde fit well conditioned
    tc = (t_eval - 0.5 * (c + d)) / (0.5 * (d - c))
    vand = np.vander(tc, fit_degree + 1)
    coeffs, *_ = np.linalg.lstsq(vand, psi, rcond=None)
    return float(np.max(np.abs(psi - vand @ coeffs)))


def moments(u_left: GridFn, max_k: int) -> np.ndarray:
    """Monomial moments int_a^c (s-a)^k u(s) ds for k = 0..max_k."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    grid = u_left.grid
    s = grid.nodes() - grid.a
    out = np.empty((max_k + 1, u_left.dim))
    for k in range(max_k + 1):
        cell = (s[1:] ** (k + 1) - s[:-1] ** (k + 1)) / (k + 1)
        out[k] = cell @ u_left.values[:-1]
    return out[:, 0] if u_left.dim == 1 else out


# -- assembled report ------------------------------------------------------------


def _adjoint_profile(spec: ProblemSpec, d1: np.ndarray, ends: list, psi) -> GridFn:
    """Adjoint vector p combining the endpoint weight and the memory term.

    The t=b node is zeroed when alpha < 1 (unbounded kernel weight there)."""
    plan = spec._plan
    weighted_d1 = GridFn(spec.grid, plan.node_weights(spec.beta)[:, None] * d1)
    memory = rl_integral_right(weighted_d1, spec.alpha)
    endpoint = ends[1]
    if psi is not None:
        endpoint = endpoint - ends[4].T @ np.asarray(psi, dtype=float)
    w_alpha = plan.node_weights(spec.alpha)[:, None]
    return GridFn(spec.grid, w_alpha * endpoint[None, :] + memory.values)


def build_report(spec: ProblemSpec, traj: TrajectoryPair) -> ResidualReport:
    """Every residual of one candidate, from two right integrals and one endpoint call."""
    d1, iw, ends = _right_terms(spec, traj)
    profile, sup = _el_profile(spec, d1, iw)
    psi = cone_ok = None
    if spec.constraint_map is not None:
        psi, cone_ok, (res_a, res_b) = _multiplier(spec, iw, ends)
    else:
        res_a, res_b = _transversality(spec, iw, ends)
    leg_profile, leg_ok = legendre_check(spec, traj)
    return ResidualReport(
        el_residual_sup=sup,
        el_residual_profile=profile,
        transversality_a=res_a,
        transversality_b=res_b,
        legendre_min_eig_profile=leg_profile.values[:, 0],
        legendre_ok=leg_ok,
        adjoint_p=_adjoint_profile(spec, d1, ends, psi),
        psi=psi,
        psi_in_cone=cone_ok,
    )
