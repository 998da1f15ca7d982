"""Direct minimization of the discretized Bolza functional.

The decision variables are the control values on cells (the last node is tied
to its neighbor) together with the initial value y. Endpoint constraints are
handled by a smooth quadratic penalty with an increasing weight schedule, one
stage per epsilon of the Ekeland-style schedule. The inner loop is a
limited-memory quasi-Newton descent with box projection onto the control bound
and an Armijo backtracking search. A trial point whose value rises clearly
above rounding sets the next step by quadratic interpolation, capped at a
fixed factor of the step and with no floor; every other rejected trial (an
evaluation error, a decrease that is not sufficient, a change at rounding
level) multiplies the step by that factor. A later penalty stage starts from
the last stage's value and gradient plus (rho' - rho) dist^2 and its gradient,
with no evaluation.

Trial points are evaluated on plain arrays, not on GridFn or TrajectoryPair
objects: the state x = y + I^alpha[u] is the frac_ops left-sum kernel plus y,
the cost comes from the array kernels that bolza_eval and objective_gradient
wrap, and a non-finite state is a rejected step. The point last given a
gradient is kept in one record: its state, cost, gap to the target set,
distance and Jacobian of g. A later stage starts from it, and the final point
becomes a TrajectoryPair with that state cached and that cost and distance
as its objective and feasibility, so nothing is evaluated after the descent.

Each descent keeps its L-BFGS correction pairs (s, y) in the rows of one block
of memory + 1 rows, allocated once per descent as in the fixed storage of
L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995). The rows
are used cyclically (Nocedal & Wright, Numerical Optimization, sec. 7.2): the
k-th kept pair goes into row k mod (memory + 1), so the history is always
the last kept pairs in the rows just before row k, and row k is free.

The two-loop recursion starts from gamma times the identity, gamma from the
last pair. The decision vector mixes n cell controls of curvature about h with
y of curvature O(1); there the short scaling s.y / y.y (Liu & Nocedal, Math.
Prog. 45, 1989) swings over four decades from pair to pair, while the long
Barzilai-Borwein scaling s.s / s.y (IMA J. Numer. Anal. 8, 1988) stays near
1/h. A descent uses the long one until a long-scaled search fails, a trial
point leaves the integrand's domain or a component is held at its bound, and
the short one for the rest of the descent. The two-metric projection
(Bertsekas, SIAM J. Control Optim. 20, 1982) zeroes each held component in g
before the two-loop recursion and in the direction after it.

A penalty stage's ill-conditioning is known exactly: near the target set the
Hessian of rho dist^2(g, S) is 2 rho A A^T, where A = J^T N has k <= 2 dim
columns, J the constraint Jacobian pulled back to the decision vector and N
the normal basis of S at P_S(g) (Nocedal & Wright, sec. 17.1). So a penalty
stage starts the recursion from H0 = (I / gamma + 2 rho A A^T)^-1, applied by
the Woodbury identity with one k x k solve, and the secant pairs learn only
the rest (the structured quasi-Newton idea of Dennis, Gay & Welsch, ACM TOMS
7, 1981): gamma comes from the cost part y_c = y - 2 rho A A^T s of the last
pair. A is built once per stage from its start point, with its rows on the
held set zeroed, as are the pairs'. The first stage starts from gamma = 1/h,
each later one from the gamma the stage before ended with. A descent without
a penalty keeps H0 = gamma I.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conditions import RegularityError, ResidualReport, build_report
from .convex import normal_cone_basis, project
from .expr import EvalError, Var
from .frac_ops import GridFn, _left_sums
from .functional import _cost, _cost_gradient, _pull_back, objective_gradient
from .model import ProblemSpec, TrajectoryPair, WholeSpace

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
    shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    memory: int = 10

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        eps = tuple(float(e) for e in self.epsilon_schedule)
        if not eps or not all(e > 0 for e in eps) or not all(
            b < a for a, b in zip(eps, eps[1:])
        ):
            raise ValueError("epsilon schedule must be strictly decreasing and positive")
        rho = tuple(float(r) for r in self.penalty_weights)
        if len(rho) != len(eps) or not all(r > 0 for r in rho):
            raise ValueError("penalty weights must be positive, one per epsilon")
        if not (0 < self.shrink < 1 and 0 < self.sufficient_decrease < 1):
            raise ValueError("shrink and sufficient_decrease must be in (0, 1)")
        # max_iters bounds the iterations; memory sizes the descent's block of correction pairs
        for name, least in (("max_iters", 1), ("memory", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
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


# -- penalty plumbing ------------------------------------------------------------


def _controls(spec: ProblemSpec, z: np.ndarray) -> np.ndarray:
    """Control rows of z at every node, in a fresh array; the last node carries
    no cell and repeats the last cell."""
    cells = spec._plan.split(z)[0]
    return np.concatenate((cells, cells[-1:]))


def _traj_from(spec: ProblemSpec, z: np.ndarray) -> TrajectoryPair:
    return TrajectoryPair(GridFn(spec.grid, _controls(spec, z)), spec._plan.split(z)[1])


def _penalized(spec: ProblemSpec, z: np.ndarray, rho: float, last=None):
    """Value of Phi + rho * dist^2 to the target set, and a thunk for its gradient.

    The trial point is evaluated on plain arrays: the control rows u and the
    state x = y + I^alpha[u] (one convolution) are built here, and a
    non-finite u or x raises SolverError, which the line search counts as a
    rejected step. L comes from one compiled running call, phi and g from one
    endpoint call. The line search needs only values; the gradient is
    computed when a trial point is accepted, from the same u and x, and is
    written straight into the vector it returns. The thunk also fills the
    dict last, if given, with this point's state "x", "cost" Phi, "proj"
    P_S(g) and "gap" g - P_S(g) (both None without a penalty), distance
    "feas" = |gap| and "jacobian" [g_a, g_b] of g.
    """
    plan = spec._plan
    u = _controls(spec, z)
    x = _left_sums(u[:-1], spec.alpha, spec.grid)
    x += plan.split(z)[1]
    if not (np.isfinite(u).all() and np.isfinite(x).all()):
        raise SolverError("trial control or state is not finite")
    constrained = spec.constraint_map is not None and rho > 0.0
    proj = gap = None
    feas = 0.0
    if constrained:
        cost, (g_val,) = _cost(plan, x, u, "g")
        proj = project(spec.target_set, g_val)
        gap = g_val - proj  # half the gradient of dist^2
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
            feas = float(np.linalg.norm(gap))
        value = cost + rho * feas * feas
    else:
        value = cost = _cost(plan, x, u)[0]
    if not np.isfinite(value):
        raise SolverError("penalized objective is not finite")

    def gradient():
        if last is not None:
            last.clear()  # the last point's arrays go before this gradient's temporaries
        out = np.empty(z.size)
        *_, jacobian = _cost_gradient(plan, x, u, out, rho * (2.0 * gap) if constrained else None)
        if last is not None:
            last.update(x=x, cost=cost, proj=proj, gap=gap, feas=feas, jacobian=jacobian)
        return out

    return value, gradient


class _Stage:
    """One penalty stage's objective z -> _penalized(spec, z, rho, last), and
    the L-BFGS direction of its descent from the penalty's curvature
    2 rho A A^T (see the module docstring).

    The k rows of A^T, the gradients in z of n . g for the columns n of N,
    are built once, from the record last when the descent first asks: the
    stage's start point. gamma0 scales a direction built without pairs;
    gamma is the scale of the last direction, which solve hands to the next
    stage as its gamma0.
    """

    def __init__(self, spec: ProblemSpec, rho: float, last: dict, gamma0: float):
        self.spec, self.rho, self.last = spec, rho, last
        self.gamma0 = self.gamma = gamma0
        self.normals = None  # the rows of A^T, (k, z.size)

    def __call__(self, z):
        return _penalized(self.spec, z, self.rho, self.last)

    def lbfgs_direction(self, g, history, held, short):
        """H g by the two-loop recursion from initial_matrix. On the held set,
        where g is zero, the pairs are zeroed too (those that then fail
        s . y > 0 are left out), so the recursion and H0 see one problem: that
        of the free components."""
        if held.size:
            reduced = []
            for s, y, _ in history:
                s, y = s.copy(), y.copy()
                s[held] = y[held] = 0.0
                sy = float(s @ y)
                if sy > 0.0:
                    reduced.append((s, y, 1.0 / sy))
            history = reduced
        return _lbfgs_direction(g, history, h0=self.initial_matrix(history, held, short))

    def initial_matrix(self, history, held, short):
        """q -> H0 q, in place, for H0 = (I / gamma + 2 rho A A^T)^-1 with the
        rows of A on held zeroed, by the Woodbury identity
        H0 q = gamma (q - gamma A (I / (2 rho) + gamma A^T A)^-1 A^T q).

        gamma is gamma0 without pairs. Otherwise it comes from the last pair
        (s, y) with the penalty's curvature taken out of y (the structured
        secant idea of Dennis, Gay & Welsch, ACM TOMS 7, 1981),
        y_c = y - 2 rho A A^T s: the long scaling s . s / s . y_c, or the
        short one s . y_c / y_c . y_c if short, or those of (s, y) if
        s . y_c <= 0. H0 is gamma I if A has no columns or the k x k system
        is not finite.
        """
        spec, two_rho = self.spec, 2.0 * self.rho
        if self.normals is None:
            basis = normal_cone_basis(spec.target_set, self.last["proj"])
            # z holds the n_cells control rows and then y: n_nodes rows of dim
            self.normals = np.zeros((basis.shape[1], spec.grid.n_nodes * spec.dim))
            for row, n in zip(self.normals, basis.T):
                _pull_back(spec._plan, self.last["jacobian"], n, row)
        normals = self.normals
        if held.size:
            normals = normals.copy()
            normals[:, held] = 0.0
        gamma = self.gamma0
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite part is caught below
            if history:
                s, y, inv_sy = history[-1]
                y_c = y - two_rho * ((normals @ s) @ normals)
                sy_c, yy_c = float(s @ y_c), float(y_c @ y_c)
                if 0.0 < sy_c and yy_c < math.inf:
                    gamma = sy_c / yy_c if short else float(s @ s) / sy_c
                else:
                    gamma = float(s @ y) / float(y @ y) if short else float(s @ s) * inv_sy
            system = gamma * (normals @ normals.T)
            system.flat[:: len(system) + 1] += 1.0 / two_rho
        self.gamma = gamma
        woodbury = len(system) > 0 and bool(np.isfinite(system).all())

        def apply(q):
            if woodbury:
                c = np.linalg.lstsq(system, normals @ q, rcond=None)[0]
                q -= gamma * (c @ normals)
            q *= gamma
            return q

        return apply


def _bounds(spec: ProblemSpec, z: np.ndarray, radius: float):
    """Bounds (lo, hi = -lo) on the entries of z: |u| <= radius per cell, y free."""
    lo = np.full(z.size, -np.inf)
    spec._plan.split(lo)[0][:] = -radius
    return lo, -lo


def _descend(fun, z, lo, hi, tol, max_iters, cfg: SolverConfig, start=None):
    """Projected limited-memory quasi-Newton descent with backtracking.

    fun(z) returns (value, gradient thunk); the thunk is called only at the
    start point, unless start gives its (value, gradient), and at accepted
    trial points. Accepted steps are strictly non-increasing in the
    objective. After a rejected trial at step s along a descent path whose
    finite value f_t exceeds f by more than 1e3 * eps * |f|, the next step is
    the minimizer of the quadratic through f, the slope g . (z_t - z) and
    f_t, capped at shrink s. That minimizer lies in (0, s / 2) and has no
    lower bound: the unit first step of a penalty stage can overshoot by 1e4
    to 1e8 at large rho, and a floor such as 0.1 s would spend one trial per
    decade. Any other rejection (an EvalError or SolverError, an insufficient
    decrease, a change at rounding level, where the quadratic model is noise)
    multiplies the step by shrink. The line search fails, and the descent
    stops, once a trial point rounds back onto z or the step falls below
    machine epsilon times the unit quasi-Newton step. Returns
    (z, value, gradient, iterations, converged); a stall is not converged,
    since z failed the tolerance at the top of that iteration.

    Directions use the long scaling s . s / s . y, and the short one
    s . y / y . y for the rest of the descent after the first failed
    long-scaled search (the iteration searches once more with the short
    scaling before it stalls), EvalError or SolverError trial, or held
    component at the top of an iteration: z <= lo with g > 0, z >= hi with g < 0.
    Held components are zeroed in g and in d. When fun is a _Stage, its
    lbfgs_direction builds d from the penalty's curvature and the same pairs.

    The history, a deque bounded at cfg.memory, holds (s, y, 1 / (s . y)) of
    the last accepted steps, with s and y views into rows of one (memory + 1,
    2, z.size) block allocated here. Each new pair is written into row k mod
    (memory + 1) and k counts the pairs that pass the curvature test, so the
    history occupies the rows before row k and a reset only clears the deque.
    No step allocates a pair, and the returned arrays never alias the block.
    """
    z = np.clip(z, lo, hi)
    if start is None:
        f, grad = fun(z)
        g = grad()
    else:
        f, g = start
    eps = np.finfo(float).eps
    history = deque(maxlen=cfg.memory)  # (s, y, 1 / (s . y)) of the last accepted steps
    pairs = np.empty((cfg.memory + 1, 2, z.size))
    k = 0  # pairs kept so far; row k mod (memory + 1) holds none of the history
    it = 0
    short = False  # once set, the short scaling for the rest of the descent
    while True:
        converged = float(np.linalg.norm(z - np.clip(z - g, lo, hi))) <= tol
        if converged or it >= max_iters:
            return z, f, g, it, converged
        # a component held at its bound clips the long step out of shape
        held = np.flatnonzero((z <= lo) & (g > 0) | (z >= hi) & (g < 0))
        short = short or held.size > 0
        free_g = g.copy() if held.size else g
        free_g[held] = 0.0  # no copy of g and no write while nothing is held
        if isinstance(fun, _Stage):
            d = -fun.lbfgs_direction(free_g, history, held, short)
        else:
            d = -(_lbfgs_direction(free_g, history, short=True) if short
                  else _lbfgs_direction(free_g, history))
        d[held] = 0.0
        if float(d @ g) >= 0.0:
            d = -g
            history.clear()
        retry = not short and bool(history)  # the long scaling shaped d
        step = 1.0
        accepted = False
        while step >= eps:
            z_new = np.clip(z + step * d, lo, hi)
            if np.array_equal(z_new, z):
                break  # the Armijo test would pass as 0 <= 0 with no progress
            slope = float(g @ (z_new - z))
            rise = math.nan
            try:
                f_new, grad = fun(z_new)
                if f_new <= f + cfg.sufficient_decrease * slope:
                    g_new = grad()
                    accepted = True
                    break
                rise = f_new - f
            except (SolverError, EvalError):
                # a trial point outside the integrand's domain is a rejected
                # step, and long steps into a barrier stall early
                short = True
            # a rise within 1e3 * eps * |f| is rounding noise of the summed
            # objective, and a quadratic fitted through it is noise too
            if slope < 0.0 and 1e3 * eps * abs(f) < rise < math.inf:
                # minimizer of the quadratic through f, the slope and f_new,
                # capped at shrink times the step (Nocedal & Wright, Numerical
                # Optimization, sec. 3.5; Dennis & Schnabel, A6.3.1)
                t = 0.5 * slope * step / (slope - rise)
                step = min(t, cfg.shrink * step)
            else:
                step *= cfg.shrink
        if not accepted and retry:
            short = True  # search this iteration again, once, with the short scaling
            continue
        it += 1
        if not accepted:
            return z, f, g, it, False
        s, yv = pairs[k % len(pairs)]
        np.subtract(z_new, z, out=s)
        np.subtract(g_new, g, out=yv)
        sy = float(s @ yv)
        if sy > 1e-14 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            history.append((s, yv, 1.0 / sy))
            k += 1
        z, f, g = z_new, f_new, g_new


def _lbfgs_direction(g, history, short=False, h0=None):
    """Two-loop recursion for H g. H0 is h0, a map q -> H0 q in place, if
    given; otherwise gamma I from the last pair: the long scaling s . s / s . y,
    or the short one s . y / y . y if short."""
    q = g.copy()
    tmp = np.empty_like(q)  # one scratch vector for every a*y and (a-b)*s
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        alphas.append((a, rho, s, y))
        q -= np.multiply(a, y, out=tmp)
    if h0 is not None:
        q = h0(q)
    elif history:
        s, y, rho = history[-1]
        q *= float(s @ y) / float(y @ y) if short else float(s @ s) * rho
    for a, rho, s, y in reversed(alphas):
        b = rho * float(y @ q)
        q += np.multiply(a - b, s, out=tmp)
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
    z = np.concatenate([initial.u.values[:-1].ravel(), initial.y])
    lo, hi = _bounds(spec, z, config.radius)
    # the distance to the whole space is identically zero: no penalty stages
    constrained = spec.constraint_map is not None and not isinstance(spec.target_set, WholeSpace)
    stages = list(zip(config.epsilon_schedule, config.penalty_weights))
    if not constrained:
        stages = stages[-1:]
    total_iters = 0
    converged = False
    last = {}  # the point last given a gradient, as _penalized records it
    start = None  # value and gradient handed on to the next stage
    gamma = 1.0 / spec.grid.h  # the scale the long scaling settles at; then handed on
    for eps, rho in stages:
        tol = max(1e-7, math.sqrt(eps) * 1e-3)  # the floor binds only for eps < 1e-8
        budget = config.max_iters - total_iters
        if budget <= 0:
            converged = False  # a skipped stage never reached its tolerance
            break
        if start is not None:
            # the last stage ended on the last point given a gradient, where
            # only rho has changed: add (rho - rho_last) dist^2 and its gradient
            f, g = start
            gap = last["gap"]
            _pull_back(spec._plan, last["jacobian"], (rho - rho_last) * (2.0 * gap), g)
            start = f + (rho - rho_last) * float(gap @ gap), g
        if constrained:
            fun = _Stage(spec, rho, last, gamma)
        else:
            fun = lambda zz: _penalized(spec, zz, 0.0, last)
        z, f, g, used, converged = _descend(fun, z, lo, hi, tol, budget, config, start)
        if constrained:
            gamma = fun.gamma
        start, rho_last = (f, g), rho
        total_iters += used
    traj = _traj_from(spec, z)
    # z is the last point given a gradient: its state has the bytes that
    # TrajectoryPair.state would compute, so no convolution rebuilds it
    traj._states[spec.alpha] = GridFn(spec.grid, last["x"])
    try:
        report = build_report(spec, traj)
    except RegularityError as exc:
        exc.traj = traj
        raise
    return SolveResult(
        traj=traj,
        objective=last["cost"],
        feasibility_distance=last["feas"],
        report=report,
        iterations=total_iters,
        converged=converged,
    )


def nonexistence_diagnostic(spec: ProblemSpec, result: SolveResult) -> dict:
    """Flag candidates whose endpoint condition at b is structurally unsatisfiable.

    For alpha < 1 with beta > alpha the right integral in the endpoint
    condition vanishes identically, so a nonzero gradient of phi in its second
    argument rules out any trajectory satisfying the necessary conditions.
    """
    if not (spec.alpha < 1.0 and spec.beta > spec.alpha):
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
