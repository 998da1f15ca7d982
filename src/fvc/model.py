"""Problem definition and trajectory representation.

A problem couples a fractional differentiation order alpha, a cost-weight
order beta, a Mayer cost phi(xa, xb), a Lagrangian L(x, u, t) and optional
mixed endpoint constraints g(xa, xb) in S for a closed convex S. Candidate
trajectories are stored as the pair (u, y) with x(t) = y + I^alpha[u](t), so
the Caputo-derivative relation u = cD^alpha[x] holds by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .expr import Expr, compile_group, differentiate, free_variables, parse
from .frac_ops import Grid, GridFn, _kernel, beta_cell_weights, reconstruct_trajectory

__all__ = [
    "ConvexSet",
    "WholeSpace",
    "Singleton",
    "Box",
    "Ball",
    "Product",
    "ProblemSpec",
    "TrajectoryPair",
    "validate",
    "standard_constraint",
]


# -- closed convex target sets -------------------------------------------------


class ConvexSet:
    """Base of the closed convex sets supported as constraint targets."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class WholeSpace(ConvexSet):
    n: int

    @property
    def dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class Singleton(ConvexSet):
    point: tuple

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(float(p) for p in self.point))
        if not all(math.isfinite(p) for p in self.point):
            raise ValueError("singleton point must be finite")

    @property
    def dim(self) -> int:
        return len(self.point)


@dataclass(frozen=True)
class Box(ConvexSet):
    """Componentwise bounds; +-inf entries encode axis-aligned half-spaces."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise ValueError("box bounds must have equal length")
        if any(not (l <= u) for l, u in zip(lo, hi)):  # NaN fails this too
            raise ValueError("box requires lower <= upper componentwise")

    @property
    def dim(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class Ball(ConvexSet):
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("ball center must be finite")
        if not self.radius >= 0:  # NaN fails this too
            raise ValueError(f"ball radius must be nonnegative, got {self.radius}")

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class Product(ConvexSet):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("product of zero sets")

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)


# -- problem and trajectory ----------------------------------------------------

# bounded, so a long-lived process that meets many problems does not grow without
# limit; one 3-D problem with its Hessians takes under 60 entries
_diff = functools.lru_cache(maxsize=1024)(differentiate)


def _gradient(e: Expr, dim: int, stem: str) -> tuple:
    """Partial derivatives of e with respect to stem1..stem<dim>."""
    return tuple(_diff(e, f"{stem}{i + 1}") for i in range(dim))


def _hessian(e: Expr, dim: int, stem_row: str, stem_col: str) -> tuple:
    return tuple(_gradient(r, dim, stem_col) for r in _gradient(e, dim, stem_row))


@dataclass(frozen=True)
class ProblemSpec:
    """Bolza problem data: orders, grid, costs and endpoint constraints."""

    alpha: float
    beta: float
    grid: Grid
    dim: int
    phi: Expr
    lagrangian: Expr
    constraint_map: Optional[tuple] = None  # tuple of Expr in (xa, xb)
    target_set: Optional[ConvexSet] = None

    def __post_init__(self):
        if self.constraint_map is not None:
            object.__setattr__(self, "constraint_map", tuple(self.constraint_map))

    @property
    def n_constraints(self) -> int:
        return 0 if self.constraint_map is None else len(self.constraint_map)

    # cached partial-derivative trees; indices follow the 1-based variables
    def d_phi(self, stem: str) -> tuple:
        """Gradient of phi with respect to xa ('xa') or xb ('xb')."""
        return _gradient(self.phi, self.dim, stem)

    def d2_phi(self, stem_row: str, stem_col: str) -> tuple:
        return _hessian(self.phi, self.dim, stem_row, stem_col)

    def d_lagrangian(self, stem: str) -> tuple:
        """Gradient of L with respect to x ('x') or u ('u')."""
        return _gradient(self.lagrangian, self.dim, stem)

    def d2_lagrangian(self, stem_row: str, stem_col: str) -> tuple:
        return _hessian(self.lagrangian, self.dim, stem_row, stem_col)

    def d_constraints(self, stem: str) -> tuple:
        """Jacobian rows of g with respect to xa or xb (shape j x n)."""
        if self.constraint_map is None:
            return ()
        return tuple(_gradient(g, self.dim, stem) for g in self.constraint_map)

    @functools.cached_property
    def _plan(self) -> "_Plan":
        """Compiled evaluation of this problem, built on first use and kept
        like TrajectoryPair.state; dataclasses.replace gives a new plan."""
        return _Plan(self)

    def __getstate__(self):
        # the plan holds generated functions, which do not pickle
        return {k: v for k, v in self.__dict__.items() if k != "_plan"}


# The parts of a problem that a plan evaluates: name -> ProblemSpec field or method, arguments.
_PARTS = {
    "L": ("lagrangian",), "L_x": ("d_lagrangian", "x"), "L_u": ("d_lagrangian", "u"),
    "L_xx": ("d2_lagrangian", "x", "x"), "L_xu": ("d2_lagrangian", "x", "u"),
    "L_uu": ("d2_lagrangian", "u", "u"),
    "phi": ("phi",), "phi_a": ("d_phi", "xa"), "phi_b": ("d_phi", "xb"),
    "phi_aa": ("d2_phi", "xa", "xa"), "phi_ab": ("d2_phi", "xa", "xb"),
    "phi_bb": ("d2_phi", "xb", "xb"),
    "g": ("constraint_map",), "g_a": ("d_constraints", "xa"), "g_b": ("d_constraints", "xb"),
}


def _variable_names(dim: int) -> tuple:
    """Running names (t, x1..xn, u1..un) and endpoint names (xa1..xan, xb1..xbn)."""
    n = range(1, dim + 1)
    running = ("t", *(f"x{i}" for i in n), *(f"u{i}" for i in n))
    return running, (*(f"xa{i}" for i in n), *(f"xb{i}" for i in n))


class _Plan:
    """How one problem is evaluated: grid weights and compiled expression groups.

    A group evaluates a tuple of _PARTS names with one function of compile_group,
    built on first use; parts of L take t, x1..xn, u1..un, the others xa1..xan, xb1..xbn.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.nodes = spec.grid.nodes()
        self._running, self._endpoint = _variable_names(spec.dim)
        self._groups = {}
        self._node_weights = {}

    def split(self, vec: np.ndarray) -> tuple:
        """Views (cells, y) of a decision vector, which holds the n_cells * dim
        cell controls row by row and then y; cells has shape (n_cells, dim)."""
        n_u = self.spec.grid.n_cells * self.spec.dim
        return vec[:n_u].reshape(-1, self.spec.dim), vec[n_u:]

    @functools.cached_property
    def w_beta(self) -> np.ndarray:
        """The weight of each cell in I^beta[.](b) (beta_cell_weights)."""
        return beta_cell_weights(self.spec.grid, self.spec.beta)

    def node_weights(self, order: float) -> np.ndarray:
        """(b-t)^(order-1)/Gamma(order) at the nodes, read-only and cached per order;
        the t=b entry, unbounded for order < 1, is zeroed (no quadrature reads it)."""
        w = self._node_weights.get(order)
        if w is None:
            gaps = (self.spec.grid.b - self.nodes).clip(min=0.0)
            with np.errstate(divide="ignore"):
                w = gaps ** (order - 1.0) / math.gamma(order)
            if order < 1.0:
                w[-1] = 0.0
            w.setflags(write=False)
            self._node_weights[order] = w
        return w

    @functools.cached_property
    def w_alpha_rev(self) -> np.ndarray:
        """Column of the order-alpha weights, reversed: row j weighs cell j in x(b)."""
        grid = self.spec.grid
        return _kernel(self.spec.alpha, grid.h, grid.n_cells)[0][::-1, None]

    def group(self, parts: tuple):
        """(function, (start, stop, shape) of each part's outputs) of a tuple of part names."""
        entry = self._groups.get(parts)
        if entry is None:
            trees, spans = (), []
            for part in parts:
                attr, *args = _PARTS[part]
                value = getattr(self.spec, attr)(*args) if args else getattr(self.spec, attr)
                value = np.array(value, dtype=object)  # an Expr, a tuple or rows of Expr
                spans.append((len(trees), len(trees) + value.size, value.shape))
                trees += tuple(value.flat)
            names = self._running if parts[0].startswith("L") else self._endpoint
            entry = self._groups[parts] = (compile_group(trees, names), spans)
        return entry

    def running(self, x: np.ndarray, u: np.ndarray, *parts) -> list:
        """Parts of L at every node of the (n_nodes, dim) arrays x and u: arrays
        of shape (n_nodes,) + part shape."""
        fn, spans = self.group(parts)
        out = fn(self.nodes, *x.T, *u.T)
        rows, result = self.nodes.shape, []
        for start, stop, shape in spans:
            if shape:
                cols = np.empty(rows + (stop - start,))
                for j in range(start, stop):
                    cols[:, j - start] = out[j]
                result.append(cols.reshape(rows + shape))
            else:
                v = out[start]
                result.append(v if np.shape(v) == rows else np.broadcast_to(v, rows))
        return result

    def endpoint(self, xa, xb, *parts) -> list:
        """Parts of phi or g at (xa, xb): a float or an array of the part's shape."""
        fn, spans = self.group(parts)
        out = np.array(fn(*np.concatenate((xa, xb), dtype=float).tolist()), dtype=float)
        return [out[start:stop].reshape(shape) if shape else float(out[start])
                for start, stop, shape in spans]


@dataclass(frozen=True)
class TrajectoryPair:
    """Candidate trajectory parametrized by (u, y): x = y + I^alpha[u]."""

    u: GridFn
    y: np.ndarray
    radius: Optional[float] = None  # optional sup-norm bound on u

    def __post_init__(self):
        # a private copy: y may be a view into a caller's writable array, and
        # the memoized states below are only sound while y cannot change
        y = np.array(self.y, dtype=float, ndmin=1)
        if y.shape != (self.u.dim,):
            raise ValueError(f"y has shape {y.shape}, control has dim {self.u.dim}")
        if not np.all(np.isfinite(y)):
            raise ValueError("initial value must be finite")
        if self.radius is not None and self.u.sup_norm() > self.radius + 1e-12:
            raise ValueError("control exceeds the declared radius bound")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_states", {})

    def state(self, alpha: float) -> GridFn:
        """x = y + I^alpha[u], computed once per alpha for this pair.

        The pair is frozen and u.values and y are read-only, so the cached
        state can never go stale; dataclasses.replace builds a new pair with
        an empty cache.
        """
        x = self._states.get(alpha)
        if x is None:
            x = self._states[alpha] = reconstruct_trajectory(self.u, self.y, alpha)
        return x


def validate(spec: ProblemSpec) -> list:
    """Collect every invariant violation as a '<path>: message' string."""
    issues = []
    if not (0.0 < spec.alpha <= 1.0):
        issues.append(f"alpha: out of (0,1]: {spec.alpha}")
    if not (spec.beta > 0.0):
        issues.append(f"beta: must be positive: {spec.beta}")
    if spec.dim < 1:
        issues.append(f"dim: must be a positive integer: {spec.dim}")
    lag_vars, endpoint_vars = map(set, _variable_names(spec.dim))
    bad = free_variables(spec.phi) - endpoint_vars
    if bad:
        issues.append(f"phi: uses non-endpoint variables {sorted(bad)}")
    bad = free_variables(spec.lagrangian) - lag_vars
    if bad:
        issues.append(f"lagrangian: uses non-running variables {sorted(bad)}")
    if (spec.constraint_map is None) != (spec.target_set is None):
        issues.append("constraint: map and target set must be given together")
    if spec.constraint_map is not None and spec.target_set is not None:
        if len(spec.constraint_map) != spec.target_set.dim:
            issues.append(
                f"constraint: map has {len(spec.constraint_map)} components but "
                f"target set has dimension {spec.target_set.dim}"
            )
        for k, g in enumerate(spec.constraint_map):
            bad = free_variables(g) - endpoint_vars
            if bad:
                issues.append(f"constraint[{k}]: uses non-endpoint variables {sorted(bad)}")
    issues.extend(_validate_set(spec.target_set, "target_set"))
    return issues


def _validate_set(s: Optional[ConvexSet], path: str) -> list:
    if s is None:
        return []
    issues = []
    if isinstance(s, Ball):
        if not s.radius >= 0:
            issues.append(f"{path}.ball: radius must be nonnegative, got {s.radius}")
        if not all(math.isfinite(c) for c in s.center):
            issues.append(f"{path}.ball: center must be finite")
    if isinstance(s, Product):
        for i, f in enumerate(s.factors):
            issues.extend(_validate_set(f, f"{path}.factors[{i}]"))
    return issues


def standard_constraint(kind: str, n: int, x_a=None, x_b=None):
    """The (g, S) pair for the common endpoint-constraint shapes.

    kind is one of 'free', 'fixed_initial', 'fixed_both', 'periodic'.
    """
    identity = tuple(parse(name, n) for name in _variable_names(n)[1])
    if kind == "free":
        return identity, WholeSpace(2 * n)
    if kind == "fixed_initial":
        if x_a is None:
            raise ValueError("fixed_initial needs x_a")
        point = np.broadcast_to(np.asarray(x_a, dtype=float), (n,))
        return identity, Product((Singleton(tuple(point)), WholeSpace(n)))
    if kind == "fixed_both":
        if x_a is None or x_b is None:
            raise ValueError("fixed_both needs x_a and x_b")
        pa = np.broadcast_to(np.asarray(x_a, dtype=float), (n,))
        pb = np.broadcast_to(np.asarray(x_b, dtype=float), (n,))
        return identity, Singleton(tuple(pa) + tuple(pb))
    if kind == "periodic":
        gap = tuple(parse(f"xb{i + 1} - xa{i + 1}", n) for i in range(n))
        return gap, Singleton((0.0,) * n)
    raise ValueError(f"unknown constraint kind {kind!r}")
