"""Discrete fractional operators on uniform grids.

Left/right Riemann-Liouville integrals and the left Caputo derivative are
computed by product integration: the data is treated as piecewise-constant
on cells (left-node value) and the weakly singular kernel is integrated
exactly over each cell. This gives O(h) accuracy without any regularization
of the kernel.

The product-integration sums are discrete Volterra convolutions. They are
evaluated by FFT in O(n log n), with the kernel weights and their spectrum
cached per (order, grid). The FFT runs in a per-thread workspace: a complex
spectrum buffer and a real output buffer for the current (FFT length, column
count), replaced when that key changes. The view into it that a convolution
returns never leaves this module: _left_sums, the one kernel behind both
integrals, the states x = y + I^alpha[u] and the gradient, copies it out.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FracDomainError",
    "GridMismatchError",
    "Grid",
    "GridFn",
    "FracWeights",
    "rl_integral_left",
    "rl_integral_right",
    "rl_integral_right_at",
    "caputo_derivative_left",
    "reconstruct_trajectory",
    "window_variation",
]


class FracDomainError(ValueError):
    """Raised when an order parameter is outside its admissible range."""


class GridMismatchError(ValueError):
    """Raised when grids or dimensions of composite operands disagree."""


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [a, b] with nodes t_k = a + k*h, k = 0..n_cells."""

    a: float
    b: float
    n_cells: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"need finite a and b, got a={self.a}, b={self.b}")
        if not (self.a < self.b):
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if self.n_cells < 2:
            raise ValueError(f"need n_cells >= 2, got {self.n_cells}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.n_nodes)

    def node_index(self, t: float) -> int:
        """Index of the node equal to t to a relative 1e-9; raises if t is not a node."""
        q = (t - self.a) / self.h
        k = round(q) if math.isfinite(q) else -1  # a non-finite t is no node
        if k < 0 or k > self.n_cells or abs(self.a + k * self.h - t) > 1e-9 * max(1.0, abs(t)):
            raise GridMismatchError(f"t={t} is not a grid node")
        return int(k)


@dataclass(frozen=True)
class GridFn:
    """Vector-valued samples on the nodes of a grid, shape (n_nodes, dim)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if not v.flags.owndata:
            # a view's base may stay writable; values must never change
            v = v.copy()
        if v.shape[0] != self.grid.n_nodes:
            raise GridMismatchError(
                f"expected {self.grid.n_nodes} rows, got {v.shape[0]}"
            )
        if not np.isfinite(v).all():
            raise ValueError("GridFn values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def constant(cls, grid: Grid, value) -> "GridFn":
        row = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(grid, np.tile(row, (grid.n_nodes, 1)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def with_values(self, values: np.ndarray) -> "GridFn":
        return GridFn(self.grid, values)


@dataclass(frozen=True)
class FracWeights:
    """Exact kernel moments of the RL kernel over uniform cells.

    weights[m] = ((m+1)^alpha - m^alpha) * h^alpha / Gamma(alpha + 1), the
    exact integral of (t-s)^(alpha-1)/Gamma(alpha) over a cell at lag m.
    """

    alpha: float
    h: float
    weights: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, alpha: float, h: float, n_cells: int) -> "FracWeights":
        if alpha <= 0:
            raise FracDomainError(f"need alpha > 0, got {alpha}")
        return cls(alpha, h, _kernel(alpha, h, n_cells)[0])


@functools.lru_cache(maxsize=16)
def _kernel(alpha: float, h: float, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weights of order alpha on n_cells cells of width h, and their
    real FFT spectrum zero-padded to a power of two >= 2*n_cells, so that the
    circular convolution of two length-n_cells sequences equals the linear one.
    """
    m = np.arange(n_cells, dtype=float)
    w = ((m + 1.0) ** alpha - m**alpha) * h**alpha / math.gamma(alpha + 1.0)
    spectrum = np.fft.rfft(w, 1 << (2 * int(n_cells) - 1).bit_length())
    w.setflags(write=False)
    spectrum.setflags(write=False)
    return w, spectrum


def _cell_moments(upper, lower, order: float) -> np.ndarray:
    """(g1^order - g2^order)/Gamma(order+1) with both gaps clipped at 0: the
    exact integral of (gap)^(order-1)/Gamma(order) over each cell."""
    return (upper.clip(min=0.0) ** order - lower.clip(min=0.0) ** order) / math.gamma(order + 1.0)


@functools.lru_cache(maxsize=16)
def beta_cell_weights(grid: Grid, beta: float) -> np.ndarray:
    """Exact integrals of (b-s)^(beta-1)/Gamma(beta) over each cell.

    Cached per (grid, beta); the returned array is read-only.
    """
    if beta <= 0:
        raise ValueError(f"need beta > 0, got {beta}")
    gaps = grid.b - grid.nodes()
    w = _cell_moments(gaps[:-1], gaps[1:], beta)
    w.setflags(write=False)
    return w


_workspace = threading.local()


def _volterra(cells: np.ndarray, alpha: float, grid: Grid) -> np.ndarray:
    """out[k] = sum_{i<=k} cells[i] * w[k-i] for every column of cells.

    w are the order-alpha weights of grid; cells has at most n_cells rows and
    out has as many rows as cells. out is a view into this thread's FFT
    workspace, valid only until the next call on the same thread: its one
    caller, _left_sums, copies it out at once. The workspace holds the
    buffers of one (n_fft, columns) key and is replaced when the key changes.
    """
    spectrum = _kernel(alpha, grid.h, grid.n_cells)[1]
    n_fft = 2 * (spectrum.shape[0] - 1)
    n_cols = cells.shape[1]
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None or buffers[1].shape != (n_fft, n_cols):
        buffers = _workspace.buffers = (
            np.empty((spectrum.shape[0], n_cols), dtype=complex),
            np.empty((n_fft, n_cols)),
        )
    spec_buf, real_buf = buffers
    np.fft.rfft(cells, n_fft, axis=0, out=spec_buf)
    np.multiply(spec_buf, spectrum[:, None], out=spec_buf)
    np.fft.irfft(spec_buf, n_fft, axis=0, out=real_buf)
    return real_buf[: cells.shape[0]]


def _left_sums(cells: np.ndarray, alpha: float, grid: Grid) -> np.ndarray:
    """out[k] = sum_{i<k} cells[i] * w[k-1-i] for k = 0..len(cells) (out[0] = 0),
    w the order-alpha weights of grid, in a fresh array of len(cells) + 1 rows."""
    return np.concatenate((np.zeros((1, cells.shape[1])), _volterra(cells, alpha, grid)))


def rl_integral_left(u: GridFn, alpha: float) -> GridFn:
    """Left RL integral of order alpha >= 0, sampled at all nodes.

    u is treated as piecewise-constant on cells (left value); the kernel is
    integrated exactly per cell. Value at t=a is 0 for alpha > 0; alpha = 0
    is the identity.
    """
    if alpha < 0:
        raise FracDomainError(f"need alpha >= 0, got {alpha}")
    if alpha == 0:
        return u
    return u.with_values(_left_sums(u.values[:-1], alpha, u.grid))


def rl_integral_right(u: GridFn, alpha: float) -> GridFn:
    """Right RL integral of order alpha >= 0, sampled at all nodes.

    Mirror of :func:`rl_integral_left` with kernel (s-t)^(alpha-1)/Gamma(alpha);
    the value at t=b is exactly 0 for alpha > 0.
    """
    if alpha < 0:
        raise FracDomainError(f"need alpha >= 0, got {alpha}")
    if alpha == 0:
        return u
    # node k accumulates sum_{i>=k} u_i * w_{i-k}: the left sums of the reversed cells
    return u.with_values(_left_sums(u.values[-2::-1], alpha, u.grid)[::-1])


def rl_integral_right_at(w: GridFn, order: float, t: float) -> np.ndarray:
    """Right RL integral of order in (0, 1) evaluated at one point t.

    Integrates the kernel exactly against the piecewise-constant cell data;
    returns the exact zero vector when t = b.
    """
    if not (0.0 < order < 1.0):
        raise FracDomainError(f"need order in (0,1), got {order}")
    grid = w.grid
    if t >= grid.b:
        return np.zeros(w.dim)
    gaps = grid.nodes() - t
    return _cell_moments(gaps[1:], gaps[:-1], order) @ w.values[:-1]


def caputo_derivative_left(x: GridFn, alpha: float) -> GridFn:
    """Left Caputo derivative of order alpha in (0, 1] (L1-type scheme).

    Forward difference quotients on cells, treated as piecewise-constant, are
    fed through the left RL integral of order 1-alpha. For alpha = 1 the
    difference quotients themselves are returned (last node repeats the last
    cell value).
    """
    if not (0.0 < alpha <= 1.0):
        raise FracDomainError(f"need alpha in (0,1], got {alpha}")
    h = x.grid.h
    diff = np.diff(x.values, axis=0) / h
    padded = x.with_values(np.vstack([diff, diff[-1:]]))  # the last node carries no cell
    return padded if alpha == 1.0 else rl_integral_left(padded, 1.0 - alpha)


def reconstruct_trajectory(u: GridFn, y: np.ndarray, alpha: float) -> GridFn:
    """Trajectory x = y + I^alpha[u] with x(a) = y exactly."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (u.dim,):
        raise GridMismatchError(f"initial value has dim {y.shape}, control has dim {u.dim}")
    if not (0.0 < alpha <= 1.0):
        raise FracDomainError(f"need alpha in (0,1], got {alpha}")
    x = _left_sums(u.values[:-1], alpha, u.grid)
    x += y
    return u.with_values(x)


def window_variation(
    grid: Grid, alpha: float, tau: float, h: float, v: np.ndarray
) -> GridFn:
    """Closed-form I^alpha of the indicator v*1_[tau, tau+h), at the nodes.

    Zero on [a, tau]; (t-tau)^alpha v / Gamma(1+alpha) on [tau, tau+h];
    ((t-tau)^alpha - (t-(tau+h))^alpha) v / Gamma(1+alpha) afterwards. The
    nodes are evaluated exactly, no quadrature is involved.
    """
    if not (0.0 < alpha <= 1.0):
        raise FracDomainError(f"need alpha in (0,1], got {alpha}")
    if not (grid.a <= tau < tau + h <= grid.b):
        raise ValueError(f"window [{tau}, {tau + h}] outside [{grid.a}, {grid.b}]")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    t = grid.nodes()
    profile = _cell_moments(t - tau, t - (tau + h), alpha)
    return GridFn(grid, profile[:, None] * v[None, :])
