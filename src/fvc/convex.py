"""Projection, distance and normal-cone tests for the supported convex sets."""

from __future__ import annotations

import numpy as np

from .model import Ball, Box, ConvexSet, Product, Singleton, WholeSpace

__all__ = ["project", "dist", "dist_sq_gradient", "in_normal_cone", "normal_cone_basis"]

DEFAULT_CONE_TOL = 1e-9


def _check_dim(s: ConvexSet, z: np.ndarray) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (s.dim,):
        raise ValueError(f"point has shape {z.shape}, set has dimension {s.dim}")
    return z


def _blocks(s: Product, *arrays):
    """(factor, the factor's slice of each array) for the factors of s in order."""
    off = 0
    for f in s.factors:
        yield (f, *(a[off : off + f.dim] for a in arrays))
        off += f.dim


def project(s: ConvexSet, z) -> np.ndarray:
    """Nearest point of s to z (unique, idempotent, 1-Lipschitz)."""
    z = _check_dim(s, z)
    if isinstance(s, WholeSpace):
        return z.copy()
    if isinstance(s, Singleton):
        return np.array(s.point)
    if isinstance(s, Box):
        return np.clip(z, s.lower, s.upper)
    if isinstance(s, Ball):
        center = np.array(s.center)
        gap = z - center
        norm = float(np.linalg.norm(gap))
        if norm <= s.radius:
            return z.copy()
        return center + gap * (s.radius / norm)
    if isinstance(s, Product):
        return np.concatenate([project(f, zf) for f, zf in _blocks(s, z)])
    raise TypeError(f"unsupported set {type(s).__name__}")


def dist(s: ConvexSet, z) -> float:
    return float(np.linalg.norm(z - project(s, z)))


def dist_sq_gradient(s: ConvexSet, z) -> np.ndarray:
    """Gradient of the squared distance to s: 2 (z - P_s(z))."""
    return 2.0 * (z - project(s, z))


def in_normal_cone(s: ConvexSet, z, d, tol: float = DEFAULT_CONE_TOL) -> bool:
    """Decide d in N_s[z] by the projection's fixed point: for closed convex s,
    d is normal at z exactly when P_s(z + d) = z.

    z must lie in s up to tol (checked). tol bounds the move P_s(z + d) - z:
    its length for WholeSpace, Singleton and Ball, and each coordinate for a
    Box, a product of intervals. A Product is decided factor by factor.
    """
    z = _check_dim(s, z)
    d = _check_dim(s, d)
    if not dist(s, z) <= tol:
        raise ValueError("point is not in the set within tolerance")
    if isinstance(s, Product):
        return all(in_normal_cone(f, zf, df, tol) for f, zf, df in _blocks(s, z, d))
    move = project(s, z + d) - z
    if isinstance(s, Box):
        return bool(np.all(np.abs(move) <= tol))
    return bool(np.linalg.norm(move) <= tol)


def normal_cone_basis(s: ConvexSet, z) -> np.ndarray:
    """Orthonormal basis of the smallest linear subspace containing N_s[z].

    Returned as a (dim, k) matrix; k = 0 means the cone is trivially {0}.
    Used by the multiplier extraction to restrict the least-squares fit.
    """
    z = _check_dim(s, z)
    if isinstance(s, WholeSpace):
        return np.zeros((s.dim, 0))
    if isinstance(s, Singleton):
        return np.eye(s.dim)
    if isinstance(s, Box):
        lower, upper = np.array(s.lower), np.array(s.upper)
        active = (z <= lower + DEFAULT_CONE_TOL) | (z >= upper - DEFAULT_CONE_TOL)
        return np.eye(s.dim)[:, active]
    if isinstance(s, Ball):
        center = np.array(s.center)
        gap = z - center
        norm = float(np.linalg.norm(gap))
        if s.radius <= DEFAULT_CONE_TOL:
            return np.eye(s.dim)
        if norm < s.radius - DEFAULT_CONE_TOL:
            return np.zeros((s.dim, 0))
        return (gap / norm)[:, None]
    if isinstance(s, Product):
        # pad each factor's basis with zero rows: a lifting matmul could turn 0.0 into -0.0
        blocks = []
        for f, zf, rows in _blocks(s, z, np.arange(s.dim)):
            sub = normal_cone_basis(f, zf)
            blocks.append(np.zeros((s.dim, sub.shape[1])))
            blocks[-1][rows] = sub
        return np.hstack(blocks)
    raise TypeError(f"unsupported set {type(s).__name__}")
