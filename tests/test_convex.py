import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvc import (
    Ball,
    Box,
    Product,
    Singleton,
    WholeSpace,
    dist,
    dist_sq_gradient,
    in_normal_cone,
    normal_cone_basis,
    project,
)

UNIT_BOX = Box((0.0, 0.0), (1.0, 1.0))
UNIT_BALL = Ball((0.0, 0.0), 1.0)

SETS = [
    WholeSpace(2),
    Singleton((0.5, -1.0)),
    UNIT_BOX,
    UNIT_BALL,
    Product((Box((0.0,), (1.0,)), Ball((0.0,), 2.0))),
]


def _sample_inside(s, rng):
    if isinstance(s, WholeSpace):
        return rng.normal(size=s.dim)
    if isinstance(s, Singleton):
        return np.array(s.point)
    if isinstance(s, Box):
        lo = np.maximum(np.array(s.lower), -10.0)
        hi = np.minimum(np.array(s.upper), 10.0)
        return rng.uniform(lo, hi)
    if isinstance(s, Ball):
        d = rng.normal(size=s.dim)
        d /= np.linalg.norm(d)
        return np.array(s.center) + d * s.radius * rng.uniform(0.0, 1.0)
    parts, off = [], 0
    for f in s.factors:
        parts.append(_sample_inside(f, rng))
    return np.concatenate(parts)


class TestProject:
    def test_box_clamp(self):
        assert np.array_equal(project(UNIT_BOX, [2.0, -1.0]), [1.0, 0.0])

    def test_idempotent(self):
        z = project(UNIT_BALL, [3.0, 4.0])
        assert np.array_equal(project(UNIT_BALL, z), z)

    def test_ball_radial(self):
        assert np.allclose(project(UNIT_BALL, [3.0, 4.0]), [0.6, 0.8])

    def test_inside_point_unchanged(self):
        z = np.array([0.25, 0.75])
        assert np.array_equal(project(UNIT_BOX, z), z)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project(UNIT_BOX, [1.0])

    @pytest.mark.parametrize("s", SETS)
    def test_characterization_bulk(self, s, rng):
        # (z - P(z)) . (w - P(z)) <= 0 for every w in the set
        for _ in range(2000):
            z = rng.normal(scale=3.0, size=s.dim)
            p = project(s, z)
            w = _sample_inside(s, rng)
            assert float((z - p) @ (w - p)) <= 1e-12

    @pytest.mark.parametrize("s", SETS)
    def test_one_lipschitz(self, s, rng):
        for _ in range(200):
            z1 = rng.normal(scale=3.0, size=s.dim)
            z2 = rng.normal(scale=3.0, size=s.dim)
            assert np.linalg.norm(project(s, z1) - project(s, z2)) <= np.linalg.norm(
                z1 - z2
            ) + 1e-12

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_projection_in_set(self, point):
        z = np.array(point)
        for s in (UNIT_BOX, UNIT_BALL):
            assert dist(s, project(s, z)) <= 1e-12


class TestDistGradient:
    def test_zero_inside(self):
        assert np.array_equal(dist_sq_gradient(UNIT_BOX, [0.5, 0.5]), [0.0, 0.0])

    def test_box_outside(self):
        assert np.array_equal(dist_sq_gradient(UNIT_BOX, [2.0, -1.0]), [2.0, -2.0])

    def test_singleton(self):
        s = Singleton((1.0, 2.0))
        assert np.array_equal(dist_sq_gradient(s, [3.0, 2.0]), [4.0, 0.0])

    @pytest.mark.parametrize("s", SETS)
    def test_first_order_expansion(self, s, rng):
        for _ in range(50):
            z = rng.normal(scale=2.0, size=s.dim)
            d = rng.normal(size=s.dim)
            g = float(dist_sq_gradient(s, z) @ d)
            errs = []
            for h in (1e-3, 5e-4):
                f0 = dist(s, z) ** 2
                f1 = dist(s, z + h * d) ** 2
                errs.append(abs(f1 - f0 - h * g))
            # O(h^2) remainder
            assert errs[1] <= 0.35 * errs[0] + 1e-12


class TestNormalCone:
    def test_whole_space(self):
        assert in_normal_cone(WholeSpace(1), [0.0], [0.0])
        assert not in_normal_cone(WholeSpace(1), [0.0], [1.0])

    def test_singleton_everything(self):
        s = Singleton((2.0,))
        assert in_normal_cone(s, [2.0], [-17.0])

    def test_box_faces(self):
        s = Box((0.0,), (1.0,))
        assert in_normal_cone(s, [1.0], [1.0])
        assert not in_normal_cone(s, [1.0], [-1.0])
        assert in_normal_cone(s, [0.0], [-1.0])
        assert not in_normal_cone(s, [0.5], [1.0])

    def test_ball_boundary(self):
        assert in_normal_cone(UNIT_BALL, [1.0, 0.0], [2.0, 0.0])
        assert not in_normal_cone(UNIT_BALL, [1.0, 0.0], [-1.0, 0.0])
        assert not in_normal_cone(UNIT_BALL, [1.0, 0.0], [1.0, 1.0])
        assert in_normal_cone(UNIT_BALL, [0.0, 0.0], [0.0, 0.0])

    def test_radius_zero_ball_takes_every_direction(self):
        assert in_normal_cone(Ball((1.0, 2.0), 0.0), [1.0, 2.0], [5.0, -3.0])

    def test_point_must_be_in_set(self):
        with pytest.raises(ValueError):
            in_normal_cone(UNIT_BOX, [2.0, 2.0], [1.0, 0.0])

    @pytest.mark.parametrize("s", SETS)
    def test_projection_residual_in_cone(self, s, rng):
        for _ in range(200):
            z = rng.normal(scale=3.0, size=s.dim)
            p = project(s, z)
            assert in_normal_cone(s, p, z - p, tol=1e-7)


class TestNormalConeBasis:
    def test_whole_space_trivial(self):
        assert normal_cone_basis(WholeSpace(3), np.zeros(3)).shape == (3, 0)

    def test_singleton_full(self):
        b = normal_cone_basis(Singleton((1.0, 2.0)), np.array([1.0, 2.0]))
        assert b.shape == (2, 2)

    def test_box_active_faces(self):
        b = normal_cone_basis(UNIT_BOX, np.array([1.0, 0.5]))
        assert b.shape == (2, 1)
        assert abs(b[0, 0]) == 1.0

    def test_ball_interior_vs_boundary(self):
        assert normal_cone_basis(UNIT_BALL, np.array([0.1, 0.0])).shape == (2, 0)
        b = normal_cone_basis(UNIT_BALL, np.array([0.0, 1.0]))
        assert b.shape == (2, 1)
        assert np.allclose(b[:, 0], [0.0, 1.0])

    def test_radius_zero_ball_full(self):
        b = normal_cone_basis(Ball((1.0, 2.0), 0.0), np.array([1.0, 2.0]))
        assert np.array_equal(b, np.eye(2))

    def test_product_block_lift(self):
        s = Product((Singleton((0.0,)), WholeSpace(1)))
        b = normal_cone_basis(s, np.array([0.0, 5.0]))
        assert b.shape == (2, 1)
        assert np.allclose(b[:, 0], [1.0, 0.0])
