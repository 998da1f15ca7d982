import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvc import (
    FracDomainError,
    FracWeights,
    Grid,
    GridFn,
    GridMismatchError,
    caputo_derivative_left,
    reconstruct_trajectory,
    rl_integral_left,
    rl_integral_right,
    rl_integral_right_at,
    window_variation,
)
from fvc.frac_ops import _kernel, _volterra
from fvc.functional import _right_double_kernel_at, beta_cell_weights

SQRT_PI = math.sqrt(math.pi)


def ones(n_cells=128, a=0.0, b=1.0):
    return GridFn.constant(Grid(a, b, n_cells), 1.0)


class TestGrid:
    def test_nodes_uniform(self):
        g = Grid(0.0, 2.0, 8)
        assert g.h == 0.25
        assert np.allclose(np.diff(g.nodes()), 0.25)
        assert g.n_nodes == 9

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 1)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
    def test_non_finite_endpoints(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            Grid(a, b, 4)

    def test_node_index(self):
        g = Grid(0.0, 1.0, 10)
        assert g.node_index(0.3) == 3
        with pytest.raises(GridMismatchError):
            g.node_index(0.35)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_node_index_non_finite(self, t):
        with pytest.raises(GridMismatchError, match="is not a grid node"):
            Grid(0.0, 1.0, 10).node_index(t)

    def test_gridfn_row_count_checked(self):
        with pytest.raises(GridMismatchError, match="expected 11 rows, got 10"):
            GridFn(Grid(0.0, 1.0, 10), np.zeros(10))


class TestWeights:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_positive_and_decreasing(self, alpha):
        w = FracWeights.build(alpha, 0.01, 50).weights
        assert np.all(w > 0)
        if alpha < 1.0:
            assert np.all(np.diff(w) < 0)

    @given(st.floats(0.05, 1.0), st.integers(2, 40))
    @settings(max_examples=100, deadline=None)
    def test_partial_sums(self, alpha, k):
        h = 0.5 / k
        w = FracWeights.build(alpha, h, k).weights
        expected = (k * h) ** alpha / math.gamma(alpha + 1.0)
        assert math.isclose(float(w.sum()), expected, rel_tol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_non_positive_order_rejected(self, alpha):
        with pytest.raises(FracDomainError, match="need alpha > 0"):
            FracWeights.build(alpha, 0.01, 50)

    def test_gamma_spot_values(self):
        assert math.isclose(math.gamma(0.5), SQRT_PI, rel_tol=1e-12)
        assert math.gamma(1.0) == 1.0
        assert math.isclose(math.gamma(1.5), SQRT_PI / 2, rel_tol=1e-12)


class TestLeftIntegral:
    def test_order_one_constant(self):
        out = rl_integral_left(ones(), 1.0)
        assert math.isclose(out.values[-1, 0], 1.0, rel_tol=1e-12)

    def test_half_order_constant(self):
        out = rl_integral_left(ones(), 0.5)
        assert math.isclose(out.values[-1, 0], 2 / SQRT_PI, rel_tol=1e-12)

    def test_order_zero_is_identity(self):
        u = ones()
        assert rl_integral_left(u, 0.0) is u

    def test_zero_at_left_endpoint(self):
        u = ones()
        assert rl_integral_left(u, 0.5).values[0, 0] == 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(FracDomainError):
            rl_integral_left(ones(), -0.1)

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_power_function_order(self, p, alpha):
        errors = []
        for n in (64, 128, 256):
            g = Grid(0.0, 1.0, n)
            u = GridFn(g, g.nodes() ** p)
            out = rl_integral_left(u, alpha)
            exact = (
                math.gamma(p + 1.0)
                / math.gamma(p + 1.0 + alpha)
                * g.nodes() ** (p + alpha)
            )
            errors.append(np.max(np.abs(out.values[:, 0] - exact)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 0.9) or errors[-1] < 1e-13

    @pytest.mark.parametrize("a1,a2", [(0.3, 0.5), (0.5, 0.5), (0.5, 1.0)])
    def test_semigroup(self, a1, a2, rng):
        errors = []
        for n in (64, 128, 256):
            g = Grid(0.0, 1.0, n)
            u = GridFn(g, np.sin(3 * g.nodes()) + 0.5)
            lhs = rl_integral_left(rl_integral_left(u, a2), a1)
            rhs = rl_integral_left(u, a1 + a2)
            errors.append(np.max(np.abs(lhs.values - rhs.values)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        # the scheme's order for the composition is a1 + a2 capped at 1
        assert np.all(orders >= min(a1 + a2, 1.0) - 0.02)


class TestRightIntegral:
    def test_order_one_constant(self):
        out = rl_integral_right(ones(), 1.0)
        assert math.isclose(out.values[0, 0], 1.0, rel_tol=1e-12)

    def test_zero_at_right_endpoint_bitwise(self):
        assert rl_integral_right(ones(), 0.5).values[-1, 0] == 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(FracDomainError, match="need alpha >= 0"):
            rl_integral_right(ones(), -0.1)

    def test_half_order_at_left(self):
        out = rl_integral_right(ones(), 0.5)
        assert math.isclose(out.values[0, 0], 2 / SQRT_PI, rel_tol=1e-12)

    def test_mirror_of_left(self):
        g = Grid(0.0, 1.0, 64)
        u = GridFn(g, g.nodes() ** 2)
        mirrored = GridFn(g, u.values[::-1])
        left = rl_integral_left(mirrored, 0.5)
        right = rl_integral_right(u, 0.5)
        # the quadrature uses left cell values, so mirroring shifts by one cell
        assert np.max(np.abs(left.values[::-1] - right.values)) < 0.05


class TestRightIntegralAt:
    def test_exact_zero_at_b(self):
        w = ones()
        out = rl_integral_right_at(w, 0.5, 1.0)
        assert out.shape == (1,)
        assert out[0] == 0.0

    def test_half_order_constant(self):
        out = rl_integral_right_at(ones(), 0.5, 0.0)
        assert math.isclose(out[0], 2 / SQRT_PI, rel_tol=1e-12)

    def test_zero_data(self):
        w = GridFn.constant(Grid(0.0, 1.0, 32), 0.0)
        for t in (0.0, 0.5, 1.0):
            assert rl_integral_right_at(w, 0.3, t)[0] == 0.0

    @pytest.mark.parametrize("order", [0.0, 1.0])
    def test_order_outside_open_unit_interval_rejected(self, order):
        with pytest.raises(FracDomainError, match="need order in"):
            rl_integral_right_at(ones(), order, 0.5)

    def test_matches_grid_version(self):
        g = Grid(0.0, 1.0, 128)
        w = GridFn(g, np.cos(2 * g.nodes()))
        full = rl_integral_right(w, 0.4)
        for k in (0, 31, 64, 127):
            pointwise = rl_integral_right_at(w, 0.4, g.nodes()[k])
            assert math.isclose(pointwise[0], full.values[k, 0], abs_tol=1e-13)


class TestCaputo:
    def test_linear_alpha_one(self):
        g = Grid(0.0, 1.0, 64)
        x = GridFn(g, g.nodes())
        out = caputo_derivative_left(x, 1.0)
        assert np.allclose(out.values, 1.0)

    def test_constant_any_alpha(self):
        g = Grid(0.0, 1.0, 64)
        x = GridFn.constant(g, 3.0)
        for alpha in (0.3, 0.7, 1.0):
            assert np.allclose(caputo_derivative_left(x, alpha).values, 0.0)

    def test_linear_half_order(self):
        g = Grid(0.0, 1.0, 512)
        x = GridFn(g, g.nodes())
        out = caputo_derivative_left(x, 0.5)
        assert math.isclose(out.values[-2, 0], 1 / math.gamma(1.5), rel_tol=5e-3)

    def test_order_range(self):
        g = Grid(0.0, 1.0, 16)
        x = GridFn(g, g.nodes())
        with pytest.raises(FracDomainError):
            caputo_derivative_left(x, 0.0)
        with pytest.raises(FracDomainError):
            caputo_derivative_left(x, 1.5)

    @pytest.mark.parametrize("alpha", [0.4, 0.8, 1.0])
    def test_round_trip_converges(self, alpha):
        errors = []
        for n in (64, 128, 256):
            g = Grid(0.0, 1.0, n)
            u = GridFn(g, np.cos(2 * g.nodes()))
            x = reconstruct_trajectory(u, np.zeros(1), alpha)
            back = caputo_derivative_left(x, alpha)
            errors.append(g.h * float(np.sum(np.abs(back.values - u.values))))
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.05


class TestReconstruct:
    def test_zero_control(self):
        g = Grid(0.0, 1.0, 32)
        x = reconstruct_trajectory(GridFn.constant(g, 0.0), np.array([2.0]), 0.5)
        assert np.all(x.values == 2.0)

    def test_initial_value_exact(self, rng):
        g = Grid(0.0, 1.0, 32)
        u = GridFn(g, rng.normal(size=(33, 2)))
        y = np.array([1.5, -0.5])
        x = reconstruct_trajectory(u, y, 0.7)
        assert np.array_equal(x.values[0], y)

    def test_half_order_unit_control(self):
        g = Grid(0.0, 1.0, 64)
        x = reconstruct_trajectory(GridFn.constant(g, 1.0), np.zeros(1), 0.5)
        assert math.isclose(x.values[-1, 0], 2 / SQRT_PI, rel_tol=1e-12)

    def test_dimension_mismatch(self):
        g = Grid(0.0, 1.0, 16)
        with pytest.raises(GridMismatchError):
            reconstruct_trajectory(GridFn.constant(g, 1.0), np.zeros(2), 0.5)

    def test_order_above_one_rejected(self):
        g = Grid(0.0, 1.0, 16)
        with pytest.raises(FracDomainError, match="need alpha in"):
            reconstruct_trajectory(GridFn.constant(g, 1.0), np.zeros(1), 1.5)


class TestWindowVariation:
    def test_classical_value(self):
        g = Grid(0.0, 1.0, 16)
        out = window_variation(g, 1.0, 0.25, 0.25, np.ones(1))
        k = g.node_index(0.75)
        assert math.isclose(out.values[k, 0], 0.25, rel_tol=1e-12)

    def test_half_order_value(self):
        g = Grid(0.0, 1.0, 16)
        out = window_variation(g, 0.5, 0.25, 0.25, np.ones(1))
        k = g.node_index(0.75)
        expected = (0.5**0.5 - 0.25**0.5) / math.gamma(1.5)
        assert math.isclose(out.values[k, 0], expected, rel_tol=1e-12)

    def test_zero_before_window(self):
        g = Grid(0.0, 1.0, 16)
        for alpha in (0.3, 1.0):
            out = window_variation(g, alpha, 0.5, 0.25, np.ones(1))
            assert np.all(out.values[: g.node_index(0.5) + 1] == 0.0)

    def test_matches_indicator_quadrature(self):
        g = Grid(0.0, 1.0, 256)
        tau, h = 0.25, 0.25
        vals = np.zeros((g.n_nodes, 1))
        k0, k1 = g.node_index(tau), g.node_index(tau + h)
        vals[k0:k1] = 1.0
        quad = rl_integral_left(GridFn(g, vals), 0.6)
        closed = window_variation(g, 0.6, tau, h, np.ones(1))
        assert np.max(np.abs(quad.values - closed.values)) < 5 * g.h

    def test_window_outside(self):
        g = Grid(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            window_variation(g, 0.5, 0.9, 0.25, np.ones(1))

    def test_order_zero_rejected(self):
        with pytest.raises(FracDomainError, match="need alpha in"):
            window_variation(Grid(0.0, 1.0, 16), 0.0, 0.25, 0.25, np.ones(1))


class TestKernelInequality:
    def test_power_gap_bound_bulk(self, rng):
        # 0 <= (s2^a - s1^a)^2 <= a (s2-s1)^(a+1) s1^(a-1), 0 < s1 <= s2
        s1 = rng.uniform(0.01, 5.0, size=10_000)
        s2 = s1 + rng.uniform(0.0, 5.0, size=10_000)
        a = rng.uniform(0.01, 1.0, size=10_000)
        lhs = (s2**a - s1**a) ** 2
        rhs = a * (s2 - s1) ** (a + 1.0) * s1 ** (a - 1.0)
        assert np.all(lhs >= 0.0)
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-15)

    def test_power_gap_spot_values(self):
        assert (2.0**0.5 - 2.0**0.5) ** 2 == 0.0
        s1, s2 = 1.0, 4.0
        assert (s2 - s1) ** 2 == 1.0 * (s2 - s1) ** 2 * s1**0.0  # alpha = 1
        lhs = (s2**0.5 - s1**0.5) ** 2
        assert math.isclose(lhs, 1.0, rel_tol=1e-12)
        assert lhs <= 0.5 * 3.0**1.5


class TestIntegrationByParts:
    @staticmethod
    def both_sides(grid, alpha, beta, x1, x2):
        w_beta = beta_cell_weights(grid, beta)
        left = rl_integral_left(x2, alpha)
        lhs = float(w_beta @ (x1.values[:-1, 0] * left.values[:-1, 0]))
        # the weighted right integral handles the (b-s)^(beta-1) singularity
        # through exact double-kernel cell moments
        right = np.array(
            [
                _right_double_kernel_at(grid, alpha, beta, x1.values[:-1, 0], t)
                for t in grid.nodes()[:-1]
            ]
        )
        rhs = float(grid.h * np.sum(x2.values[:-1, 0] * right))
        return lhs, rhs

    def test_spot_case(self):
        grid = Grid(0.0, 1.0, 1024)
        one = GridFn.constant(grid, 1.0)
        lhs, rhs = self.both_sides(grid, 0.5, 1.0, one, one)
        expected = (2.0 / 3.0) / math.gamma(1.5)
        assert math.isclose(lhs, expected, rel_tol=5e-3)
        assert math.isclose(rhs, expected, rel_tol=5e-3)

    @pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (0.5, 0.5), (0.7, 2.0)])
    def test_random_pairs(self, alpha, beta, rng):
        grid = Grid(0.0, 1.0, 1024)
        for _ in range(10):
            x1 = GridFn(grid, rng.uniform(-1, 1) + np.sin(rng.uniform(1, 4) * grid.nodes()))
            x2 = GridFn(grid, rng.uniform(-1, 1) + np.cos(rng.uniform(1, 4) * grid.nodes()))
            lhs, rhs = self.both_sides(grid, alpha, beta, x1, x2)
            assert math.isclose(lhs, rhs, abs_tol=2e-2)


def direct_weights(alpha, grid):
    m = np.arange(grid.n_cells, dtype=float)
    return ((m + 1.0) ** alpha - m**alpha) * grid.h**alpha / math.gamma(alpha + 1.0)


class TestConvolutionAgainstDirectSum:
    """The FFT-evaluated product-integration sums against the explicit sums."""

    @pytest.mark.parametrize("alpha", [0.25, 0.75, 1.0])
    def test_left_and_right(self, alpha, rng):
        grid = Grid(0.0, 1.3, 777)
        n = grid.n_cells
        u = GridFn(grid, rng.normal(size=(grid.n_nodes, 3)))
        w = direct_weights(alpha, grid)
        cells = u.values[:-1]
        left = np.zeros_like(u.values)
        right = np.zeros_like(u.values)
        for k in range(1, n + 1):
            left[k] = w[k - 1 :: -1] @ cells[:k]
        for k in range(n):
            right[k] = w[: n - k] @ cells[k:]
        for got, want in (
            (rl_integral_left(u, alpha).values, left),
            (rl_integral_right(u, alpha).values, right),
        ):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.all(rl_integral_right(u, alpha).values[-1] == 0.0)
        assert np.all(rl_integral_left(u, alpha).values[0] == 0.0)

    def test_alternating_sizes_and_dims(self, rng):
        # the FFT workspace is replaced whenever (n_fft, columns) changes
        cases = [(777, 3, 0.75), (64, 1, 0.25), (777, 1, 0.75), (1024, 2, 1.0), (64, 1, 0.25)]
        for n, dim, alpha in cases + cases[::-1]:
            grid = Grid(0.0, 1.3, n)
            u = GridFn(grid, rng.normal(size=(grid.n_nodes, dim)))
            w = direct_weights(alpha, grid)
            cells = u.values[:-1]
            left = np.zeros_like(u.values)
            right = np.zeros_like(u.values)
            for k in range(1, n + 1):
                left[k] = w[k - 1 :: -1] @ cells[:k]
            for k in range(n):
                right[k] = w[: n - k] @ cells[k:]
            got_left = rl_integral_left(u, alpha).values
            got_right = rl_integral_right(u, alpha).values
            assert np.max(np.abs(got_left - left)) <= 1e-13 * np.max(np.abs(left))
            assert np.max(np.abs(got_right - right)) <= 1e-13 * np.max(np.abs(right))


class TestVolterraWorkspace:
    def test_warm_call_allocates_no_node_arrays(self, rng):
        grid = Grid(0.0, 1.0, 4096)
        cells = rng.normal(size=(grid.n_cells, 1))
        _volterra(cells, 0.6, grid)  # warm-up: kernel cache and workspace
        tracemalloc.start()
        try:
            _volterra(cells, 0.6, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one array of the 4097 nodes alone takes 32 KB
        assert peak < 4096

    def test_threads_match_sequential_bytes(self, rng):
        # the last two share an FFT length and a column count, so a workspace
        # shared across threads would hand both the same buffers
        cases = [(777, 3, 0.7), (1024, 1, 0.4), (900, 1, 0.9)]
        inputs = []
        for n, dim, alpha in cases:
            grid = Grid(0.0, 1.0, n)
            inputs.append((GridFn(grid, rng.normal(size=(grid.n_nodes, dim))), alpha))

        def run(u, alpha):
            left, right = rl_integral_left(u, alpha), rl_integral_right(u, alpha)
            return left.values.tobytes(), right.values.tobytes()

        want = [run(u, alpha) for u, alpha in inputs]
        got = [[] for _ in inputs]
        start = threading.Barrier(len(inputs))

        def worker(i):
            start.wait(timeout=60)
            for _ in range(50):
                got[i].append(run(*inputs[i]))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside each convolution
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, results in enumerate(got):
            assert len(results) == 50
            assert all(r == want[i] for r in results)


class TestKernelCache:
    def test_weights_and_spectrum_read_only(self):
        w = FracWeights.build(0.6, 0.01, 50).weights
        cached_w, spectrum = _kernel(0.6, 0.01, 50)
        assert w is cached_w
        assert not cached_w.flags.writeable
        assert not spectrum.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_same_cell_count_different_interval(self, alpha):
        short, long = Grid(0.0, 1.0, 64), Grid(0.0, 2.0, 64)
        w_short = FracWeights.build(alpha, short.h, 64).weights
        w_long = FracWeights.build(alpha, long.h, 64).weights
        assert np.allclose(w_long, 2.0**alpha * w_short, rtol=1e-14)
        for grid in (short, long, short):
            out = rl_integral_left(GridFn.constant(grid, 1.0), alpha)
            expected = grid.b**alpha / math.gamma(alpha + 1.0)
            assert math.isclose(out.values[-1, 0], expected, rel_tol=1e-12)
