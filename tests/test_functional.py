import math

import numpy as np
import pytest

from fvc import (
    Grid,
    GridFn,
    GridMismatchError,
    NeedleParams,
    ProblemSpec,
    TrajectoryPair,
    bolza_eval,
    gateaux_first,
    gateaux_second,
    needle_apply,
    needle_bounds_check,
    needle_sensitivity,
    parse,
    penalized_value,
    standard_constraint,
    y_sensitivity,
)
from fvc.functional import beta_cell_weights

from conftest import classic_spec, oracle_trajectory, zero_trajectory


def constant_traj(grid, u_value, y_value):
    return TrajectoryPair(
        GridFn.constant(grid, float(u_value)), np.array([float(y_value)])
    )


def random_quadratic_spec(rng, n_cells=64, alpha=None, beta=None):
    c = [round(float(v), 3) for v in rng.uniform(0.2, 1.5, size=5)]
    phi = f"{c[0]}*xa1^2 + {c[1]}*xb1^2 + {c[2]}*xa1*xb1"
    lag = f"{c[3]}*x1^2 + {c[4]}*u1^2 + 0.3*x1*u1 + 0.1*t*x1"
    return ProblemSpec(
        alpha=float(alpha if alpha is not None else rng.choice([0.5, 0.8, 1.0])),
        beta=float(beta if beta is not None else rng.choice([0.7, 1.0, 2.0])),
        grid=Grid(0.0, 1.0, n_cells),
        dim=1,
        phi=parse(phi, 1),
        lagrangian=parse(lag, 1),
    )


def richardson_needle_limit(spec, traj, tau, v, base=None):
    """Extrapolated limit of the needle difference quotients of the cost.

    Two Richardson stages strip the h^alpha and next-order error terms from
    quotients on dyadic grid-aligned windows.
    """
    if base is None:
        base = bolza_eval(spec, traj)
    span = spec.grid.b - tau
    quotients = []
    for j in range(1, 9):
        h = span / 2**j
        pert = needle_apply(traj.u, NeedleParams(tau, h, np.asarray(v, dtype=float)))
        quotients.append((bolza_eval(spec, TrajectoryPair(pert, traj.y)) - base) / h)
    q = np.array(quotients)
    w1 = 2.0**spec.alpha
    r1 = (w1 * q[1:] - q[:-1]) / (w1 - 1.0)
    e2 = min(2.0 * spec.alpha, 1.0) if spec.alpha < 1.0 else 2.0
    w2 = 2.0**e2
    r2 = (w2 * r1[1:] - r1[:-1]) / (w2 - 1.0)
    return float(r2[-1])


def random_traj(rng, grid, dim=1, scale=1.0):
    return TrajectoryPair(
        GridFn(grid, scale * rng.normal(size=(grid.n_nodes, dim))),
        scale * rng.normal(size=dim),
    )


class TestBetaCellWeights:
    def test_sum_is_total_mass(self):
        g = Grid(0.0, 1.0, 64)
        for beta in (0.5, 1.0, 2.5):
            w = beta_cell_weights(g, beta)
            assert math.isclose(float(w.sum()), 1.0 / math.gamma(beta + 1.0), rel_tol=1e-12)

    def test_finite_for_singular_weight(self):
        w = beta_cell_weights(Grid(0.0, 1.0, 32), 0.3)
        assert np.all(np.isfinite(w))
        assert np.all(w > 0)

    def test_cached_read_only(self):
        g = Grid(0.0, 1.0, 32)
        w = beta_cell_weights(g, 0.6)
        assert beta_cell_weights(Grid(0.0, 1.0, 32), 0.6) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_nonpositive_order_rejected(self, beta):
        with pytest.raises(ValueError):
            beta_cell_weights(Grid(0.0, 1.0, 32), beta)


class TestBolzaEval:
    def test_zero_trajectory(self):
        spec = classic_spec()
        assert bolza_eval(spec, zero_trajectory(spec.grid)) == 0.0

    def test_linear_trajectory(self):
        spec = classic_spec(n_cells=512)
        val = bolza_eval(spec, constant_traj(spec.grid, 1.0, 0.0))
        assert math.isclose(val, 5.0 / 3.0, abs_tol=1e-3)

    def test_stationary_value(self):
        spec = classic_spec(n_cells=512)
        val = bolza_eval(spec, oracle_trajectory(spec.grid))
        expected = -0.5 / math.tanh(1.0)
        assert math.isclose(val, expected, abs_tol=1e-3)

    def test_singular_beta_weight(self):
        spec = classic_spec(n_cells=256, beta=0.5)
        val = bolza_eval(spec, constant_traj(spec.grid, 1.0, 0.0))
        # 1 + I^0.5[(t^2+1)/2](1), computed analytically via power moments
        expected = 1.0 + 0.5 * (
            math.gamma(3.0) / math.gamma(3.5) + 1.0 / math.gamma(1.5)
        )
        assert math.isclose(val, expected, abs_tol=5e-3)


class TestGateauxFirst:
    def test_constant_variation_at_zero(self):
        spec = classic_spec()
        eta = constant_traj(spec.grid, 0.0, 1.0)
        assert gateaux_first(spec, zero_trajectory(spec.grid), eta) == 1.0

    def test_linear_point_linear_variation(self):
        spec = classic_spec(n_cells=512)
        traj = constant_traj(spec.grid, 1.0, 0.0)
        assert math.isclose(gateaux_first(spec, traj, traj), 7.0 / 3.0, abs_tol=2e-3)

    def test_vanishes_at_stationary_point(self, rng):
        spec = classic_spec(n_cells=512)
        traj = oracle_trajectory(spec.grid)
        for _ in range(5):
            eta = random_traj(rng, spec.grid)
            assert abs(gateaux_first(spec, traj, eta)) < 5e-2 * spec.grid.h / 1e-3

    def test_finite_difference_consistency_first_order(self, rng):
        for _ in range(5):
            spec = random_quadratic_spec(rng)
            traj = random_traj(rng, spec.grid)
            eta = random_traj(rng, spec.grid)
            d = gateaux_first(spec, traj, eta)
            errs = []
            for h in (1e-2, 5e-3, 2.5e-3):
                bumped = TrajectoryPair(
                    traj.u.with_values(traj.u.values + h * eta.u.values),
                    traj.y + h * eta.y,
                )
                q = (bolza_eval(spec, bumped) - bolza_eval(spec, traj)) / h
                errs.append(abs(q - d))
            assert errs[-1] <= 0.6 * errs[0] + 1e-12


class TestGateauxSecond:
    def test_constant_variation(self):
        spec = classic_spec()
        eta = constant_traj(spec.grid, 0.0, 1.0)
        val = gateaux_second(spec, zero_trajectory(spec.grid), eta)
        assert math.isclose(val, 1.0, rel_tol=1e-12)

    def test_linear_variation(self):
        spec = classic_spec(n_cells=512)
        eta = constant_traj(spec.grid, 1.0, 0.0)
        val = gateaux_second(spec, zero_trajectory(spec.grid), eta)
        assert math.isclose(val, 4.0 / 3.0, abs_tol=2e-3)

    def test_nonnegative_for_convex_quadratic(self, rng):
        spec = classic_spec()
        traj = random_traj(rng, spec.grid)
        for _ in range(10):
            eta = random_traj(rng, spec.grid)
            assert gateaux_second(spec, traj, eta) >= 0.0

    def test_finite_difference_consistency_second_order(self, rng):
        for _ in range(5):
            spec = random_quadratic_spec(rng)
            traj = random_traj(rng, spec.grid)
            eta = random_traj(rng, spec.grid)
            d1 = gateaux_first(spec, traj, eta)
            d2 = gateaux_second(spec, traj, eta)
            f0 = bolza_eval(spec, traj)
            # quadratic data: the Taylor remainder past second order vanishes
            for h in (1e-2, 1e-3):
                bumped = TrajectoryPair(
                    traj.u.with_values(traj.u.values + h * eta.u.values),
                    traj.y + h * eta.y,
                )
                q = (bolza_eval(spec, bumped) - f0 - h * d1) / (h * h / 2.0)
                assert math.isclose(q, d2, rel_tol=1e-6, abs_tol=1e-6)


class TestNeedleApply:
    def test_whole_interval(self):
        g = Grid(0.0, 1.0, 16)
        u = GridFn.constant(g, 2.0)
        out = needle_apply(u, NeedleParams(0.0, 1.0, np.array([5.0])))
        assert np.all(out.values == 5.0)

    def test_single_cell(self):
        g = Grid(0.0, 1.0, 16)
        u = GridFn.constant(g, 0.0)
        out = needle_apply(u, NeedleParams(0.5, g.h, np.array([1.0])))
        changed = np.flatnonzero(out.values[:, 0] != 0.0)
        assert list(changed) == [g.node_index(0.5)]

    def test_same_value_noop(self):
        g = Grid(0.0, 1.0, 16)
        u = GridFn.constant(g, 3.0)
        out = needle_apply(u, NeedleParams(0.25, 0.25, np.array([3.0])))
        assert np.array_equal(out.values, u.values)

    def test_non_node_window_rejected(self):
        g = Grid(0.0, 1.0, 16)
        u = GridFn.constant(g, 0.0)
        with pytest.raises(ValueError):
            needle_apply(u, NeedleParams(0.03, 0.25, np.array([1.0])))

    @pytest.mark.parametrize("tau, h", [(0.25, math.inf), (math.inf, 0.25), (math.nan, 0.25)])
    def test_non_finite_window_rejected(self, tau, h):
        u = GridFn.constant(Grid(0.0, 1.0, 16), 0.0)
        with pytest.raises(GridMismatchError, match="is not a grid node"):
            needle_apply(u, NeedleParams(tau, h, np.array([1.0])))

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="positive width"):
            NeedleParams(0.5, 0.0, np.array([1.0]))

    def test_value_dimension_mismatch_rejected(self):
        u = GridFn.constant(Grid(0.0, 1.0, 16), 0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            needle_apply(u, NeedleParams(0.25, 0.25, np.array([1.0, 2.0])))


class TestNeedleSensitivity:
    def test_classic_value(self):
        spec = classic_spec()
        traj = zero_trajectory(spec.grid)
        for tau in (0.25, 0.5, 0.75):
            val = needle_sensitivity(spec, traj, tau, [1.0])
            assert math.isclose(val, 1.5, rel_tol=1e-9)

    def test_zero_for_unchanged_value(self, rng):
        spec = classic_spec()
        traj = TrajectoryPair(
            GridFn(spec.grid, rng.normal(size=(spec.grid.n_nodes, 1))),
            np.array([0.3]),
        )
        k = spec.grid.node_index(0.5)
        v = traj.u.values[k]
        assert needle_sensitivity(spec, traj, 0.5, v) == 0.0

    def test_endpoint_rejected(self):
        spec = classic_spec()
        traj = zero_trajectory(spec.grid)
        for tau in (0.0, 1.0):
            with pytest.raises(ValueError):
                needle_sensitivity(spec, traj, tau, [1.0])

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.6, 1.0), (0.8, 1.5)])
    def test_matches_difference_quotients(self, alpha, beta, rng):
        spec = random_quadratic_spec(rng, n_cells=2048, alpha=alpha, beta=beta)
        traj = constant_traj(spec.grid, 0.4, -0.2)
        tau = 0.5
        v = np.array([1.0])
        predicted = needle_sensitivity(spec, traj, tau, v)
        base = bolza_eval(spec, traj)
        extrapolated = richardson_needle_limit(spec, traj, tau, v, base)
        assert math.isclose(extrapolated, predicted, abs_tol=1e-3)


class TestNeedleBounds:
    def test_zero_control_full_needle(self):
        spec = classic_spec(alpha=0.6)
        traj = zero_trajectory(spec.grid)
        p = NeedleParams(0.25, 0.25, np.array([1.0]))
        assert needle_bounds_check(spec, traj, p, radius=1.0)

    def test_whole_interval_classical(self):
        spec = classic_spec()
        traj = zero_trajectory(spec.grid)
        p = NeedleParams(0.0, 1.0, np.array([2.0]))
        assert needle_bounds_check(spec, traj, p, radius=2.0)

    def test_unchanged_value(self):
        spec = classic_spec(alpha=0.4)
        traj = constant_traj(spec.grid, 1.5, 0.0)
        p = NeedleParams(0.5, 0.25, np.array([1.5]))
        assert needle_bounds_check(spec, traj, p, radius=2.0)

    def test_radius_violation_rejected(self):
        spec = classic_spec()
        traj = constant_traj(spec.grid, 3.0, 0.0)
        p = NeedleParams(0.5, 0.25, np.array([0.0]))
        with pytest.raises(ValueError):
            needle_bounds_check(spec, traj, p, radius=1.0)

    def test_uniform_bound_fails_for_a_narrower_declared_window(self):
        # tau + h lies within node_index's tolerance of the node 0.5, so the needle
        # covers [0.25, 0.5) while the bound is taken for a width 5e-10 shorter
        spec = classic_spec()
        traj = constant_traj(spec.grid, -1000.0, 0.0)
        p = NeedleParams(0.25, 0.25 - 5e-10, np.array([1000.0]))
        assert not needle_bounds_check(spec, traj, p, radius=1000.0)

    def test_random_needles(self, rng):
        spec = classic_spec(n_cells=64, alpha=0.7)
        radius = 2.0
        nodes = spec.grid.nodes()
        for _ in range(100):
            u = GridFn(spec.grid, rng.uniform(-radius, radius, size=(65, 1)))
            traj = TrajectoryPair(u, rng.normal(size=1))
            k0 = int(rng.integers(0, 60))
            k1 = int(rng.integers(k0 + 1, 65))
            p = NeedleParams(
                nodes[k0], nodes[k1] - nodes[k0], rng.uniform(-radius, radius, size=1)
            )
            assert needle_bounds_check(spec, traj, p, radius=radius)


class TestYSensitivity:
    def test_classic_value(self):
        spec = classic_spec()
        assert y_sensitivity(spec, zero_trajectory(spec.grid), [1.0]) == 1.0

    def test_zero_direction(self):
        spec = classic_spec()
        assert y_sensitivity(spec, zero_trajectory(spec.grid), [0.0]) == 0.0

    def test_equals_constant_variation(self, rng):
        for _ in range(5):
            spec = random_quadratic_spec(rng)
            traj = random_traj(rng, spec.grid)
            y_dir = rng.normal(size=1)
            eta = TrajectoryPair(GridFn.constant(spec.grid, 0.0), y_dir)
            assert math.isclose(
                y_sensitivity(spec, traj, y_dir),
                gateaux_first(spec, traj, eta),
                rel_tol=1e-12,
                abs_tol=1e-12,
            )


class TestPenalizedValue:
    def test_reference_trajectory_gives_epsilon(self):
        spec = classic_spec()
        traj = zero_trajectory(spec.grid)
        ref = bolza_eval(spec, traj)
        assert penalized_value(spec, traj, ref, 1e-3) == 1e-3

    def test_distance_only(self):
        g, s = standard_constraint("fixed_both", 1, 5.0, 5.0)
        spec = ProblemSpec(
            1.0, 1.0, Grid(0.0, 1.0, 32), 1, parse("0", 1), parse("u1^2", 1), g, s
        )
        traj = zero_trajectory(spec.grid)
        # cost gap is far below -epsilon, g sits at distance sqrt(50) from S
        val = penalized_value(spec, traj, 100.0, 1e-3)
        assert math.isclose(val, math.sqrt(50.0), rel_tol=1e-12)

    def test_three_four_five(self):
        g, s = standard_constraint("fixed_both", 1, 0.0, 4.0)
        spec = ProblemSpec(
            1.0, 1.0, Grid(0.0, 1.0, 32), 1, parse("0", 1), parse("3", 1), g, s
        )
        traj = zero_trajectory(spec.grid)
        # positive part = 3 (cost 3, ref 0, eps 0 limit approximated), dist = 4
        val = penalized_value(spec, traj, 0.0, 1e-12)
        assert math.isclose(val, 5.0, rel_tol=1e-9)

    def test_positive_unless_feasible_and_better(self, rng):
        g, s = standard_constraint("fixed_both", 1, 0.0, 1.0)
        spec = ProblemSpec(
            1.0, 1.0, Grid(0.0, 1.0, 32), 1, parse("0", 1), parse("u1^2", 1), g, s
        )
        ref = 0.5
        for _ in range(50):
            traj = random_traj(rng, spec.grid)
            x = traj.state(1.0)
            feasible = (
                abs(x.values[0, 0]) < 1e-9 and abs(x.values[-1, 0] - 1.0) < 1e-9
            )
            better = bolza_eval(spec, traj) - ref <= -1e-6
            if not (feasible and better):
                assert penalized_value(spec, traj, ref, 1e-6) > 0.0

    def test_epsilon_must_be_positive(self):
        spec = classic_spec()
        with pytest.raises(ValueError):
            penalized_value(spec, zero_trajectory(spec.grid), 0.0, 0.0)
