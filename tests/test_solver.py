import dataclasses
import math

import numpy as np
import pytest

from fvc import (
    Grid,
    GridFn,
    ProblemSpec,
    SolverConfig,
    TrajectoryPair,
    bolza_eval,
    build_report,
    default_initial,
    gateaux_first,
    nonexistence_diagnostic,
    objective_gradient,
    parse,
    solve,
    standard_constraint,
)
from fvc import frac_ops, model
from fvc import solver as solver_module
from fvc import dist, dist_sq_gradient, evaluate
from fvc.frac_ops import FracWeights
from fvc.functional import constraint_value
from fvc.solver import _bounds, _descend, _lbfgs_direction, _penalized, _traj_from

from conftest import classic_spec, classic_oracle, oracle_trajectory, zero_trajectory
from test_functional import random_quadratic_spec, random_traj


def grad_dot(spec, traj, eta):
    gu, gy = objective_gradient(spec, traj)
    return float(np.sum(gu.values * eta.u.values)) + float(gy @ eta.y)


class TestGradient:
    def test_matches_gateaux_exactly(self, rng):
        for _ in range(10):
            spec = random_quadratic_spec(rng)
            traj = random_traj(rng, spec.grid)
            for _ in range(10):
                eta = random_traj(rng, spec.grid)
                d = gateaux_first(spec, traj, eta)
                g = grad_dot(spec, traj, eta)
                assert math.isclose(g, d, rel_tol=1e-12, abs_tol=1e-12)

    def test_central_difference_coordinates(self, rng):
        spec = random_quadratic_spec(rng, n_cells=32)
        traj = random_traj(rng, spec.grid)
        gu, gy = objective_gradient(spec, traj)
        h = 1e-6
        for j in rng.integers(0, spec.grid.n_cells, size=50):
            bump = np.zeros_like(traj.u.values)
            bump[int(j), 0] = h
            up = TrajectoryPair(traj.u.with_values(traj.u.values + bump), traj.y)
            dn = TrajectoryPair(traj.u.with_values(traj.u.values - bump), traj.y)
            fd = (bolza_eval(spec, up) - bolza_eval(spec, dn)) / (2 * h)
            assert math.isclose(gu.values[int(j), 0], fd, rel_tol=1e-6, abs_tol=1e-9)
        fd_y = (
            bolza_eval(spec, TrajectoryPair(traj.u, traj.y + h))
            - bolza_eval(spec, TrajectoryPair(traj.u, traj.y - h))
        ) / (2 * h)
        assert math.isclose(gy[0], fd_y, rel_tol=1e-6, abs_tol=1e-9)

    def test_small_at_stationary_point(self):
        sups = []
        for n in (256, 512):
            spec = classic_spec(n_cells=n)
            gu, gy = objective_gradient(spec, oracle_trajectory(spec.grid))
            sups.append(max(gu.sup_norm(), float(np.max(np.abs(gy)))))
        assert sups[1] < sups[0]
        assert sups[1] < 10.0 / 512

    def test_grad_y_zero_without_state_terms(self, rng):
        spec = dataclasses.replace(
            classic_spec(), phi=parse("0", 1), lagrangian=parse("0.5*u1^2", 1)
        )
        traj = random_traj(rng, spec.grid)
        _, gy = objective_gradient(spec, traj)
        assert np.array_equal(gy, np.zeros(1))

    def test_matches_gateaux_three_dims_odd_grid(self, rng):
        spec = ProblemSpec(
            alpha=0.7,
            beta=0.8,
            grid=Grid(0.0, 1.5, 101),
            dim=3,
            phi=parse("xa1*xb2 + 0.5*xb3^2 - xb1", 3),
            lagrangian=parse(
                "0.5*(u1^2 + u2^2 + u3^2) + x1*x2 + 0.3*sin(x3)*u1 + 0.1*t*x2^2", 3
            ),
        )
        traj = random_traj(rng, spec.grid, dim=3)
        for _ in range(5):
            eta = random_traj(rng, spec.grid, dim=3)
            d = gateaux_first(spec, traj, eta)
            assert math.isclose(grad_dot(spec, traj, eta), d, rel_tol=1e-12, abs_tol=1e-12)

    def test_last_control_node_inert(self, rng):
        spec = random_quadratic_spec(rng)
        traj = random_traj(rng, spec.grid)
        gu, _ = objective_gradient(spec, traj)
        assert np.array_equal(gu.values[-1], np.zeros(1))


class TestDescend:
    def test_quadratic_reaches_minimum(self):
        target = np.array([1.0, -2.0, 0.5])
        history = []

        def fun(z):
            history.append(0.5 * float((z - target) @ (z - target)))
            return history[-1], lambda: z - target

        lo = np.full(3, -np.inf)
        hi = np.full(3, np.inf)
        z, f, g, it, converged = _descend(
            fun, np.zeros(3), lo, hi, 1e-10, 500, SolverConfig()
        )
        assert converged
        assert np.allclose(z, target, atol=1e-9)
        assert f <= min(history) + 1e-12

    def test_respects_bounds(self):
        def fun(z):
            return 0.5 * float(z @ z) - 3.0 * float(z.sum()), lambda: z - 3.0

        lo, hi = np.full(2, -1.0), np.full(2, 1.0)
        z, f, g, it, converged = _descend(
            fun, np.zeros(2), lo, hi, 1e-10, 500, SolverConfig()
        )
        assert converged
        assert np.allclose(z, [1.0, 1.0])

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_standstill_ends_line_search(self, scale):
        # a flat objective passes the Armijo test only at a trial point that
        # rounds back onto z; the descent must stop before taking that step,
        # through the step floor (scale 1) or the round-back test (scale 1e3)
        start = np.array([scale, -scale])
        calls = []

        def fun(z):
            calls.append(z)
            return 0.0, lambda: np.array([1.0, -1.0])

        lo, hi = np.full(2, -np.inf), np.full(2, np.inf)
        z, f, g, it, converged = _descend(fun, start, lo, hi, 1e-10, 500, SolverConfig())
        assert it == 1
        assert not converged
        assert np.array_equal(z, start)
        assert not any(np.array_equal(c, start) for c in calls[1:])


class TestSolve:
    def test_classic_instance(self):
        spec = classic_spec(n_cells=512)
        result = solve(spec)
        assert result.converged
        x_star, _ = classic_oracle(spec.grid)
        x = result.traj.state(spec.alpha)
        assert abs(result.objective - (-0.5 / math.tanh(1.0))) < 1e-3
        assert np.max(np.abs(x.values[:, 0] - x_star)) < 1e-2
        assert result.feasibility_distance == 0.0

    def test_free_problem_keeps_zero(self):
        spec = dataclasses.replace(
            classic_spec(), phi=parse("0", 1), lagrangian=parse("0.5*u1^2", 1)
        )
        result = solve(spec)
        assert result.converged
        assert result.objective == 0.0
        assert np.array_equal(result.traj.u.values, np.zeros_like(result.traj.u.values))

    def test_straight_line_between_endpoints(self):
        g, s = standard_constraint("fixed_both", 1, 0.0, 1.0)
        spec = ProblemSpec(
            alpha=1.0,
            beta=1.0,
            grid=Grid(0.0, 1.0, 128),
            dim=1,
            phi=parse("0", 1),
            lagrangian=parse("0.5*u1^2", 1),
            constraint_map=g,
            target_set=s,
        )
        result = solve(spec)
        assert abs(result.objective - 0.5) < 5e-3
        assert result.feasibility_distance <= 1e-5
        assert np.max(np.abs(result.traj.u.values - 1.0)) < 5e-2

    def test_objective_never_worse_than_start(self, rng):
        for _ in range(3):
            spec = random_quadratic_spec(rng)
            start = default_initial(spec)
            result = solve(spec)
            assert result.objective <= bolza_eval(spec, start) + 1e-12

    def test_feasibility_improves_with_stages(self):
        g, s = standard_constraint("fixed_both", 1, 0.0, 1.0)
        spec = ProblemSpec(
            alpha=0.8,
            beta=1.0,
            grid=Grid(0.0, 1.0, 64),
            dim=1,
            phi=parse("0", 1),
            lagrangian=parse("0.5*u1^2", 1),
            constraint_map=g,
            target_set=s,
        )
        feas = []
        for k in (1, 2, 3, 4):
            cfg = SolverConfig(
                epsilon_schedule=(1e-3, 1e-4, 1e-5, 1e-6)[:k],
                penalty_weights=(1e3, 1e4, 1e5, 1e6)[:k],
            )
            feas.append(solve(spec, cfg).feasibility_distance)
        assert all(b <= a * 1.01 for a, b in zip(feas, feas[1:]))
        assert feas[-1] <= 1e-6

    def test_deterministic(self):
        spec = classic_spec(n_cells=128)
        r1 = solve(spec)
        r2 = solve(spec)
        assert r1.objective == r2.objective
        assert np.array_equal(r1.traj.u.values, r2.traj.u.values)
        assert np.array_equal(r1.traj.y, r2.traj.y)

    def test_trial_point_outside_domain_is_rejected_step(self):
        # the first line-search trial drives 1 + x1 negative; the log is then
        # not finite there and the step must shrink instead of raising
        spec = ProblemSpec(
            alpha=0.8,
            beta=1.0,
            grid=Grid(0.0, 1.0, 128),
            dim=1,
            phi=parse("5*xb1", 1),
            lagrangian=parse("0.5*u1^2 - log(1 + x1)", 1),
        )
        start = bolza_eval(spec, default_initial(spec))
        result = solve(spec, SolverConfig(max_iters=20))
        assert result.iterations == 20
        assert np.isfinite(result.objective)
        assert result.objective < start

    def test_zero_progress_stops_early(self):
        # late in this solve only steps that leave the objective unchanged pass
        # the Armijo test; the solve must stop instead of using its budget
        spec = ProblemSpec(
            alpha=0.8,
            beta=1.0,
            grid=Grid(0.0, 1.0, 128),
            dim=1,
            phi=parse("5*xb1", 1),
            lagrangian=parse("0.5*u1^2 - log(1 + x1)", 1),
        )
        result = solve(spec)
        assert result.iterations < 200
        assert not result.converged
        assert math.isclose(result.objective, -3.601224389145994, rel_tol=1e-12)

    def test_zero_step_stall_stops_early(self):
        # the last penalty stage reaches steps that round back onto z; it used
        # to accept them until the whole 5000-iteration budget was spent
        g, s = standard_constraint("fixed_both", 1, 0.0, 1.0)
        spec = dataclasses.replace(
            classic_spec(n_cells=128, alpha=0.5), phi=parse("0", 1),
            constraint_map=g, target_set=s,
        )
        result = solve(spec)
        assert result.iterations < 500
        assert math.isclose(result.objective, 0.20197346204099917, rel_tol=1e-12)

    def test_iteration_budget_respected(self):
        spec = classic_spec(n_cells=128)
        result = solve(spec, SolverConfig(max_iters=1))
        assert result.iterations <= 1
        assert not result.converged


class TestEvaluationCounts:
    """Each trial point builds its state once; gradients only at accepted points."""

    @staticmethod
    def _count(monkeypatch, holder, name, counts):
        original = getattr(holder, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(holder, name, counted)

    def test_constrained_solve(self, monkeypatch):
        g, s = standard_constraint("fixed_both", 1, 0.0, 1.0)
        spec = dataclasses.replace(
            classic_spec(n_cells=128, alpha=0.7), phi=parse("0", 1),
            constraint_map=g, target_set=s,
        )
        config = SolverConfig()
        counts = {}
        self._count(monkeypatch, frac_ops, "rl_integral_left", counts)
        self._count(monkeypatch, model, "reconstruct_trajectory", counts)
        self._count(monkeypatch, solver_module, "bolza_eval", counts)
        self._count(monkeypatch, solver_module, "objective_gradient", counts)
        result = solve(spec, config)
        assert result.iterations < config.max_iters
        assert counts["reconstruct_trajectory"] == counts["rl_integral_left"]
        assert counts["rl_integral_left"] <= counts["bolza_eval"] + 1
        n_stages = len(config.epsilon_schedule)
        assert counts["objective_gradient"] == result.iterations + n_stages

        counts.clear()
        fresh = TrajectoryPair(result.traj.u, result.traj.y)
        build_report(spec, fresh)
        assert counts["rl_integral_left"] == 1


class TestNonexistenceDiagnostic:
    def test_classical_order_not_applicable(self):
        spec = classic_spec(alpha=1.0)
        diag = nonexistence_diagnostic(spec, solve(spec, SolverConfig(max_iters=5)))
        assert diag["applicable"] is False
        assert diag["flag"] is False

    def test_fractional_with_endpoint_cost_flags(self):
        spec = classic_spec(alpha=0.5, n_cells=64)
        result = solve(spec, SolverConfig(max_iters=20))
        diag = nonexistence_diagnostic(spec, result)
        assert diag["applicable"] is True
        assert diag["flag"] is True
        assert diag["transversality_b"] == 1.0
        assert result.report.transversality_b == 1.0

    def test_fractional_without_endpoint_cost_clean(self):
        spec = dataclasses.replace(classic_spec(alpha=0.5, n_cells=64), phi=parse("0", 1))
        diag = nonexistence_diagnostic(spec, solve(spec, SolverConfig(max_iters=20)))
        assert diag["applicable"] is True
        assert diag["flag"] is False
        assert diag["dphi_b_norm"] == 0.0

    def test_low_beta_regime_excluded(self):
        spec = classic_spec(alpha=0.5, beta=0.3, n_cells=64)
        diag = nonexistence_diagnostic(spec, solve(spec, SolverConfig(max_iters=5)))
        assert diag["applicable"] is False


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig()

    def test_radius_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(radius=0.0)

    def test_epsilon_schedule_decreasing(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon_schedule=(1e-4, 1e-3), penalty_weights=(1e3, 1e4))

    def test_penalty_weights_paired(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon_schedule=(1e-3, 1e-4), penalty_weights=(1e3,))

    def test_shrink_in_unit_interval(self):
        with pytest.raises(ValueError):
            SolverConfig(shrink=1.0)


class TestPenalizedParts:
    """_penalized is bolza_eval plus rho*dist^2, and its gradient adds the endpoint pull."""

    @pytest.mark.parametrize("kind", ["fixed_both", "periodic"])
    def test_matches_public_functions_bitwise(self, rng, kind):
        g, s = standard_constraint(kind, 2, [0.0, 0.5], [1.0, -1.0])
        spec = ProblemSpec(
            alpha=0.7, beta=0.9, grid=Grid(0.0, 1.0, 48), dim=2,
            phi=parse("xb1*xb2 + xa2", 2),
            lagrangian=parse("0.5*(u1^2 + u2^2) + x1*x2 - t*sin(x2)*u1", 2),
            constraint_map=g, target_set=s,
        )
        rho = 1e3
        z = rng.uniform(-1.0, 1.0, 48 * 2 + 2)
        value, gradient = _penalized(spec, z, rho)

        traj = _traj_from(spec, z)
        x = traj.state(spec.alpha).values
        g_val = constraint_value(spec, x[0], x[-1])
        feas = dist(s, g_val)
        assert value.hex() == (bolza_eval(spec, traj) + rho * feas * feas).hex()

        grad_u, grad_y = objective_gradient(spec, traj)
        outer = rho * dist_sq_gradient(s, g_val)
        ends = {"xa1": x[0, 0], "xa2": x[0, 1], "xb1": x[-1, 0], "xb2": x[-1, 1]}
        ga, gb = (np.array([[float(evaluate(e, ends)) for e in row] for row in spec.d_constraints(stem)])
                  for stem in ("xa", "xb"))
        w_alpha = FracWeights.build(spec.alpha, spec.grid.h, spec.grid.n_cells).weights
        gu = grad_u.values[:-1] + w_alpha[::-1, None] * (gb.T @ outer)[None, :]
        gy = grad_y + (ga.T @ outer + gb.T @ outer)
        assert gradient().tobytes() == np.concatenate([gu.ravel(), gy]).tobytes()


def reference_direction(g, s_hist, y_hist):
    """Two-loop recursion computing each 1/(s . y) afresh."""
    q = g.copy()
    alphas = []
    for s, y in zip(reversed(s_hist), reversed(y_hist)):
        rho = 1.0 / float(s @ y)
        a = rho * float(s @ q)
        alphas.append((a, rho, s, y))
        q -= a * y
    if y_hist:
        q *= float(s_hist[-1] @ y_hist[-1]) / float(y_hist[-1] @ y_hist[-1])
    for a, rho, s, y in reversed(alphas):
        q += (a - rho * float(y @ q)) * s
    return q


def test_lbfgs_direction_matches_two_loop_reference(rng):
    s_hist = [rng.standard_normal(200) for _ in range(10)]
    y_hist = [s + 0.3 * rng.standard_normal(200) for s in s_hist]
    history = [(s, y, 1.0 / float(s @ y)) for s, y in zip(s_hist, y_hist)]
    for k in range(len(history) + 1):
        g = rng.standard_normal(200)
        got = _lbfgs_direction(g, history[:k])
        assert got.tobytes() == reference_direction(g, s_hist[:k], y_hist[:k]).tobytes()
