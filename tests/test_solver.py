import dataclasses
import math
import tracemalloc

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
from fvc import frac_ops, functional, model
from fvc import solver as solver_module
from fvc import EvalError, dist, dist_sq_gradient, evaluate
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

    def test_stiff_quadratic_first_step_by_interpolation(self):
        # condition number 1e6, start dominated by the stiff direction: the
        # unit step along -g overshoots by a factor of about 1e3
        lam = np.array([1e-3, 1e3])
        start = np.ones(2)
        f0, g0 = 0.5 * float(lam @ (start * start)), lam * start
        calls = []

        def fun(z):
            calls.append(z)
            return 0.5 * float(lam @ (z * z)), lambda: lam * z

        inf = np.full(2, np.inf)
        cfg = SolverConfig()
        z, f, g, it, converged = _descend(fun, start, -inf, inf, 1e-10, 1, cfg)
        trials = len(calls) - 1
        assert it == 1
        assert f < f0
        assert trials <= 4

        # halving would take the first step 2^-k that passes the Armijo test
        def armijo(step):
            zt = start - step * g0
            decrease = cfg.sufficient_decrease * step * float(g0 @ g0)
            return 0.5 * float(lam @ (zt * zt)) <= f0 - decrease

        halving = next(k for k in range(60) if armijo(cfg.shrink**k)) + 1
        assert halving >= 10

    def test_overshoot_by_decades_undone_in_one_trial(self):
        # the unit step along -g overshoots the minimizer 1e-4 by a factor of
        # 1e4; the interpolated step is exact on a quadratic, where a floor of
        # 0.1 times the step would take the trials 1, 0.1, 0.01, 1e-3 and 1e-4
        lam = 1e4
        calls = []

        def fun(z):
            calls.append(z)
            return 0.5 * lam * float(z @ z), lambda: lam * z

        inf = np.full(1, np.inf)
        z, f, g, it, converged = _descend(fun, np.ones(1), -inf, inf, 1e-10, 1, SolverConfig())
        assert it == 1
        assert len(calls) - 1 <= 2
        assert f < 1e-20 * 0.5 * lam

    @pytest.mark.parametrize("rise, halves", [(100.0, True), (1e4, False)])
    def test_rounding_level_rise_halves(self, rise, halves):
        # every trial is rejected with the same rise over f = 1; below 1e3 eps
        # the rise is rounding noise and the step is halved exactly
        steps = []

        def fun(z):
            if z[0] == 0.0:
                return 1.0, lambda: np.array([1.0, 0.0])
            steps.append(-z[0])
            return 1.0 + rise * np.finfo(float).eps, None

        inf = np.full(2, np.inf)
        z, f, g, it, converged = _descend(fun, np.zeros(2), -inf, inf, 1e-10, 500, SolverConfig())
        assert it == 1 and not converged
        assert np.array_equal(z, np.zeros(2))
        halving = [0.5**k for k in range(len(steps))]
        assert (steps == halving) is halves
        assert steps[0] == 1.0

    def test_eval_error_shrinks_by_factor(self):
        cfg = SolverConfig(shrink=0.3)
        steps = []

        def fun(z):
            if z[0] == 0.0:
                return 1.0, lambda: np.array([1.0])
            steps.append(-z[0])
            if len(steps) <= 3:
                raise EvalError("outside the domain")
            return 0.5, lambda: np.array([1.0])

        inf = np.full(1, np.inf)
        z, f, g, it, converged = _descend(fun, np.zeros(1), -inf, inf, 1e-10, 1, cfg)
        expected = [1.0]
        for _ in range(3):
            expected.append(expected[-1] * cfg.shrink)
        assert steps == expected
        assert f == 0.5 and z[0] == -expected[-1]

    # _descend scales with s . s / s . y and switches to s . y / y . y for the
    # rest of the descent after a failed long search, an EvalError or a held bound

    @staticmethod
    def spy(monkeypatch, flags):
        """Record (short, pairs in the history) of every _lbfgs_direction call."""
        two_loop = solver_module._lbfgs_direction

        def recorded(g, history, short=False):
            flags.append((short, len(history)))
            return two_loop(g, history, short=short)

        monkeypatch.setattr(solver_module, "_lbfgs_direction", recorded)

    @staticmethod
    def quadratic(lam, center=0.0):
        return lambda z: (0.5 * float(lam @ ((z - center) ** 2)), lambda: lam * (z - center))

    def test_unconstrained_quadratic_keeps_long_scaling(self, monkeypatch):
        flags = []
        self.spy(monkeypatch, flags)
        inf = np.full(10, np.inf)
        *_, converged = _descend(self.quadratic(np.logspace(0, 1, 10)), np.ones(10), -inf, inf,
                                 1e-10, 100, SolverConfig())
        assert converged and len(flags) > 3
        assert not any(short for short, _ in flags)

    @pytest.mark.parametrize("recovers", [True, False])
    def test_failed_long_search_retried_with_short_scaling(self, monkeypatch, recovers):
        # every trial along a long-scaled direction built from a history is a
        # clear rise; short-scaled trials see the quadratic unless nothing recovers
        flags = []
        self.spy(monkeypatch, flags)
        quad = self.quadratic(np.array([1.0, 10.0]))

        def fun(z):
            short, pairs = flags[-1] if flags else (False, 0)
            if pairs and (not short or not recovers):
                return 1e3, None
            return quad(z)

        inf = np.full(2, np.inf)
        z, f, g, it, converged = _descend(fun, np.ones(2), -inf, inf, 1e-10, 100, SolverConfig())
        # iteration 2 is the first with a pair: one long search, then one short retry
        assert flags[:3] == [(False, 0), (False, 1), (True, 1)]
        assert all(short for short, _ in flags[2:])
        if recovers:
            assert converged and len(flags) > 3
        else:
            assert (it, converged, len(flags)) == (2, False, 3)

    def test_eval_error_switches_to_short_scaling(self, monkeypatch):
        flags = []
        self.spy(monkeypatch, flags)
        quad = self.quadratic(np.array([1.0, 10.0]))
        raised = []

        def fun(z):
            if flags and flags[-1][1] and not raised:
                raised.append(z)
                raise EvalError("outside the domain")
            return quad(z)

        inf = np.full(2, np.inf)
        *_, converged = _descend(fun, np.ones(2), -inf, inf, 1e-10, 100, SolverConfig())
        # the search that met the error goes on along its direction, with no retry
        assert converged and len(raised) == 1
        assert flags[:3] == [(False, 0), (False, 1), (True, 2)]
        assert all(short for short, _ in flags[2:])

    @pytest.mark.parametrize("hi, held", [(1.0, True), (np.inf, False)])
    def test_held_bound_switches_to_short_scaling(self, monkeypatch, hi, held):
        # z[0] starts at hi = 1 with the minimizer at 2 beyond it, so it is held
        # there throughout; z[1] starts at lo = 0 pulled inward, which is not held
        flags = []
        self.spy(monkeypatch, flags)
        fun = self.quadratic(np.logspace(0, 1, 5), np.array([2.0, 0.5, 0.5, 0.5, 0.5]))
        lo, hi = np.zeros(5), np.array([hi] + [np.inf] * 4)
        z0 = np.array([1.0, 0.0, 1.0, 1.0, 1.0])
        z, *_, converged = _descend(fun, z0, lo, hi, 1e-10, 100, SolverConfig())
        assert converged and len(flags) > 3
        assert [short for short, _ in flags] == [held] * len(flags)
        assert z[0] == (1.0 if held else pytest.approx(2.0))


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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_penalty_is_rejected_step(self):
        # every compiled part is finite at z = (1, ..., 1, 0); only rho * dist^2
        # overflows, and it does so without a RuntimeWarning
        spec = ProblemSpec(
            alpha=1.0, beta=1.0, grid=Grid(0.0, 1.0, 16), dim=1,
            phi=parse("-xb1", 1), lagrangian=parse("0.5*u1^2", 1),
            constraint_map=(parse("1e200*xb1", 1),), target_set=model.Singleton((0.0,)),
        )
        with pytest.raises(solver_module.SolverError, match="penalized objective is not finite"):
            _penalized(spec, np.concatenate([np.ones(16), [0.0]]), 1e3)
        # every trial step down to machine epsilon overflows, so each stage's line search
        # stalls at the start point
        result = solve(spec)
        assert not result.converged
        assert result.iterations == len(SolverConfig().penalty_weights)
        assert result.objective == 0.0 and result.feasibility_distance == 0.0

    def test_zero_progress_stops_early(self):
        # late in this solve only steps that leave the objective unchanged pass
        # the Armijo test; the solve must stop instead of using its budget.
        # -3.601224389145994 is where a halving-only search stalls; the
        # interpolating search must stall no higher.
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
        assert math.isclose(result.objective, -3.7321678887983096, rel_tol=1e-12)
        assert result.objective <= -3.601224389145994

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
        assert math.isclose(result.objective, 0.20197346201665065, rel_tol=1e-12)

    def test_three_dim_fixed_both_converges(self):
        # the solve that needs the rounding-level fallback: interpolating on
        # rises at rounding level too ends this solve unconverged
        lagrangian = (
            "0.5*(u1^2 + u2^2 + u3^2) + 0.5*(x1^2 + x2^2 + x3^2)"
            " + 0.2*sin(x1)*u2 + 0.1*x3*u1 + 0.05*t*x2^2"
        )
        g, s = standard_constraint("fixed_both", 3, [0.0] * 3, [1.0] * 3)
        spec = ProblemSpec(
            alpha=0.6, beta=0.7, grid=Grid(0.0, 1.0, 64), dim=3,
            phi=parse("0", 3), lagrangian=parse(lagrangian, 3),
            constraint_map=g, target_set=s,
        )
        result = solve(spec)
        assert result.converged
        assert result.iterations < 2000

    @pytest.mark.parametrize("n_cells", [512, 2048, 8192])
    def test_free_iterations_independent_of_mesh(self, n_cells):
        # the long scaling follows the cell-control curvature h; the short one
        # took 11, 15 and 9 iterations here
        result = solve(classic_spec(n_cells=n_cells, alpha=0.75))
        assert result.converged
        assert result.iterations <= 6

    def test_iteration_budget_respected(self):
        spec = classic_spec(n_cells=128)
        result = solve(spec, SolverConfig(max_iters=1))
        assert result.iterations <= 1
        assert not result.converged


@pytest.mark.parametrize("kind", [None, "free", "fixed_both", "periodic"])
def test_solve_reports_the_cost_of_its_trajectory(kind):
    spec = classic_spec(n_cells=64, alpha=0.7)
    if kind is not None:
        g, s = standard_constraint(kind, 1, 0.0, 1.0)
        spec = dataclasses.replace(spec, phi=parse("0", 1), constraint_map=g, target_set=s)
    result = solve(spec)
    assert result.objective.hex() == bolza_eval(spec, result.traj).hex()
    want = 0.0
    if kind is not None:
        x = result.traj.state(spec.alpha).values
        want = dist(spec.target_set, constraint_value(spec, x[0], x[-1]))
    assert result.feasibility_distance.hex() == want.hex()


class TestEvaluationCounts:
    """Each trial point makes one convolution; gradients only at accepted points."""

    @staticmethod
    def _count(monkeypatch, holder, name, counts, key=None):
        original = getattr(holder, name)
        key = key or name

        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(holder, name, counted)

    @staticmethod
    def _fixed_both_spec():
        g, s = standard_constraint("fixed_both", 1, 0.0, 1.0)
        return dataclasses.replace(
            classic_spec(n_cells=128, alpha=0.7), phi=parse("0", 1),
            constraint_map=g, target_set=s,
        )

    def test_constrained_solve(self, monkeypatch):
        spec = self._fixed_both_spec()
        config = SolverConfig()
        counts = {}
        self._count(monkeypatch, model, "reconstruct_trajectory", counts, "state")
        self._count(monkeypatch, solver_module, "_penalized", counts)
        self._count(monkeypatch, solver_module, "_cost", counts)
        self._count(monkeypatch, solver_module, "_cost_gradient", counts)
        # kernels of trial-point states, transposed kernels in gradients, and
        # every convolution, which all run through frac_ops._volterra
        self._count(monkeypatch, solver_module, "_left_sums", counts, "forward")
        self._count(monkeypatch, functional, "_left_sums", counts, "transpose")
        self._count(monkeypatch, frac_ops, "_volterra", counts, "convolutions")
        result = solve(spec, config)
        assert result.iterations < config.max_iters
        assert counts["forward"] == counts["_cost"] == counts["_penalized"]
        # one gradient at the start and one per iteration: later stages start
        # from the value and gradient handed on from the stage before
        assert counts["_cost_gradient"] == result.iterations + 1
        assert counts["transpose"] == counts["_cost_gradient"]
        # the final pair reuses the last evaluated state; the report adds its
        # two right integrals. Two inputs are all zero and skip the FFT: the
        # start's state (u = 0) and its transposed sum (dL/dx = x = 0 there)
        assert counts["convolutions"] == counts["forward"] + counts["transpose"] + 2 - 2 == 40

        counts.clear()
        fresh = TrajectoryPair(result.traj.u, result.traj.y)
        build_report(spec, fresh)
        assert counts["state"] == 1

    def test_nothing_evaluated_after_descent(self, monkeypatch):
        # the objective and feasibility are those of the last point given a
        # gradient, so no cost or distance is computed for the final pair
        counts = {}
        self._count(monkeypatch, functional, "_cost", counts)
        self._count(monkeypatch, functional, "dist", counts)
        result = solve(self._fixed_both_spec())
        assert result.converged and result.feasibility_distance > 0.0
        assert counts == {}

    def test_grid_functions_do_not_grow_with_evaluations(self, monkeypatch):
        spec = dataclasses.replace(self._fixed_both_spec(), alpha=0.5, beta=0.5)
        built = {}
        self._count(monkeypatch, frac_ops.GridFn, "__post_init__", built)
        penalized = {}
        self._count(monkeypatch, solver_module, "_penalized", penalized)
        builds = []
        for max_iters in (5, SolverConfig().max_iters):
            built.clear()
            penalized.clear()
            solve(spec, SolverConfig(max_iters=max_iters))
            builds.append(built["__post_init__"])
        assert penalized["_penalized"] > 40
        assert builds[0] == builds[1] <= 12

    def test_stage_starts_handed_on(self, monkeypatch):
        # each later stage starts where the last one ended, with the value and
        # gradient at its own rho and no evaluation of its own
        spec = self._fixed_both_spec()
        config = SolverConfig()
        starts, descend = [], solver_module._descend

        def recorded(fun, z, lo, hi, tol, max_iters, cfg, start=None):
            starts.append((z, None if start is None else (start[0], start[1].copy())))
            return descend(fun, z, lo, hi, tol, max_iters, cfg, start)

        monkeypatch.setattr(solver_module, "_descend", recorded)
        assert solve(spec, config).converged
        assert len(starts) == 4 and starts[0][1] is None
        for (z, (f, g)), rho in zip(starts[1:], config.penalty_weights[1:]):
            value, gradient = _penalized(spec, z, rho)
            assert f == pytest.approx(value, rel=1e-12)
            fresh = gradient()
            assert float(np.linalg.norm(g - fresh)) <= 1e-12 * float(np.linalg.norm(fresh))

    def test_sweep_evaluations(self, monkeypatch):
        # the 12 solves of perfbench's constrained_sweep, built here: 463
        # penalized evaluations with a 0.1 floor on the interpolated step and
        # a fresh evaluation at the start of each stage
        kinds = {"fixed_both": ("0", "0.5*(x1^2 + u1^2)"),
                 "periodic": ("xb1", "0.5*(x1^2 + u1^2) - t*x1")}
        counts = {}
        self._count(monkeypatch, solver_module, "_penalized", counts)
        for kind, (phi, lagrangian) in kinds.items():
            g, s = standard_constraint(kind, 1, [0.0], [1.0])
            for alpha in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5):
                spec = ProblemSpec(
                    alpha=alpha, beta=1.0, grid=Grid(0.0, 1.0, 1024), dim=1,
                    phi=parse(phi, 1), lagrangian=parse(lagrangian, 1),
                    constraint_map=g, target_set=s,
                )
                assert solve(spec).converged
        assert counts["_penalized"] <= 300

    def test_penalized_calls_constrained(self, monkeypatch):
        # a halving-only search needs 253 penalized evaluations on this solve
        g, s = standard_constraint("fixed_both", 1, 0.0, 1.0)
        spec = dataclasses.replace(
            classic_spec(n_cells=128, alpha=0.7), phi=parse("0", 1),
            constraint_map=g, target_set=s,
        )
        counts = {}
        self._count(monkeypatch, solver_module, "_penalized", counts)
        result = solve(spec)
        assert result.converged
        assert counts["_penalized"] <= 60


THREE_DIM_LAGRANGIAN = (
    "0.5*(u1^2 + u2^2 + u3^2) + 0.5*(x1^2 + x2^2 + x3^2)"
    " + 0.2*sin(x1)*u2 + 0.1*x3*u1 + 0.05*t*x2^2"
)


class TestLargeRhoStages:
    """Penalty stages whose first steps overshoot by decades at large rho."""

    def test_fixed_initial_few_evaluations(self, monkeypatch):
        # a 0.1 floor on the interpolated step took 2016 penalized evaluations
        g, s = standard_constraint("fixed_initial", 1, [0.0])
        spec = dataclasses.replace(classic_spec(n_cells=1024, alpha=0.6, beta=0.7),
                                   constraint_map=g, target_set=s)
        counts = {}
        TestEvaluationCounts._count(monkeypatch, solver_module, "_penalized", counts)
        assert solve(spec).converged
        assert counts["_penalized"] <= 60

    def test_three_dim_fixed_both_converges(self):
        # with a 0.1 floor the rho = 1e6 stage stalled after 217 iterations
        g, s = standard_constraint("fixed_both", 3, [0.0, 0.5, -0.5], [1.0, 1.0, 1.0])
        spec = ProblemSpec(
            alpha=0.9, beta=0.8, grid=Grid(0.0, 1.0, 512), dim=3,
            phi=parse("0", 3), lagrangian=parse(THREE_DIM_LAGRANGIAN, 3),
            constraint_map=g, target_set=s,
        )
        result = solve(spec)
        assert result.converged
        assert result.feasibility_distance < 1e-5


class TestWholeSpaceTarget:
    def test_free_constraint_solves_as_unconstrained(self, monkeypatch):
        # the distance to the whole space is 0, so no penalty stage can matter
        plain = classic_spec(n_cells=256, alpha=0.8)
        g, s = standard_constraint("free", 1)
        free = dataclasses.replace(plain, constraint_map=g, target_set=s)
        want = solve(plain)
        counts = {}
        TestEvaluationCounts._count(monkeypatch, solver_module, "_penalized", counts)
        got = solve(free)
        assert counts["_penalized"] == 6
        assert float(got.objective).hex() == float(want.objective).hex()
        assert got.iterations == want.iterations == 5
        assert got.traj.u.values.tobytes() == want.traj.u.values.tobytes()
        assert got.traj.y.tobytes() == want.traj.y.tobytes()
        assert got.feasibility_distance == 0.0


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

    @pytest.mark.parametrize("overrides", [
        {"radius": math.nan},
        {"epsilon_schedule": (math.nan,), "penalty_weights": (1e3,)},
        {"epsilon_schedule": (1e-3, math.nan), "penalty_weights": (1e3, 1e4)},
        {"epsilon_schedule": (1e-3,), "penalty_weights": (math.nan,)},
    ])
    def test_nan_rejected(self, overrides):
        with pytest.raises(ValueError):
            SolverConfig(**overrides)

    def test_infinite_radius_means_no_bound(self):
        assert SolverConfig(radius=math.inf).radius == math.inf

    def test_shrink_in_unit_interval(self):
        with pytest.raises(ValueError):
            SolverConfig(shrink=1.0)

    @pytest.mark.parametrize("value", [0.0, 1.0, 1.5])
    def test_sufficient_decrease_in_unit_interval(self, value):
        with pytest.raises(ValueError):
            SolverConfig(sufficient_decrease=value)


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

    def test_non_finite_state_raises_solver_error(self):
        # a finite point whose state x = y + I^alpha[u] overflows
        spec = classic_spec(n_cells=32, alpha=0.7)
        z = np.full(33, 1e308)
        with np.errstate(all="ignore"), pytest.raises(solver_module.SolverError, match="not finite"):
            _penalized(spec, z, 0.0)

    def test_non_finite_state_is_a_rejected_step(self, monkeypatch):
        spec = classic_spec(n_cells=64, alpha=0.7)
        want = solve(spec)
        original = solver_module._left_sums
        calls = []

        def poisoned(*args):
            out = original(*args)
            calls.append(1)
            # the second forward kernel call is the first trial point's
            return np.full_like(out, np.inf) if len(calls) == 2 else out

        monkeypatch.setattr(solver_module, "_left_sums", poisoned)
        got = solve(spec)
        assert len(calls) > 2
        assert got.converged
        assert math.isfinite(got.objective)
        assert got.objective == pytest.approx(want.objective, rel=1e-6)


def reference_direction(g, s_hist, y_hist):
    """Two-loop recursion computing each 1/(s . y) afresh, with the long
    scaling s . s / s . y."""
    q = g.copy()
    alphas = []
    for s, y in zip(reversed(s_hist), reversed(y_hist)):
        rho = 1.0 / float(s @ y)
        a = rho * float(s @ q)
        alphas.append((a, rho, s, y))
        q -= a * y
    if y_hist:
        q *= float(s_hist[-1] @ s_hist[-1]) * (1.0 / float(s_hist[-1] @ y_hist[-1]))
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


def list_descend(fun, z, lo, hi, tol, max_iters, cfg, start=None):
    """The descent with a fresh (s, y) pair per step in a plain list: the
    reference for the preallocated pair block of _descend, with the same
    switches from the long to the short scaling, the same two-metric
    projection on held components and the same optional start."""
    SolverError = solver_module.SolverError
    z = np.clip(z, lo, hi)
    if start is None:
        f, grad = fun(z)
        g = grad()
    else:
        f, g = start
    eps = np.finfo(float).eps
    history = []
    short = False
    it = 0
    while it < max_iters:
        pg = z - np.clip(z - g, lo, hi)
        if float(np.linalg.norm(pg)) <= tol:
            return z, f, g, it, True
        held = (z <= lo) & (g > 0) | (z >= hi) & (g < 0)
        short = short or bool(held.any())
        free_g = np.where(held, 0.0, g)  # the two-metric projection: held components stay put
        for _ in range(2):
            if short:
                d = -solver_module._lbfgs_direction(free_g, history, short=True)
            else:
                d = -solver_module._lbfgs_direction(free_g, history)
            d[held] = 0.0
            if float(d @ g) >= 0.0:
                d = -g
                history = []
            long_shaped = not short and len(history) > 0
            step = 1.0
            accepted = False
            while step >= eps:
                z_new = np.clip(z + step * d, lo, hi)
                if np.array_equal(z_new, z):
                    break
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
                    short = True
                if slope < 0.0 and 1e3 * eps * abs(f) < rise < math.inf:
                    t = 0.5 * slope * step / (slope - rise)
                    step = min(t, cfg.shrink * step)
                else:
                    step *= cfg.shrink
            if accepted or not long_shaped:
                break
            short = True
        it += 1
        if not accepted:
            return z, f, g, it, float(np.linalg.norm(pg)) <= tol
        s, yv = z_new - z, g_new - g
        sy = float(s @ yv)
        if sy > 1e-14 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            history.append((s, yv, 1.0 / sy))
            if len(history) > cfg.memory:
                history.pop(0)
        z, f, g = z_new, f_new, g_new
    pg = z - np.clip(z - g, lo, hi)
    return z, f, g, it, float(np.linalg.norm(pg)) <= tol


def assert_same_descent(got, want):
    (z, f, g, it, conv), (z0, f0, g0, it0, conv0) = got, want
    assert z.tobytes() == z0.tobytes()
    assert float(f).hex() == float(f0).hex()
    assert g.tobytes() == g0.tobytes()
    assert (it, conv) == (it0, conv0)


def fixed_both_spec(alpha=0.7, n_cells=128):
    """x(0) = 0, x(1) = 1, phi = 0, classic L; the default alpha = 0.7, n = 128
    takes stages of 6/5/3/3 iterations."""
    g, s = standard_constraint("fixed_both", 1, [0.0], [1.0])
    return ProblemSpec(
        alpha=alpha, beta=1.0, grid=Grid(0.0, 1.0, n_cells), dim=1, phi=parse("0", 1),
        lagrangian=parse("0.5*(x1^2 + u1^2)", 1), constraint_map=g, target_set=s,
    )


def test_radius_bound_held_near_b_converges():
    # u* grows without bound near b for beta > alpha, so |u| <= 5 binds there; with
    # the held cells left out of the direction the solve takes under 100 iterations,
    # and without it spends a 5000-iteration budget
    spec = fixed_both_spec(alpha=0.6, n_cells=1024)
    result = solve(spec, SolverConfig(radius=5.0, max_iters=1000))
    assert result.converged
    assert float(np.max(np.abs(result.traj.u.values))) == 5.0


class TestPairBlock:
    """_descend keeps its (s, y) pairs in one block and matches list_descend bitwise."""

    @staticmethod
    def quadratic(lam):
        def fun(z):
            return 0.5 * float(lam @ (z * z)), lambda: lam * z
        return fun

    def run_both(self, fun, z0, cfg, max_iters, lo=None, hi=None):
        lo = np.full(z0.size, -np.inf) if lo is None else lo
        hi = np.full(z0.size, np.inf) if hi is None else hi
        got = _descend(fun, z0, lo, hi, 1e-12, max_iters, cfg)
        assert_same_descent(got, list_descend(fun, z0, lo, hi, 1e-12, max_iters, cfg))
        return got

    def test_rows_wrap_on_stiff_quadratic(self):
        lam = np.logspace(-3, 3, 40)
        z0 = np.linspace(1.0, -1.0, 40)
        _, _, _, it, _ = self.run_both(self.quadratic(lam), z0, SolverConfig(memory=3), 200)
        assert it > 10  # more accepted pairs than the block has rows

    def test_box_bound_case(self):
        lam = np.logspace(-2, 2, 30)
        lo, hi = np.full(30, -0.2), np.full(30, 0.3)
        fun = lambda z: (0.5 * float(lam @ ((z - 1.0) ** 2)), lambda: lam * (z - 1.0))
        self.run_both(fun, np.zeros(30), SolverConfig(memory=4), 100, lo, hi)

    def test_pairs_failing_curvature_test(self):
        # f = sum(z^4/4 - z^2/2) is concave near 0, so the first pairs have s . y < 0
        accepted = []

        def fun(z):
            def grad():
                accepted.append(z)
                return z**3 - z
            return float(np.sum(z**4 / 4 - z**2 / 2)), grad

        z0 = np.array([0.1, -0.05, 0.02, 0.3])
        _, _, _, it, _ = self.run_both(fun, z0, SolverConfig(memory=2), 100)
        n = len(accepted) // 2  # the first run's accepted points
        curv = [float((b - a) @ ((b**3 - b) - (a**3 - a)))
                for a, b in zip(accepted[:n], accepted[1:n])]
        assert it > 5
        assert min(curv) < 0.0 < max(curv)

    def test_steepest_descent_memory_zero(self):
        lam = np.logspace(-1, 1, 20)
        self.run_both(self.quadratic(lam), np.ones(20), SolverConfig(memory=0), 50)

    def test_reset_returns_every_row(self, monkeypatch):
        # every fifth direction is flipped uphill, forcing the d . g >= 0 reset;
        # rows held by the dropped history must come back for the next pairs
        calls = []
        two_loop = solver_module._lbfgs_direction

        def flipped(g, history):
            calls.append(len(history))
            q = two_loop(g, history)
            return -q if len(calls) % 5 == 0 else q

        monkeypatch.setattr(solver_module, "_lbfgs_direction", flipped)
        lam = np.logspace(-3, 2, 25)
        _, _, _, it, _ = self.run_both(self.quadratic(lam), np.ones(25), SolverConfig(memory=3), 60)
        assert it > 20 and 3 in calls

    def test_fixed_both_solve(self, monkeypatch):
        block_descend, stages = solver_module._descend, []

        def both(fun, z, lo, hi, tol, max_iters, cfg, start=None):
            got = block_descend(fun, z, lo, hi, tol, max_iters, cfg, start)
            assert_same_descent(got, list_descend(fun, z, lo, hi, tol, max_iters, cfg, start))
            stages.append(got[3])
            return got

        monkeypatch.setattr(solver_module, "_descend", both)
        result = solve(fixed_both_spec())
        assert stages == [6, 5, 3, 3] and result.converged

    def test_few_large_live_blocks(self):
        # a fresh (s, y) pair per step (list_descend) keeps 22 such blocks alive
        n, cfg = 4096, SolverConfig(memory=10)
        lam = np.logspace(-4, 0, n)
        peak = []

        def fun(z):
            snap = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, solver_module.__file__)])
            peak.append(sum(1 for t in snap.traces if t.size >= n * 8))
            return 0.5 * float(lam @ (z * z)), lambda: lam * z

        inf = np.full(n, np.inf)
        tracemalloc.start()
        try:
            _, _, _, it, _ = _descend(fun, np.ones(n), -inf, inf, 1e-300, 60, cfg)
        finally:
            tracemalloc.stop()
        assert it == 60
        assert max(peak) <= 4


class TestSkippedStages:
    """converged holds only when the last penalty stage ran and met its tolerance."""

    def test_budget_spent_in_first_stage_not_converged(self):
        # the rho = 1e3 stage converges in exactly 6 iterations; three stages never run
        result = solve(fixed_both_spec(), SolverConfig(max_iters=6))
        assert result.iterations == 6
        assert not result.converged
        assert result.feasibility_distance > 1e-4

    @pytest.mark.parametrize("max_iters", [11, 14])
    def test_budget_ends_between_stages(self, max_iters):
        assert not solve(fixed_both_spec(), SolverConfig(max_iters=max_iters)).converged

    def test_exact_budget_for_every_stage(self):
        result = solve(fixed_both_spec(), SolverConfig(max_iters=17))
        assert result.iterations == 17 and result.converged
        assert result.feasibility_distance < 1e-6


class TestIterationBudgetValidation:
    @pytest.mark.parametrize("max_iters", [0, -3, 2.5, True, None])
    def test_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=max_iters)


class TestMemoryValidation:
    @pytest.mark.parametrize("memory", [-1, 2.5, 3.0, True, "3", None])
    def test_rejected(self, memory):
        with pytest.raises(ValueError):
            SolverConfig(memory=memory)

    def test_zero_memory_solves(self):
        spec = classic_spec(n_cells=64)
        result = solve(spec, SolverConfig(memory=0))
        assert result.converged
        assert abs(result.objective - solve(spec).objective) < 1e-6
