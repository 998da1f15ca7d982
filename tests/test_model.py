import dataclasses
import pickle

import numpy as np
import pytest

from fvc import (
    Ball,
    Box,
    Grid,
    GridFn,
    ProblemSpec,
    Product,
    Singleton,
    TrajectoryPair,
    WholeSpace,
    bolza_eval,
    build_report,
    evaluate,
    parse,
    reconstruct_trajectory,
    standard_constraint,
    validate,
)
from fvc import model
from fvc.expr import EvalError

from conftest import classic_spec


class TestSets:
    def test_dims(self):
        assert WholeSpace(3).dim == 3
        assert Singleton((0.0, 1.0)).dim == 2
        assert Box((0.0,), (1.0,)).dim == 1
        assert Ball((0.0, 0.0), 2.0).dim == 2
        assert Product((WholeSpace(1), Singleton((0.0,)))).dim == 2

    def test_box_ordering_enforced(self):
        with pytest.raises(ValueError):
            Box((1.0,), (0.0,))

    @pytest.mark.parametrize("make", [
        lambda: Singleton((0.0, float("nan"))),
        lambda: Singleton((float("inf"),)),
        lambda: Box((float("nan"),), (1.0,)),
        lambda: Box((0.0,), (float("nan"),)),
    ])
    def test_non_finite_points_and_nan_bounds_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_box_bounds_of_unequal_length(self):
        with pytest.raises(ValueError, match="equal length"):
            Box((0.0, 0.0), (1.0,))

    def test_box_infinite_bounds(self):
        b = Box((-np.inf,), (np.inf,))
        assert b.dim == 1

    def test_ball_negative_radius(self):
        with pytest.raises(ValueError):
            Ball((0.0,), -1.0)

    def test_ball_nan_radius(self):
        with pytest.raises(ValueError, match="radius"):
            Ball((0.0,), float("nan"))

    @pytest.mark.parametrize("center", [(float("nan"),), (0.0, float("inf"))])
    def test_ball_non_finite_center(self, center):
        with pytest.raises(ValueError, match="center"):
            Ball(center, 1.0)

    def test_empty_product(self):
        with pytest.raises(ValueError):
            Product(())


class TestValidate:
    def test_classic_instance_valid(self):
        assert validate(classic_spec()) == []

    def test_alpha_out_of_range(self):
        spec = classic_spec()
        import dataclasses

        bad = dataclasses.replace(spec, alpha=1.5)
        issues = validate(bad)
        assert any("alpha" in s for s in issues)

    def test_dim_zero(self):
        bad = dataclasses.replace(classic_spec(), dim=0)
        assert "dim: must be a positive integer: 0" in validate(bad)

    def test_beta_nonpositive(self):
        import dataclasses

        bad = dataclasses.replace(classic_spec(), beta=0.0)
        assert any("beta" in s for s in validate(bad))

    def test_constraint_pairing(self):
        spec = ProblemSpec(
            alpha=1.0,
            beta=1.0,
            grid=Grid(0.0, 1.0, 8),
            dim=1,
            phi=parse("0", 1),
            lagrangian=parse("u1^2", 1),
            constraint_map=(parse("xa1", 1),),
            target_set=None,
        )
        assert any("constraint" in s for s in validate(spec))

    def test_constraint_dimension_mismatch(self):
        spec = ProblemSpec(
            alpha=1.0,
            beta=1.0,
            grid=Grid(0.0, 1.0, 8),
            dim=1,
            phi=parse("0", 1),
            lagrangian=parse("u1^2", 1),
            constraint_map=(parse("xa1", 1),),
            target_set=WholeSpace(2),
        )
        assert any("dimension" in s for s in validate(spec))

    def test_phi_cannot_use_running_variables(self):
        spec = ProblemSpec(
            alpha=1.0,
            beta=1.0,
            grid=Grid(0.0, 1.0, 8),
            dim=1,
            phi=parse("x1", 1),
            lagrangian=parse("u1^2", 1),
        )
        assert any("phi" in s for s in validate(spec))

    def test_lagrangian_cannot_use_endpoint_variables(self):
        spec = ProblemSpec(
            alpha=1.0,
            beta=1.0,
            grid=Grid(0.0, 1.0, 8),
            dim=1,
            phi=parse("xb1", 1),
            lagrangian=parse("xa1 + u1", 1),
        )
        assert any("lagrangian" in s for s in validate(spec))

    def test_endpoint_terms_cannot_use_t(self):
        # endpoint terms are evaluated at x(a), x(b) only; t is not bound there
        g, s = standard_constraint("fixed_initial", 1, [0.0])
        spec = dataclasses.replace(
            classic_spec(n_cells=8), phi=parse("t*xb1", 1),
            constraint_map=(parse("xa1 + t", 1),), target_set=s,
        )
        issues = validate(spec)
        assert "phi: uses non-endpoint variables ['t']" in issues
        assert "constraint[0]: uses non-endpoint variables ['t']" in issues


    def test_bad_ball_reported(self):
        # a ball that skipped its own checks is still caught by validate
        ball = Ball((0.0, 0.0), 1.0)
        object.__setattr__(ball, "radius", float("nan"))
        object.__setattr__(ball, "center", (0.0, float("inf")))
        g, _ = standard_constraint("fixed_initial", 1, [0.0])
        spec = dataclasses.replace(classic_spec(n_cells=8), constraint_map=g, target_set=ball)
        issues = validate(spec)
        assert "target_set.ball: radius must be nonnegative, got nan" in issues
        assert "target_set.ball: center must be finite" in issues


class TestDerivativeAccessors:
    def test_d_phi(self):
        spec = classic_spec()
        (da,) = spec.d_phi("xa")
        (db,) = spec.d_phi("xb")
        assert evaluate(da, {"xa1": 3.0, "xb1": 4.0}) == 0.0
        assert evaluate(db, {"xa1": 3.0, "xb1": 4.0}) == 1.0

    def test_d2_lagrangian(self):
        spec = classic_spec()
        rows = spec.d2_lagrangian("u", "u")
        assert evaluate(rows[0][0], {"x1": 9.0, "u1": -1.0, "t": 0.2}) == 1.0

    def test_d_constraints(self):
        g, s = standard_constraint("periodic", 2)
        spec = ProblemSpec(
            alpha=1.0,
            beta=1.0,
            grid=Grid(0.0, 1.0, 8),
            dim=2,
            phi=parse("0", 2),
            lagrangian=parse("u1^2 + u2^2", 2),
            constraint_map=g,
            target_set=s,
        )
        rows = spec.d_constraints("xa")
        env = {f"{s}{i}": 0.0 for s in ("xa", "xb") for i in (1, 2)}
        jac = [[float(evaluate(c, env)) for c in row] for row in rows]
        assert jac == [[-1.0, 0.0], [0.0, -1.0]]


class TestStandardConstraint:
    def test_free(self):
        g, s = standard_constraint("free", 2)
        assert len(g) == 4
        assert s == WholeSpace(4)

    def test_fixed_initial(self):
        g, s = standard_constraint("fixed_initial", 1, x_a=[2.0])
        assert isinstance(s, Product)
        assert s.factors[0] == Singleton((2.0,))
        assert s.factors[1] == WholeSpace(1)

    def test_fixed_both(self):
        g, s = standard_constraint("fixed_both", 1, 0.0, 1.0)
        assert s == Singleton((0.0, 1.0))

    def test_periodic(self):
        g, s = standard_constraint("periodic", 1)
        assert s == Singleton((0.0,))
        env = {"xa1": 2.0, "xb1": 5.0}
        assert evaluate(g[0], env) == 3.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            standard_constraint("clamped", 1)

    @pytest.mark.parametrize("kind, x_a, x_b, message", [
        ("fixed_initial", None, None, "fixed_initial needs x_a"),
        ("fixed_both", [0.0], None, "fixed_both needs x_a and x_b"),
        ("fixed_both", None, [1.0], "fixed_both needs x_a and x_b"),
    ])
    def test_missing_endpoint_value(self, kind, x_a, x_b, message):
        with pytest.raises(ValueError, match=message):
            standard_constraint(kind, 1, x_a, x_b)


class TestTrajectoryPair:
    def test_dimension_checked(self):
        g = Grid(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            TrajectoryPair(GridFn.constant(g, 0.0), np.zeros(2))

    def test_radius_enforced(self):
        g = Grid(0.0, 1.0, 8)
        u = GridFn.constant(g, 3.0)
        with pytest.raises(ValueError):
            TrajectoryPair(u, np.zeros(1), radius=2.0)
        TrajectoryPair(u, np.zeros(1), radius=3.0)

    def test_state_starts_at_y(self):
        g = Grid(0.0, 1.0, 8)
        traj = TrajectoryPair(GridFn.constant(g, 1.0), np.array([4.0]))
        for alpha in (0.5, 1.0):
            assert traj.state(alpha).values[0, 0] == 4.0

    def test_state_memoized_per_alpha(self):
        g = Grid(0.0, 1.0, 16)
        traj = TrajectoryPair(GridFn(g, np.cos(3.0 * g.nodes())), np.array([0.5]))
        x_half = traj.state(0.5)
        assert traj.state(0.5) is x_half
        x_one = traj.state(1.0)
        assert x_one is not x_half
        assert not np.array_equal(x_one.values, x_half.values)
        for alpha, x in ((0.5, x_half), (1.0, x_one)):
            fresh = reconstruct_trajectory(traj.u, traj.y, alpha)
            assert np.array_equal(x.values, fresh.values)
        assert not x_half.values.flags.writeable

    def test_state_builds_one_grid_function(self, monkeypatch):
        g = Grid(0.0, 1.0, 16)
        traj = TrajectoryPair(GridFn(g, np.cos(3.0 * g.nodes())), np.array([0.5]))
        built = []
        original = GridFn.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(GridFn, "__post_init__", counting)
        for alpha in (0.5, 0.5, 1.0):
            traj.state(alpha)
        assert len(built) == 2  # one per new alpha, none for the cached one

    def test_replace_does_not_inherit_state(self):
        g = Grid(0.0, 1.0, 16)
        traj = TrajectoryPair(GridFn.constant(g, 1.0), np.array([0.0]))
        before = traj.state(0.7)
        moved = dataclasses.replace(traj, y=np.array([2.0]))
        assert np.array_equal(moved.state(0.7).values, before.values + 2.0)
        assert traj.state(0.7) is before

    def test_state_independent_of_callers_buffers(self):
        g = Grid(0.0, 1.0, 8)
        u_buffer = np.zeros((g.n_nodes, 2))
        y_buffer = np.zeros(3)
        traj = TrajectoryPair(GridFn(g, u_buffer[:, 1:]), y_buffer[2:])
        before = traj.state(0.5)
        u_buffer[:, 1] = 1.0
        y_buffer[2] = 5.0
        assert np.all(traj.u.values == 0.0) and traj.y[0] == 0.0
        assert traj.state(0.5) is before
        assert np.array_equal(before.values, reconstruct_trajectory(traj.u, traj.y, 0.5).values)


class TestPlan:
    """The compiled evaluation plan each ProblemSpec builds on first use."""

    def test_built_once_and_fresh_after_replace(self, rng):
        spec = classic_spec(n_cells=32, alpha=0.8)
        assert "_plan" not in vars(spec)
        traj = TrajectoryPair(GridFn(spec.grid, rng.standard_normal(33)), np.array([0.3]))
        value = bolza_eval(spec, traj)
        plan = spec._plan
        build_report(spec, traj)
        assert spec._plan is plan
        other = dataclasses.replace(spec, beta=0.6)
        assert "_plan" not in vars(other)
        assert bolza_eval(other, traj) != value
        assert other._plan is not plan
        assert other._plan.w_beta is not plan.w_beta

    def test_equal_reparsed_problem_reuses_compiled_functions(self):
        parts = [("L",), ("L_x", "L_u"), ("L_uu",), ("phi",), ("phi_a", "phi_b"), ("g_a", "g_b")]
        g, s = standard_constraint("periodic", 2)
        specs = [
            ProblemSpec(
                alpha=0.9, beta=1.0, grid=Grid(0.0, 1.0, 16), dim=2,
                phi=parse("xb1*xb2", 2), lagrangian=parse("u1^2 + sin(x2)*u2 - t*x1", 2),
                constraint_map=g, target_set=s,
            )
            for _ in range(2)
        ]
        assert specs[0] == specs[1] and specs[0]._plan is not specs[1]._plan
        for group in parts:
            assert specs[0]._plan.group(group)[0] is specs[1]._plan.group(group)[0]

    def test_unvalidated_variable_still_unbound(self):
        spec = dataclasses.replace(classic_spec(n_cells=8), phi=parse("x1 + xb1", 1))
        traj = TrajectoryPair(GridFn.constant(spec.grid, 0.0), np.zeros(1))
        with pytest.raises(EvalError, match="unbound variable 'x1'"):
            bolza_eval(spec, traj)

    def test_pickles_after_evaluation(self):
        spec = classic_spec(n_cells=8)
        traj = TrajectoryPair(GridFn.constant(spec.grid, 0.5), np.ones(1))
        value = bolza_eval(spec, traj)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and "_plan" not in vars(back)
        assert bolza_eval(back, traj) == value


class TestDerivativeCache:
    def test_bounded_and_hit_on_reparse(self):
        cache = model._diff
        limit = cache.cache_info().maxsize
        assert limit is not None
        lagrangian = "0.5*(u1^2 + u2^2) + {k}*x1*x2 + sin(x1)*u2"
        misses = cache.cache_info().misses
        # every further 2-D problem adds 12 entries (gradients and Hessians of L)
        for k in range(limit // 12 + 10):
            spec = ProblemSpec(
                alpha=1.0, beta=1.0, grid=Grid(0.0, 1.0, 8), dim=2,
                phi=parse("xb1", 2), lagrangian=parse(lagrangian.format(k=k + 1), 2),
            )
            for rows, cols in (("x", "x"), ("x", "u"), ("u", "u")):
                spec.d2_lagrangian(rows, cols)
        assert cache.cache_info().misses - misses > limit
        assert cache.cache_info().currsize <= limit

        def reparsed():  # a fresh tree equal to the first problem's
            return ProblemSpec(
                alpha=1.0, beta=1.0, grid=Grid(0.0, 1.0, 8), dim=2,
                phi=parse("xb1", 2), lagrangian=parse(lagrangian.format(k=1), 2),
            )

        reparsed().d2_lagrangian("x", "u")
        misses = cache.cache_info().misses
        reparsed().d2_lagrangian("x", "u")
        assert cache.cache_info().misses == misses
