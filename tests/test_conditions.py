import dataclasses
import json
import math

import numpy as np
import pytest

from fvc import (
    Grid,
    GridFn,
    ProblemSpec,
    RegularityError,
    TrajectoryPair,
    build_report,
    el_residual,
    extract_multiplier,
    legendre_check,
    moments,
    parse,
    rigidity_probe,
    rl_integral_right,
    standard_constraint,
    transversality_residuals,
)
from fvc.model import _Plan

from conftest import classic_spec, oracle_trajectory, zero_trajectory


def constrained_quadratic(kind="fixed_both", n_cells=128, **kw):
    g, s = standard_constraint(kind, 1, kw.get("x_a", 0.0), kw.get("x_b", 1.0))
    return ProblemSpec(
        alpha=kw.get("alpha", 1.0),
        beta=kw.get("beta", 1.0),
        grid=Grid(0.0, 1.0, n_cells),
        dim=1,
        phi=parse(kw.get("phi", "0"), 1),
        lagrangian=parse(kw.get("lagrangian", "0.5*u1^2"), 1),
        constraint_map=g,
        target_set=s,
    )


class TestELResidual:
    def test_zero_trajectory_is_stationary_for_zero_state(self):
        # phi = xb1 does not enter the EL equation; x == 0 satisfies x'' = x
        spec = classic_spec()
        profile, sup = el_residual(spec, zero_trajectory(spec.grid))
        assert sup == 0.0
        assert np.all(profile.values == 0.0)

    def test_stationary_profile_small(self):
        spec = classic_spec(n_cells=512)
        _, sup = el_residual(spec, oracle_trajectory(spec.grid))
        assert sup < 10 * spec.grid.h

    def test_linear_trajectory_residual(self):
        # x(t) = t gives r(t) = (1 - t^2)/2 up to quadrature, sup 0.5
        spec = classic_spec(n_cells=512)
        traj = TrajectoryPair(GridFn.constant(spec.grid, 1.0), np.zeros(1))
        profile, sup = el_residual(spec, traj)
        t = spec.grid.nodes()
        assert math.isclose(sup, 0.5, abs_tol=5e-3)
        assert np.max(np.abs(np.abs(profile.values[:, 0]) - (1 - t**2) / 2)) < 5e-3

    def test_classical_integrated_form(self, rng):
        # alpha = beta = 1: residual equals int_t^b (d/ds d2L - d1L) ds for
        # polynomial data, checked against the analytic integral
        spec = ProblemSpec(
            alpha=1.0,
            beta=1.0,
            grid=Grid(0.0, 1.0, 1024),
            dim=1,
            phi=parse("0", 1),
            lagrangian=parse("0.5*u1^2 - x1", 1),
        )
        traj = TrajectoryPair(GridFn.constant(spec.grid, 0.0), np.zeros(1))
        profile, _ = el_residual(spec, traj)
        t = spec.grid.nodes()
        # w = u = 0, d1L = -1: r(t) = -(b - t)
        assert np.max(np.abs(profile.values[:, 0] + (1 - t))) < 5e-3


class TestTransversality:
    def test_zero_trajectory_classic(self):
        spec = classic_spec()
        ra, rb = transversality_residuals(spec, zero_trajectory(spec.grid))
        assert ra == 0.0
        assert rb == 1.0

    def test_stationary_point(self):
        spec = classic_spec(n_cells=512)
        ra, rb = transversality_residuals(spec, oracle_trajectory(spec.grid))
        assert ra < 10 * spec.grid.h
        assert rb < 10 * spec.grid.h

    def test_fractional_endpoint_exact(self, rng):
        # for alpha < 1 the right integral at b vanishes exactly, so the
        # residual at b is bitwise the norm of d2phi
        spec = classic_spec(alpha=0.5)
        traj = TrajectoryPair(
            GridFn(spec.grid, rng.normal(size=(spec.grid.n_nodes, 1))), np.zeros(1)
        )
        _, rb = transversality_residuals(spec, traj)
        assert rb == 1.0

    def test_psi_dimension_checked(self):
        spec = constrained_quadratic()
        with pytest.raises(ValueError):
            transversality_residuals(spec, zero_trajectory(spec.grid), psi=[1.0])


class TestExtractMultiplier:
    def test_free_endpoints_forces_zero(self):
        g, s = standard_constraint("free", 1)
        spec = dataclasses.replace(
            classic_spec(), constraint_map=g, target_set=s
        )
        psi, cone_ok, (ra, rb) = extract_multiplier(spec, zero_trajectory(spec.grid))
        assert np.array_equal(psi, np.zeros(2))
        assert cone_ok  # psi = 0 lies in every normal cone
        assert rb == 1.0  # the residual still exposes the defect
        ura, urb = transversality_residuals(spec, zero_trajectory(spec.grid))
        assert (ra, rb) == (ura, urb)

    def test_free_endpoints_cone_holds_at_stationary_point(self):
        g, s = standard_constraint("free", 1)
        spec = dataclasses.replace(
            classic_spec(n_cells=512), constraint_map=g, target_set=s
        )
        psi, cone_ok, (ra, rb) = extract_multiplier(spec, oracle_trajectory(spec.grid))
        assert np.array_equal(psi, np.zeros(2))
        assert cone_ok
        assert max(ra, rb) < 10 * spec.grid.h

    def test_fixed_endpoints_exact_solve(self, rng):
        spec = constrained_quadratic()
        for _ in range(5):
            traj = TrajectoryPair(
                GridFn(spec.grid, rng.normal(size=(spec.grid.n_nodes, 1))),
                rng.normal(size=1),
            )
            psi, cone_ok, (ra, rb) = extract_multiplier(spec, traj)
            assert cone_ok
            assert ra <= 1e-10
            assert rb <= 1e-10

    def test_periodic_equality(self):
        # L = 0.5 u^2 + x sin(2 pi t) has the periodic extremal
        # u(t) = -cos(2 pi t) / (2 pi), with multiplier psi = u(0) = u(1)
        two_pi = 2.0 * math.pi
        spec = constrained_quadratic(
            "periodic",
            lagrangian=f"0.5*u1^2 + x1*sin({two_pi!r}*t)",
            n_cells=512,
        )
        t = spec.grid.nodes()
        traj = TrajectoryPair(GridFn(spec.grid, -np.cos(two_pi * t) / two_pi), np.zeros(1))
        psi, cone_ok, (ra, rb) = extract_multiplier(spec, traj)
        assert cone_ok
        assert ra < 1e-2 and rb < 1e-2
        assert math.isclose(psi[0], -1.0 / two_pi, abs_tol=1e-2)
        # the periodic coupling forces the weighted right integral (here just
        # the control itself) to take the same value at a and b
        iw = rl_integral_right(traj.u, 0.0)
        assert abs(iw.values[0, 0] - iw.values[-1, 0]) < 1e-2

    def test_regularity_checked(self):
        g = (parse("xa1 + xb1", 1), parse("xa1 + xb1", 1))
        spec = dataclasses.replace(
            classic_spec(),
            constraint_map=g,
            target_set=standard_constraint("free", 1)[1],
        )
        with pytest.raises(RegularityError):
            extract_multiplier(spec, zero_trajectory(spec.grid))

    def test_requires_constraints(self):
        with pytest.raises(ValueError):
            extract_multiplier(classic_spec(), zero_trajectory(Grid(0.0, 1.0, 128)))


class TestLegendre:
    def test_identity_hessian(self):
        spec = classic_spec()
        profile, ok = legendre_check(spec, zero_trajectory(spec.grid))
        assert ok
        assert np.allclose(profile.values, 1.0)

    def test_beta_two_weight(self):
        spec = classic_spec(beta=2.0)
        profile, ok = legendre_check(spec, zero_trajectory(spec.grid))
        assert ok
        t = spec.grid.nodes()
        assert np.allclose(profile.values[1:, 0], (1.0 - t)[1:])

    def test_indefinite_fails(self):
        spec = dataclasses.replace(
            classic_spec(), lagrangian=parse("0.5*x1^2 - u1^2", 1)
        )
        profile, ok = legendre_check(spec, zero_trajectory(spec.grid))
        assert not ok
        assert np.min(profile.values) < 0.0

    def test_positive_scaling_invariance(self, rng):
        spec = classic_spec()
        scaled = dataclasses.replace(
            spec, lagrangian=parse("3.5*(0.5*(x1^2 + u1^2))", 1)
        )
        traj = zero_trajectory(spec.grid)
        p1, ok1 = legendre_check(spec, traj, tol=0.0)
        p2, ok2 = legendre_check(scaled, traj, tol=0.0)
        assert ok1 == ok2
        assert np.allclose(p2.values, 3.5 * p1.values)

    def test_singular_weight_excludes_endpoint(self):
        spec = classic_spec(beta=0.5)
        profile, ok = legendre_check(spec, zero_trajectory(spec.grid))
        assert ok
        assert np.all(np.isfinite(profile.values))


class TestRigidityProbe:
    def test_zero_segment(self):
        g = Grid(0.0, 0.5, 64)
        assert rigidity_probe(0.5, GridFn.constant(g, 0.0), (0.6, 1.0)) == 0.0

    def test_constant_segment(self):
        g = Grid(0.0, 0.5, 64)
        res = rigidity_probe(0.5, GridFn.constant(g, 1.0), (0.6, 1.0), fit_degree=0)
        assert res > 0.01

    def test_random_nonzero_segments(self, rng):
        g = Grid(0.0, 0.5, 64)
        residuals = []
        for _ in range(100):
            vals = rng.uniform(-1.0, 1.0, size=(65, 1))
            vals /= np.max(np.abs(vals))
            for degree in (0, rng.integers(1, 4)):
                residuals.append(
                    rigidity_probe(0.4, GridFn(g, vals), (0.6, 1.0), int(degree))
                )
        assert min(residuals) > 0.0

    def test_degenerate_window(self):
        g = Grid(0.0, 0.5, 16)
        with pytest.raises(ValueError):
            rigidity_probe(0.5, GridFn.constant(g, 1.0), (0.4, 0.8))
        with pytest.raises(ValueError):
            rigidity_probe(0.5, GridFn.constant(g, 1.0), (0.8, 0.8))

    def test_order_range(self):
        g = Grid(0.0, 0.5, 16)
        with pytest.raises(ValueError):
            rigidity_probe(1.0, GridFn.constant(g, 1.0), (0.6, 1.0))

    def test_negative_degree_rejected(self):
        g = Grid(0.0, 0.5, 16)
        with pytest.raises(ValueError, match="fit_degree"):
            rigidity_probe(0.5, GridFn.constant(g, 1.0), (0.6, 1.0), fit_degree=-1)


class TestMoments:
    def test_constant_first_moment(self):
        g = Grid(0.0, 0.5, 64)
        m = moments(GridFn.constant(g, 1.0), 1)
        assert math.isclose(m[1], 0.125, rel_tol=1e-12)

    def test_zero_segment(self):
        g = Grid(0.0, 0.5, 64)
        assert np.all(moments(GridFn.constant(g, 0.0), 3) == 0.0)

    def test_linear_zeroth_moment(self):
        g = Grid(0.0, 1.0, 512)
        m = moments(GridFn(g, g.nodes()), 0)
        assert math.isclose(m[0], 0.5, abs_tol=2e-3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="max_k"):
            moments(GridFn.constant(Grid(0.0, 0.5, 16), 1.0), -1)


def random_candidate(kind, rng):
    """A random (u, y) for a free or an endpoint-constrained problem with alpha < 1."""
    if kind == "free":
        spec = classic_spec(alpha=0.7, beta=0.8)
    else:
        spec = constrained_quadratic("periodic", alpha=0.6, beta=1.3)
    traj = TrajectoryPair(
        GridFn(spec.grid, rng.normal(size=(spec.grid.n_nodes, 1))),
        rng.normal(size=1),
    )
    return spec, traj


REPORT_KEYS = [
    "el_residual_sup", "el_residual_profile", "transversality_a", "transversality_b",
    "legendre_min_eig_profile", "legendre_ok", "psi", "psi_in_cone", "adjoint_p",
]


class TestReport:
    @pytest.mark.parametrize("constrained", [False, True])
    def test_dict_keys_in_field_order(self, constrained):
        spec = constrained_quadratic() if constrained else classic_spec()
        report = build_report(spec, zero_trajectory(spec.grid))
        assert list(report.to_dict()) == REPORT_KEYS
        assert list(json.loads(report.to_json())) == REPORT_KEYS

    def test_json_round_trip(self):
        spec = classic_spec()
        report = build_report(spec, zero_trajectory(spec.grid))
        doc = json.loads(report.to_json())
        assert doc["transversality_b"] == 1.0
        assert doc["legendre_ok"] is True
        assert doc["psi"] is None
        assert len(doc["el_residual_profile"]) == spec.grid.n_nodes

    def test_constrained_report_has_psi(self):
        spec = constrained_quadratic()
        report = build_report(spec, zero_trajectory(spec.grid))
        assert report.psi is not None
        assert report.psi_in_cone is True
        assert report.transversality_a <= 1e-10

    def test_residuals_nonnegative(self, rng):
        spec = classic_spec(alpha=0.7, beta=1.3)
        traj = TrajectoryPair(
            GridFn(spec.grid, rng.normal(size=(spec.grid.n_nodes, 1))),
            rng.normal(size=1),
        )
        report = build_report(spec, traj)
        assert report.el_residual_sup >= 0.0
        assert report.transversality_a >= 0.0
        assert report.transversality_b >= 0.0
        assert np.all(np.isfinite(report.adjoint_p.values))

    @pytest.mark.parametrize("kind", ["free", "constrained"])
    def test_two_right_integrals_per_report(self, kind, monkeypatch, rng):
        spec, traj = random_candidate(kind, rng)
        orders = []

        def counting(f, order):
            orders.append(order)
            return rl_integral_right(f, order)

        monkeypatch.setattr("fvc.conditions.rl_integral_right", counting)
        build_report(spec, traj)
        assert orders == [pytest.approx(1.0 - spec.alpha), spec.alpha]

    @pytest.mark.parametrize("kind", ["free", "constrained"])
    def test_one_endpoint_call_per_report(self, kind, monkeypatch, rng):
        # phi_a, phi_b and, when constrained, g, g_a, g_b come from one plan call
        spec, traj = random_candidate(kind, rng)
        calls = []
        original = _Plan.endpoint

        def counting(plan, xa, xb, *parts):
            calls.append(parts)
            return original(plan, xa, xb, *parts)

        monkeypatch.setattr(_Plan, "endpoint", counting)
        build_report(spec, traj)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["free", "constrained"])
    def test_report_matches_public_residuals(self, kind, rng):
        # build_report shares one right integral; the public functions each
        # compute their own and must agree bitwise
        spec, traj = random_candidate(kind, rng)
        report = build_report(spec, traj)
        profile, sup = el_residual(spec, traj)
        assert report.el_residual_sup == sup
        assert np.array_equal(report.el_residual_profile.values, profile.values)
        if kind == "free":
            residuals = transversality_residuals(spec, traj)
        else:
            psi, cone_ok, residuals = extract_multiplier(spec, traj)
            assert np.array_equal(report.psi, psi)
            assert report.psi_in_cone == cone_ok
            assert transversality_residuals(spec, traj, psi) == residuals
        assert (report.transversality_a, report.transversality_b) == residuals
