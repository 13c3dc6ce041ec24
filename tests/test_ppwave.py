"""Regularized impulsive-wave geodesics: solver, oracle checks, kink study."""

import csv

import numpy as np
import pytest

from colombeau.asymptotics import EpsGrid
from colombeau.association import sharp_mollifier, standard_mollifier
from colombeau.errors import ConfigError, NonFiniteValue, OutsideDomain
from colombeau.geometry import make_handle
from colombeau.ppwave import (
    GeodesicNet,
    PPWaveProfile,
    default_profile,
    kink_limit_study,
    regularized_geodesic_system,
    saddle_profile,
    solve_geodesic,
    trajectory_csv,
    widened,
)
from oracles import christoffel_fd, ppwave_metric

RHO = standard_mollifier()
SADDLE = default_profile()
REST_AT_X1 = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
SPAN = (-0.5, 0.5)


def flat_profile():
    zero = make_handle(lambda p: np.zeros(p.shape[:-1] + (1,)), 2, 1, name="zero")
    return PPWaveProfile(zero)


class TestProfile:
    def test_saddle_values_and_gradient(self):
        p = np.array([[1.0, 2.0], [-0.5, 0.25]])
        f = saddle_profile()
        assert f(p)[:, 0] == pytest.approx([-3.0, 0.1875])
        prof = PPWaveProfile(f)
        g = prof.gradient(p)
        assert g[0] == pytest.approx([2.0, -4.0])
        assert g[1] == pytest.approx([-1.0, -0.5])

    def test_blowing_profile_is_rejected(self):
        def ev(p):
            with np.errstate(divide="ignore"):
                return (1.0 / (p[..., 0] - 4.0))[..., None]

        h = make_handle(ev, 2, 1, name="pole")
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteValue):
            PPWaveProfile(h, box=[(0.0, 4.0), (-1.0, 1.0)])

    def test_scalar_profile_required(self):
        h = make_handle(lambda p: p, 2, 2, name="id")
        with pytest.raises(ConfigError):
            PPWaveProfile(h)


class TestGeodesicSystem:
    def test_flat_profile_gives_zero_forcing(self):
        rhs = regularized_geodesic_system(flat_profile(), RHO, 0.1)
        out = rhs(0.0, [0.0, 1.0, -1.0, 0.3, 0.5, -0.2])
        assert out[:3] == pytest.approx([0.3, 0.5, -0.2])
        assert out[3:] == pytest.approx([0.0, 0.0, 0.0])

    def test_forcing_vanishes_ahead_of_the_pulse(self):
        rhs = regularized_geodesic_system(SADDLE, RHO, 0.05)
        out = rhs(-0.2, [0.0, 1.0, 0.5, 0.1, 0.2, 0.3])
        assert out[3:] == pytest.approx([0.0, 0.0, 0.0])

    @staticmethod
    def _rhs_matches_fd_symbols(seed, epsilons):
        # the solver's right-hand side is -Gamma^k_ij X'^i X'^j with u' = 1,
        # X = (u, v, x, y); compare it with symbols from central differences
        # of the metric at states whose u lies inside the pulse
        rng = np.random.default_rng(seed)
        for rho in (standard_mollifier(), sharp_mollifier()):
            metric = ppwave_metric(SADDLE, rho)
            for eps in epsilons:
                rhs = regularized_geodesic_system(SADDLE, rho, eps)
                for _ in range(6):
                    u = rng.uniform(-0.9, 0.9) * eps * rho.support_radius
                    v, vd = rng.uniform(-1.0, 1.0, 2)
                    x, y, xd, yd = rng.uniform(-2.0, 2.0, 4)
                    G = christoffel_fd(metric, eps, np.array([u, v, x, y]), h=1e-4 * eps)
                    Xd = np.array([1.0, vd, xd, yd])
                    want = -np.einsum("kij,i,j->k", G, Xd, Xd)
                    got = np.asarray(rhs(u, [v, x, y, vd, xd, yd])[3:])
                    scale = np.max(np.abs(want))
                    assert abs(want[0]) <= 1e-8 * scale
                    assert np.max(np.abs(got - want[1:])) <= 1e-8 * scale

    def test_analytic_symbols_match_finite_differences(self):
        self._rhs_matches_fd_symbols(7, (1.0, 0.5, 0.1))

    def test_symbol_agreement_inside_a_narrow_pulse(self):
        self._rhs_matches_fd_symbols(3, (0.02, 1e-2))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _pulse_shapes():
    rho1, rho2 = standard_mollifier(), sharp_mollifier()
    return [
        (rho1, rho1, 1.0), (rho2, rho2, 1.0), (widened(rho1, 2.0), rho1, 2.0),
        (widened(rho2, 2.0), rho2, 2.0), (widened(rho1, 1.5), rho1, 1.5),
    ]


class TestRhsBits:
    """The right-hand side, bit for bit, against the geodesic equations
    written out from the pulse profile's value and first jet and the wave
    profile's gradient, each evaluated as an array of one point."""

    @staticmethod
    def _formula(profile, rho, eps, u, state):
        v, x, y, vd, xd, yd = state
        t = np.array([[u]]) / eps
        D = rho.profile(t)[0, 0] / eps
        Dp = rho.profile.jet(t, (1,))[0, 0] / eps**2
        p = np.array([[x, y]])
        f = profile.f(p)[0, 0]
        fx = profile.f.jet(p, (1, 0))[0, 0]
        fy = profile.f.jet(p, (0, 1))[0, 0]
        return [vd, xd, yd, Dp * f + 2.0 * D * (fx * xd + fy * yd),
                0.5 * D * fx, 0.5 * D * fy]

    def test_rhs_equals_the_formula(self):
        rng = np.random.default_rng(11)
        for rho, _, _ in _pulse_shapes():
            for eps in (2.0**-6, 2.0**-11, 0.1):
                rhs = regularized_geodesic_system(SADDLE, rho, eps)
                r = rho.support_radius * eps
                # centre, interior, both support edges (where 1 - t^2 is
                # at most 1e-12 and the pulse is exactly zero), outside
                us = [0.0, *rng.uniform(-r, r, 12), -r, r, 1.5 * r, -0.3]
                for u in us:
                    state = np.concatenate(
                        [rng.uniform(-1.0, 1.0, 3), rng.uniform(-2.0, 2.0, 3)]
                    )
                    got = rhs(u, state)
                    want = self._formula(SADDLE, rho, eps, u, state)
                    assert all(g == w for g, w in zip(got, want)), (rho.id, eps, u)
                    assert len(got) == 6

    def test_edges_take_the_zero_branch(self):
        for rho, _, _ in _pulse_shapes():
            eps = 2.0**-6
            r = rho.support_radius * eps
            rhs = regularized_geodesic_system(SADDLE, rho, eps)
            for u in (-r, r):
                assert rhs(u, np.array([0.0, 1.0, 0.5, 0.1, 0.2, 0.3]))[3:] == [0.0] * 3

    def test_widened_profile_is_the_scaled_profile(self):
        x = np.linspace(-2.2, 2.2, 1001)[:, None]
        for wide, rho, s in _pulse_shapes():
            assert _same_bits(wide.profile(x), rho.profile(x / s) / s)
            assert _same_bits(
                wide.profile.jet(x, (1,)), rho.profile.jet(x / s, (1,)) / s**2
            )


class TestSolver:
    def test_free_motion_is_exact(self):
        s = solve_geodesic(flat_profile(), RHO, 0.1, (0.0, 0.3, 0.0, 0.0, 1.0, 0.0), SPAN)
        us = np.linspace(-0.5, 0.5, 17)
        x = s.component(us, "x")
        assert np.max(np.abs(x - (0.3 + (us + 0.5)))) < 1e-12
        assert s.energy_drift == 0.0

    def test_tangent_norm_is_conserved_across_the_pulse(self):
        s = solve_geodesic(SADDLE, RHO, 1e-2, REST_AT_X1, SPAN)
        assert s.energy_drift < 1e-7

    def test_back_integration_recovers_initial_data(self):
        s = solve_geodesic(SADDLE, RHO, 1e-2, REST_AT_X1, SPAN)
        final = s.states(np.array([0.5]))[0]
        back = solve_geodesic(SADDLE, RHO, 1e-2, tuple(final), (0.5, -0.5))
        rec = back.states(np.array([-0.5]))[0]
        assert np.max(np.abs(rec - np.array(REST_AT_X1))) < 1e-7

    def test_queries_outside_the_interval_are_rejected(self):
        s = solve_geodesic(SADDLE, RHO, 0.1, REST_AT_X1, SPAN)
        with pytest.raises(OutsideDomain):
            s.states(np.array([0.7]))

    def test_bad_initial_data_is_rejected(self):
        with pytest.raises(ConfigError):
            solve_geodesic(SADDLE, RHO, 0.1, (0.0, 1.0), SPAN)
        with pytest.raises(ConfigError):
            solve_geodesic(SADDLE, RHO, 0.1, REST_AT_X1, (0.2, 0.2))


class TestKinkStudy:
    GRID = EpsGrid.dyadic(6, 12)

    def test_saddle_start_at_rest_breaks_with_unit_jump(self):
        rep = kink_limit_study(SADDLE, RHO, REST_AT_X1, self.GRID)
        assert rep
        assert rep.cauchy_ok
        assert all(
            b <= a for a, b in zip(rep.cauchy_sups, rep.cauchy_sups[1:])
        )
        assert rep.cauchy_sups[-1] < 1e-3
        # pulse crossing at x near 1 with profile slope 2x: jump near 1
        assert rep.jump == pytest.approx(1.0, abs=0.01)
        assert rep.jump_stability < 0.01
        assert rep.x_cbounded
        assert rep.associated
        assert rep.assoc_routes == (True, True)

    def test_longitudinal_velocity_feature_is_flagged(self):
        rep = kink_limit_study(SADDLE, RHO, REST_AT_X1, self.GRID)
        assert "eps^-1" in rep.vdot_growth
        assert any("longitudinal" in f for f in rep.flags)

    def test_flat_profile_degenerates_to_a_straight_line(self):
        rep = kink_limit_study(flat_profile(), RHO, (0.0, 0.3, 0.0, 0.0, 1.0, 0.0), self.GRID)
        assert rep
        assert abs(rep.jump) < 1e-10
        assert rep.cauchy_sups[-1] < 1e-12

    def test_kink_is_mollifier_independent(self):
        rep1 = kink_limit_study(SADDLE, RHO, REST_AT_X1, self.GRID)
        rep2 = kink_limit_study(SADDLE, widened(RHO, 2.0), REST_AT_X1, self.GRID)
        us = np.linspace(-0.4, 0.4, 101)
        assert np.max(np.abs(rep1.kink(us) - rep2.kink(us))) < 1e-3

    def test_oversized_pulse_is_rejected(self):
        with pytest.raises(ConfigError):
            kink_limit_study(SADDLE, RHO, REST_AT_X1, EpsGrid.geometric(0.9, 0.01, 6))

    def test_report_text_is_complete(self):
        rep = kink_limit_study(SADDLE, RHO, REST_AT_X1, self.GRID)
        text = "\n".join(rep.lines())
        for key in ("velocity_jump", "cauchy", "c_bounded", "kink_break_value"):
            assert key in text


class TestTrajectoryDump:
    def test_study_net_reuses_its_slices(self, tmp_path):
        rep = kink_limit_study(SADDLE, RHO, REST_AT_X1, TestKinkStudy.GRID)
        eps_values = [2.0**-6, 2.0**-9]
        # the study has solved both slices; the dump reads them back
        assert all(e in rep.net._slices for e in eps_values)
        trajectory_csv(rep.net, eps_values, tmp_path / "study.csv")
        trajectory_csv(GeodesicNet(SADDLE, RHO, REST_AT_X1, SPAN), eps_values,
                       tmp_path / "fresh.csv")
        assert (tmp_path / "study.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_csv_layout(self, tmp_path):
        gnet = GeodesicNet(SADDLE, RHO, REST_AT_X1, SPAN)
        path = tmp_path / "traj.csv"
        eps_values = [2.0**-6, 2.0**-8]
        trajectory_csv(gnet, eps_values, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eps", "u", "v", "x", "y", "xdot"]
        eps_seen = sorted({float(r[0]) for r in rows[1:]}, reverse=True)
        assert eps_seen == pytest.approx(eps_values)
        # first data row starts at the left endpoint with the initial state
        first = rows[1]
        assert float(first[1]) == -0.5
        assert float(first[3]) == 1.0
        assert float(first[5]) == 0.0


class TestImpulsiveLimit:
    """Slices against the distributional geodesics of
    ds^2 = f(x) delta(u) du^2 - du dv + dx^2 (Steinbauer, J. Math. Phys. 39,
    1998; Kunzinger and Steinbauer, J. Math. Phys. 40, 1999).  With x0 the
    position at u = 0 on the incoming line, the limit jumps by
    dx' = grad f(x0) / 2, dv = f(x0) and dv' = grad f(x0) . x0' + |grad f(x0)|^2 / 4,
    and x is continuous."""

    # criterion 10's data, and the datum whose kink study splits its routes
    DATA = (
        ((0.0, 1.0, 0.0, 0.0, 0.0, 0.0), (-1.25, 1.25)),
        ((0.0, 1.4125, -0.0568, 0.0, 0.045, 0.0022), (-0.5, 0.5)),
    )

    @staticmethod
    def _errors(rho, init, span, eps):
        """|numerical - exact| of (dx', dv, dv', x jump), the jumps read off
        the straight lines on both sides of the pulse, extended to u = 0."""
        s = solve_geodesic(SADDLE, rho, eps, init, span)
        r = rho.support_radius * eps
        pre, post = s.states(np.array([-r, r]))
        init = np.asarray(init)
        x0 = init[1:3] - init[4:6] * span[0]
        f = SADDLE.value(x0[None])[0]
        g = SADDLE.gradient(x0[None])[0]
        left = pre[:3] + pre[3:] * r
        right = post[:3] - post[3:] * r
        return np.array([
            np.max(np.abs(post[4:6] - pre[4:6] - 0.5 * g)),
            abs(right[0] - left[0] - f),
            abs(post[3] - pre[3] - (g @ init[4:6] + 0.25 * g @ g)),
            np.max(np.abs(right[1:3] - left[1:3])),
        ])

    def test_slices_converge_to_the_closed_form_jumps(self):
        for rho in (standard_mollifier(), sharp_mollifier()):
            for init, span in self.DATA:
                coarse = self._errors(rho, init, span, 2.0**-6)
                fine = self._errors(rho, init, span, 2.0**-9)
                # the jumps converge like eps, the break point like eps^2
                assert np.all(fine[:3] < 2e-3), (rho.id, init, fine)
                assert np.all(coarse[:3] >= 6.0 * fine[:3]), (rho.id, init)
                assert fine[3] < 1e-6 and coarse[3] >= 30.0 * fine[3]
