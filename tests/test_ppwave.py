"""Regularized impulsive-wave geodesics: solver, oracle checks, kink study."""

import csv

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from colombeau import ppwave
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
from oracles import (
    christoffel_fd,
    geodesic_rhs_stacked_reference,
    mollifier_profile_jet,
    ppwave_metric,
    slice_states_reference,
    solve_geodesic_per_slice,
)

RHO = standard_mollifier()
SADDLE = default_profile()
REST_AT_X1 = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
SPAN = (-0.5, 0.5)
# the datum whose kink study splits its association routes; it moves in x
# and y before the pulse
KD0 = (0.0, 1.4125, -0.0568, 0.0, 0.045, 0.0022)


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
        rhs = regularized_geodesic_system(flat_profile(), RHO, [0.1])
        out = rhs(0.0, [0.0, 1.0, -1.0, 0.3, 0.5, -0.2])
        # d/ds = eps d/du
        assert out[:3] == pytest.approx([0.03, 0.05, -0.02])
        assert out[3:] == pytest.approx([0.0, 0.0, 0.0])

    def test_forcing_vanishes_ahead_of_the_pulse(self):
        # u = -0.2 with eps = 0.05 is s = -4, outside the support [-1, 1]
        rhs = regularized_geodesic_system(SADDLE, RHO, [0.05])
        out = rhs(-4.0, [0.0, 1.0, 0.5, 0.1, 0.2, 0.3])
        assert out[3:] == pytest.approx([0.0, 0.0, 0.0])

    @staticmethod
    def _rhs_matches_fd_symbols(seed, epsilons):
        # the solver's right-hand side is eps times -Gamma^k_ij X'^i X'^j
        # with u' = 1, X = (u, v, x, y), at s = u/eps; compare it with
        # symbols from central differences of the metric at states whose u
        # lies inside the pulse
        rng = np.random.default_rng(seed)
        for rho in (standard_mollifier(), sharp_mollifier()):
            metric = ppwave_metric(SADDLE, rho)
            for eps in epsilons:
                rhs = regularized_geodesic_system(SADDLE, rho, [eps])
                for _ in range(6):
                    u = rng.uniform(-0.9, 0.9) * eps * rho.support_radius
                    v, vd = rng.uniform(-1.0, 1.0, 2)
                    x, y, xd, yd = rng.uniform(-2.0, 2.0, 4)
                    G = christoffel_fd(metric, eps, np.array([u, v, x, y]), h=1e-4 * eps)
                    Xd = np.array([1.0, vd, xd, yd])
                    want = -np.einsum("kij,i,j->k", G, Xd, Xd)
                    got = np.asarray(rhs(u / eps, [v, x, y, vd, xd, yd])[3:]) / eps
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
    """The right-hand side in s = u/eps, bit for bit, against eps times the
    geodesic equations in u, written out from the pulse profile's value,
    its analytic first derivative in ``oracles`` and the wave profile's
    gradient, each evaluated as an array of one point."""

    @staticmethod
    def _formula(profile, rho, eps, u, state):
        v, x, y, vd, xd, yd = state
        t = np.array([[u]]) / eps
        D = rho.profile(t)[0, 0] / eps
        Dp = mollifier_profile_jet(rho, t, 1)[0, 0] / eps**2
        p = np.array([[x, y]])
        f = profile.f(p)[0, 0]
        fx = profile.f.jet(p, (1, 0))[0, 0]
        fy = profile.f.jet(p, (0, 1))[0, 0]
        return [vd, xd, yd, Dp * f + 2.0 * D * (fx * xd + fy * yd),
                0.5 * D * fx, 0.5 * D * fy]

    @staticmethod
    def _s_formula(profile, rho, eps, s, state):
        # eps times _formula at u = eps s, with D = rho(s)/eps and
        # D' = rho'(s)/eps^2 cancelled by hand
        v, x, y, vd, xd, yd = state
        D = rho.profile(np.array([[s]]))[0, 0]
        Dp = mollifier_profile_jet(rho, np.array([[s]]), 1)[0, 0]
        p = np.array([[x, y]])
        f = profile.f(p)[0, 0]
        fx = profile.f.jet(p, (1, 0))[0, 0]
        fy = profile.f.jet(p, (0, 1))[0, 0]
        return [eps * vd, eps * xd, eps * yd,
                Dp * f / eps + 2.0 * D * (fx * xd + fy * yd), 0.5 * D * fx, 0.5 * D * fy]

    def test_rhs_equals_the_formula(self):
        rng = np.random.default_rng(11)
        epsilons = (2.0**-6, 2.0**-11, 0.1)
        for rho, _, _ in _pulse_shapes():
            R = rho.support_radius
            stack = regularized_geodesic_system(SADDLE, rho, epsilons)
            # centre, interior, both support edges (where 1 - t^2 is at
            # most 1e-12 and the pulse is exactly zero), outside
            for s in [0.0, *rng.uniform(-R, R, 12), -R, R, 1.5 * R, -5.0]:
                states = np.concatenate(
                    [rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(-2.0, 2.0, (3, 3))]
                )
                # the stacked state is component-major: column i is slice i
                got_stack = stack(s, states.ravel()).reshape(6, 3)
                for i, eps in enumerate(epsilons):
                    state = states[:, i]
                    got = regularized_geodesic_system(SADDLE, rho, [eps])(s, state)
                    assert len(got) == 6
                    assert _same_bits(got, got_stack[:, i]), (rho.id, eps, s)
                    want = self._s_formula(SADDLE, rho, eps, s, state)
                    assert _same_bits(got, want), (rho.id, eps, s)
                    if eps != 0.1:
                        # scaling by a power of two is exact
                        u_rhs = self._formula(SADDLE, rho, eps, eps * s, state)
                        assert _same_bits(got, [eps * w for w in u_rhs]), (rho.id, eps, s)

    def test_rhs_equals_the_stacked_reference(self):
        # against the rhs that stacked the transverse points with np.stack
        # and scaled the position rows one by one; the profile without a
        # jet rule takes its gradient by finite_difference_jet on the points
        def ev(p):
            return (np.sin(p[..., 0]) * p[..., 1] + 0.3 * p[..., 0] ** 2)[..., None]

        fd_profile = PPWaveProfile(make_handle(ev, 2, 1, name="wavy"))
        rng = np.random.default_rng(5)
        for profile in (SADDLE, fd_profile):
            for rho, _, _ in _pulse_shapes():
                R = rho.support_radius
                for epsilons in ([2.0**-7], list(EpsGrid.dyadic(6, 12))):
                    n = len(epsilons)
                    got = regularized_geodesic_system(profile, rho, epsilons)
                    want = geodesic_rhs_stacked_reference(profile, rho, epsilons)
                    # inside the support, and outside it, where pulse_at
                    # returns (0.0, 0.0)
                    for s in [0.0, *rng.uniform(-R, R, 6), 1.5 * R, -R]:
                        state = np.concatenate([
                            rng.uniform(-1.0, 1.0, 3 * n), rng.uniform(-2.0, 2.0, 3 * n)
                        ])
                        assert _same_bits(got(s, state), want(s, state)), (rho.id, n, s)

    def test_edges_take_the_zero_branch(self):
        for rho, _, _ in _pulse_shapes():
            R = rho.support_radius
            rhs = regularized_geodesic_system(SADDLE, rho, [2.0**-6])
            for s in (-R, R):
                out = rhs(s, np.array([0.0, 1.0, 0.5, 0.1, 0.2, 0.3]))
                assert list(out[3:]) == [0.0] * 3

    def test_widened_profile_is_the_scaled_profile(self):
        x = np.linspace(-2.2, 2.2, 1001)[:, None]
        for wide, rho, s in _pulse_shapes():
            assert _same_bits(wide.profile(x), rho.profile(x / s) / s)
            assert _same_bits(
                mollifier_profile_jet(wide, x, 1),
                mollifier_profile_jet(rho, x / s, 1) / s**2,
            )


class TestStackedAgainstPerSlice:
    """The slices of a study against the per-slice solve in u of
    ``oracles.solve_geodesic_per_slice``, at the window points and the end
    state.  The transverse components x, y, x', y' agree within 1e-11.  The
    longitudinal v and v' agree within 5e-10 times the slice's peak |v'|,
    which grows like 1/eps; against a solve at rtol 1e-13 the per-slice
    solve is the less accurate of the two there."""

    CASES = {
        # the five kink pulse shapes of the benchmark
        **{wide.id: (wide, REST_AT_X1, (6, 12), SPAN) for wide, _, _ in _pulse_shapes()},
        "criterion-10": (RHO, REST_AT_X1, (6, 14), (-1.25, 1.25)),
        "reversed": (RHO, REST_AT_X1, (6, 12), (0.5, -0.5)),
        "kd0": (sharp_mollifier(), KD0, (6, 12), SPAN),
    }

    @staticmethod
    def _compare(rho, init, grid, span):
        eps_values = list(EpsGrid.dyadic(*grid))
        us = np.append(np.linspace(0.8 * span[0], 0.8 * span[1], 801), span[1])
        drift, drift_ref = [], []
        for e, got in zip(eps_values, solve_geodesic(SADDLE, rho, eps_values, init, span)):
            ref = solve_geodesic_per_slice(SADDLE, rho, e, init, span)
            gap = np.max(np.abs(got.states(us) - ref.states(us)), axis=0)
            r = rho.support_radius * e
            peak = np.max(np.abs(ref.states(np.linspace(-r, r, 129))[:, 3]))
            assert np.max(gap[[1, 2, 4, 5]]) <= 1e-11, (rho.id, e, gap)
            assert np.max(gap[[0, 3]]) <= 5e-10 * peak, (rho.id, e, gap, peak)
            drift.append(got.energy_drift)
            drift_ref.append(ref.energy_drift)
        return max(drift), max(drift_ref)

    @pytest.mark.parametrize("case", ["criterion-10", "reversed", "kd0"])
    def test_slices_match_the_per_slice_solve(self, case):
        drift, drift_ref = self._compare(*self.CASES[case])
        if case == "criterion-10":
            assert drift <= drift_ref

    def test_kink_pulse_shapes_match_the_per_slice_solve(self):
        # the worst energy drift over the five shapes' slices is no larger
        # than the per-slice solve's
        worst = [self._compare(*self.CASES[wide.id]) for wide, _, _ in _pulse_shapes()]
        assert max(d for d, _ in worst) <= max(d for _, d in worst)


class TestSliceKernel:
    """``GeodesicSlice.states`` against the stack's scipy ``OdeSolution``
    (``oracles.slice_states_reference``), bit for bit: every step point,
    both pulse edges, the pulse centre, dense interior points and the
    lines on both sides, in both traversal directions; and the segment
    choice on steps whose polynomials jump where they meet."""

    @staticmethod
    def _capture(monkeypatch):
        sols = []

        def capturing(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            sols.append(sol.sol)
            return sol

        monkeypatch.setattr(ppwave, "solve_ivp", capturing)
        return sols

    @staticmethod
    def _assert_same(slices, sol, span):
        n = len(slices)
        for i, sl in enumerate(slices):
            r = sl.radius
            # the step points in u: exact step points of s for dyadic eps
            us = np.concatenate([
                sol.ts * sl.eps, [-r, 0.0, r], np.linspace(-r, r, 10001),
                np.linspace(span[0], span[1], 101),
            ])
            got = sl.states(us)
            want = slice_states_reference(sl, sol, i, n, us)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (sl.eps, i)

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_segment_choice_on_polynomials_that_jump_at_every_step(self, direction):
        # random coefficients and start states: neighbouring steps disagree
        # at their common point, so only scipy's segment choice gives its bits
        from scipy.integrate._ivp.common import OdeSolution
        from scipy.integrate._ivp.rk import Dop853DenseOutput

        rng = np.random.default_rng(3)
        ts = direction * np.cumsum(np.r_[-1.0, rng.uniform(0.05, 0.3, 12)])
        y0 = rng.standard_normal((12, 5))
        F = rng.standard_normal((12, 7, 5))
        scipy_sol = OdeSolution(ts, [
            Dop853DenseOutput(ts[i], ts[i + 1], y0[i], F[i]) for i in range(12)
        ])
        polys = ppwave.StepPolynomials(ts, y0, np.diff(ts), F)
        t = np.concatenate([ts, rng.uniform(ts.min(), ts.max(), 200),
                            [ts.min() - 0.1, ts.max() + 0.1]])
        want = np.ascontiguousarray(scipy_sol(t).T)
        assert np.array_equal(polys(t).view(np.int64), want.view(np.int64))
        rows = [4, 0, 2]
        assert np.array_equal(polys.take(rows)(t).view(np.int64),
                              want[:, rows].view(np.int64))

    @pytest.mark.parametrize("span", [SPAN, SPAN[::-1]])
    def test_kink_pulses_and_the_defect_datum(self, monkeypatch, span):
        sols = self._capture(monkeypatch)
        cases = [(wide, REST_AT_X1) for wide, _, _ in _pulse_shapes()]
        cases.append((sharp_mollifier(), KD0))
        for rho, init in cases:
            slices = solve_geodesic(SADDLE, rho, list(TestKinkStudy.GRID), init, span)
            self._assert_same(slices, sols[-1], span)
        assert len(sols) == len(cases)

    @pytest.mark.parametrize("span", [SPAN, SPAN[::-1]])
    def test_one_slice_stack_off_the_grid(self, monkeypatch, span):
        sols = self._capture(monkeypatch)
        net = GeodesicNet(SADDLE, RHO, REST_AT_X1, span)
        sl = net.slice(0.0123)
        assert len(sols) == 1
        self._assert_same([sl], sols[0], span)


class TestDenseOutputCalls:
    def test_a_kink_study_makes_no_scipy_dense_output_call(self, monkeypatch):
        # the slices evaluate the stored step polynomials themselves; scipy's
        # per-step interpolant was called 949 times by this study
        from scipy.integrate._ivp.rk import Dop853DenseOutput

        calls = []
        call_impl = Dop853DenseOutput._call_impl

        def counted(self, t):
            calls.append(t)
            return call_impl(self, t)

        monkeypatch.setattr(Dop853DenseOutput, "_call_impl", counted)
        assert kink_limit_study(SADDLE, RHO, REST_AT_X1, EpsGrid.dyadic(6, 12))
        assert calls == []


class TestSolver:
    def test_free_motion_is_exact(self):
        s, = solve_geodesic(flat_profile(), RHO, [0.1], (0.0, 0.3, 0.0, 0.0, 1.0, 0.0), SPAN)
        us = np.linspace(-0.5, 0.5, 17)
        x = s.component(us, "x")
        assert np.max(np.abs(x - (0.3 + (us + 0.5)))) < 1e-12
        assert s.energy_drift == 0.0

    def test_tangent_norm_is_conserved_across_the_pulse(self):
        s, = solve_geodesic(SADDLE, RHO, [1e-2], REST_AT_X1, SPAN)
        assert s.energy_drift < 1e-7

    def test_back_integration_recovers_initial_data(self):
        s, = solve_geodesic(SADDLE, RHO, [1e-2], REST_AT_X1, SPAN)
        final = s.states(np.array([0.5]))[0]
        back, = solve_geodesic(SADDLE, RHO, [1e-2], tuple(final), (0.5, -0.5))
        rec = back.states(np.array([-0.5]))[0]
        assert np.max(np.abs(rec - np.array(REST_AT_X1))) < 1e-7

    def test_queries_outside_the_interval_are_rejected(self):
        s, = solve_geodesic(SADDLE, RHO, [0.1], REST_AT_X1, SPAN)
        with pytest.raises(OutsideDomain):
            s.states(np.array([0.7]))

    def test_bad_initial_data_is_rejected(self):
        with pytest.raises(ConfigError):
            solve_geodesic(SADDLE, RHO, [0.1], (0.0, 1.0), SPAN)
        with pytest.raises(ConfigError):
            solve_geodesic(SADDLE, RHO, [0.1], REST_AT_X1, (0.2, 0.2))
        for eps_values in ([], [0.1, -0.1], [0.1, 0.6]):
            # no slice, a non-positive eps, a pulse wider than the interval
            with pytest.raises(ConfigError):
                solve_geodesic(SADDLE, RHO, eps_values, REST_AT_X1, SPAN)


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
        # the worst drift over the slices closes the report
        assert rep.energy_drift == max(rep.net.slice(e).energy_drift for e in self.GRID)
        assert 0.0 < rep.energy_drift < 1e-6
        assert rep.lines()[-1] == f"energy_drift: {rep.energy_drift:.3e}"


class TestTrajectoryDump:
    def test_study_net_reuses_its_slices(self, tmp_path, monkeypatch):
        rep = kink_limit_study(SADDLE, RHO, REST_AT_X1, TestKinkStudy.GRID)
        eps_values = [2.0**-6, 2.0**-9]
        calls = []
        factory = ppwave.regularized_geodesic_system

        def counting(*args):
            rhs = factory(*args)

            def counted(s, state):
                calls.append(s)
                return rhs(s, state)

            return counted

        monkeypatch.setattr(ppwave, "regularized_geodesic_system", counting)
        # the study has solved both slices; the dump reads them back
        trajectory_csv(rep.net, eps_values, tmp_path / "study.csv")
        assert calls == []
        trajectory_csv(GeodesicNet(SADDLE, RHO, REST_AT_X1, SPAN), eps_values,
                       tmp_path / "fresh.csv")
        assert calls
        # a stack of two against the study's stack of seven: the bounds of
        # TestStackedAgainstPerSlice
        study, fresh = (
            np.loadtxt(tmp_path / f"{name}.csv", delimiter=",", skiprows=1)
            for name in ("study", "fresh")
        )
        assert _same_bits(study[:, :2], fresh[:, :2])
        for e in eps_values:
            block = study[:, 0] == e
            r = RHO.support_radius * e
            peak = np.max(np.abs(rep.net.slice(e).component(np.linspace(-r, r, 129), "vdot")))
            gap = np.max(np.abs(study[block] - fresh[block]), axis=0)
            assert np.max(gap[3:]) <= 1e-11, (e, gap)
            assert gap[2] <= 5e-10 * peak, (e, gap, peak)

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
        s, = solve_geodesic(SADDLE, rho, [eps], init, span)
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
