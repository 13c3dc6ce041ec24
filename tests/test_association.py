"""Weak pairings, association verdicts, shadows, and mollifier embedding."""

import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from colombeau import association
from colombeau.asymptotics import EpsGrid
from colombeau.association import (
    ASSOC_TOL,
    Mollifier,
    _add_runs,
    _extrapolate_limit,
    _pairings,
    adaptive_simpson,
    association_grid,
    check_associated_zero,
    check_k_associated,
    embed_distribution,
    shadow,
    shadow_report_to_csv,
    sharp_mollifier,
    standard_mollifier,
    weak_integral,
)
from colombeau.errors import (
    BallEscapesChart,
    ConfigError,
    DimensionMismatch,
    NonFiniteValue,
    NotModerate,
    QuadratureError,
)
from colombeau.geometry import (
    CompactSet,
    DensityTest,
    default_densities,
    euclidean_atlas,
    make_bump,
)
from colombeau.manifold_maps import check_equivalent, single_chart_map
from colombeau.nets import net_from_function
from oracles import adaptive_simpson_reference, weak_integral_reference

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

LINE = euclidean_atlas(1)
K1 = CompactSet("main", [(-1.0, 1.0)])

RHO1 = standard_mollifier()
RHO2 = sharp_mollifier()

# frozen quadrature values for the two built-in profiles
C1 = 0.6751168130096943
C2 = 0.7937999006570768

DELTA1 = embed_distribution("delta", RHO1, LINE)
DELTA2 = embed_distribution("delta", RHO2, LINE)
HEAVI = embed_distribution("heaviside", RHO1, LINE)
HEAVI2 = embed_distribution("heaviside", RHO2, LINE)


def plateau_density(value_one_at=0.0):
    center = np.atleast_1d(value_one_at)
    return DensityTest(
        "main",
        make_bump(center, 0.05, 0.5),
        np.stack([center - 0.5, center + 0.5], axis=-1),
        "plateau",
    )


NU0 = plateau_density()
NU_OFF = DensityTest(
    "main", make_bump(np.array([0.15]), 0.1, 0.4), np.array([[-0.25, 0.55]]), "off"
)
NU_WIDE = DensityTest(
    "main", make_bump(np.zeros(1), 2.0, 3.0), np.array([[-3.0, 3.0]]), "wide"
)
DENSITIES = [NU0, NU_OFF]


def nu_at_zero(nu):
    return float(nu.handle(np.zeros((1, 1)))[0, 0])


def renormalized_square(delta_net, label):
    return net_from_function(
        lambda e, x: e * delta_net.at(e)(x) ** 2,
        1,
        1,
        box=[(-10.0, 10.0)],
        label=label,
        feature_scale=delta_net.feature_scale,
    )


class TestQuadrature:
    def test_polynomial_is_exact(self):
        val = adaptive_simpson(lambda x: x[:, :1] ** 3 - x[:, :1] + 2.0, -1.0, 2.0)
        assert val == pytest.approx(3.75 - 1.5 + 6.0, abs=1e-12)

    def test_narrow_spike_is_resolved_via_feature_presplit(self):
        eps = 2.0**-14
        assert weak_integral(DELTA1, NU_WIDE, eps) == pytest.approx(1.0, abs=1e-9)

    def test_nonfinite_integrand_raises(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(NonFiniteValue):
                adaptive_simpson(lambda x: 1.0 / x[:, :1], -0.5, 0.5)

    def test_depth_cap_raises_like_the_oracle(self):
        # with no floor, the segment at the (finite) spike never settles
        def spike(x):
            return (np.abs(x - 0.3) + 1e-300) ** -0.5

        for quad in (adaptive_simpson_reference, adaptive_simpson):
            with pytest.raises(QuadratureError, match="depth limit"):
                quad(spike, 0.0, 1.0, min_width=0.0)


class TestMollifier:
    def test_squared_masses_match_frozen_quadrature(self):
        assert RHO1.squared_mass() == pytest.approx(C1, rel=1e-10)
        assert RHO2.squared_mass() == pytest.approx(C2, rel=1e-10)

    def test_shapes_are_separated(self):
        assert abs(C1 - C2) / C1 > 0.05

    def test_non_positive_sharpness_is_rejected(self):
        # sharpness 0 is the flat profile, not a bump; below 0 it blows up
        # at the support edge
        for sharpness in (0.0, -1.0):
            with pytest.raises(ConfigError):
                Mollifier(sharpness, 1.0, "bad")

    def test_scaled_profile_keeps_unit_mass(self):
        for eps in (0.5, 2.0**-5, 2.0**-9):
            assert weak_integral(DELTA1, NU_WIDE, eps) == pytest.approx(1.0, abs=1e-9)


class TestWeakIntegral:
    def test_delta_pairs_to_density_value_at_zero(self):
        # the plateau [-0.3, 0.3] covers the delta's support [-eps, eps]
        nu = DensityTest(
            "main", make_bump(np.zeros(1), 0.3, 0.6), np.array([[-0.6, 0.6]]),
            "wide-plateau",
        )
        for eps in (0.25, 2.0**-6, 2.0**-10):
            assert weak_integral(DELTA1, nu, eps) == pytest.approx(1.0, abs=1e-9)

    def test_zero_net_pairs_to_zero(self):
        zero = net_from_function(
            lambda e, x: np.zeros_like(x), 1, 1, box=[(-3, 3)], label="zero"
        )
        assert weak_integral(zero, NU0, 0.125) == 0.0

    def test_fast_oscillation_decays(self):
        osc = net_from_function(
            lambda e, x: np.sin(x / e), 1, 1, box=[(-3, 3)], label="osc"
        )
        first = abs(weak_integral(osc, NU_OFF, 2.0**-2))
        last = abs(weak_integral(osc, NU_OFF, 2.0**-9))
        assert last < 1e-3
        assert last < first / 100.0

    def test_scalar_nets_only(self):
        flat2 = net_from_function(
            lambda e, x: x, 2, 2, box=[(-1, 1), (-1, 1)], label="plane"
        )
        with pytest.raises(DimensionMismatch):
            weak_integral(flat2, NU0, 0.5)


class TestAssociatedZero:
    def test_vanishing_amplitude_is_associated_to_zero(self):
        net = net_from_function(
            lambda e, x: e**2 * np.exp(-(x**2)), 1, 1, box=[(-3, 3)], label="fade"
        )
        report = check_associated_zero(net, DENSITIES)
        assert report
        assert all(row.final < ASSOC_TOL for row in report.rows)

    def test_delta_is_not_associated_to_zero(self):
        report = check_associated_zero(DELTA1, DENSITIES)
        assert not report
        assert report.rows[0].final == pytest.approx(1.0, abs=1e-6)

    def test_squared_step_minus_step_is_associated_to_zero(self):
        diff = net_from_function(
            lambda e, x: HEAVI.at(e)(x) ** 2 - HEAVI.at(e)(x),
            1,
            1,
            box=[(-10, 10)],
            label="step-defect",
            feature_scale=HEAVI.feature_scale,
        )
        assert check_associated_zero(diff, DENSITIES)

    def test_small_but_wobbling_pairings_are_flagged_not_passed(self):
        def amp(e):
            return e**2 * (1.5 + np.sin(3.0 * np.log2(1.0 / e)))

        net = net_from_function(
            lambda e, x: amp(e) * np.exp(-(x**2)), 1, 1, box=[(-3, 3)], label="wob"
        )
        report = check_associated_zero(net, [NU0])
        row = report.rows[0]
        assert not report
        assert row.final < ASSOC_TOL
        assert not row.decreasing
        assert "borderline" in row.flag


class TestShadow:
    def test_no_densities_give_empty_reports(self):
        zero = check_associated_zero(DELTA1, [])
        assert (zero.ok, zero.rows) == (True, [])
        shad = shadow(DELTA1, [])
        assert (shad.converged, shad.rows, shad.max_residual) == (True, [], None)

    def test_delta_shadow_matches_density_values(self):
        rep = shadow(DELTA1, DENSITIES, candidate=nu_at_zero)
        assert rep.converged
        assert rep.max_residual < 1e-9

    def test_convergence_order_on_curved_density(self):
        nu = DensityTest(
            "main",
            make_bump(np.array([0.3]), 0.1, 0.6),
            np.array([[-0.3, 0.9]]),
            "curved",
        )
        rep = shadow(
            DELTA1, [nu], candidate=nu_at_zero, grid=EpsGrid.dyadic(2, 9)
        )
        row = rep.rows[0]
        assert abs(row.order - 2.0) < 0.3
        assert row.residual < 1e-6

    def test_renormalized_squares_shadow_scaled_delta(self):
        for delta, c in ((DELTA1, C1), (DELTA2, C2)):
            sq = renormalized_square(delta, "sq")
            rep = shadow(sq, DENSITIES, candidate=lambda nu, _c=c: _c * nu_at_zero(nu))
            assert rep.converged
            assert rep.max_residual < 1e-9

    def test_amplitude_stable_oscillation_has_no_shadow(self):
        osc = net_from_function(
            lambda e, x: np.sin(1.0 / e) * np.exp(-(x**2)),
            1,
            1,
            box=[(-3, 3)],
            label="flicker",
        )
        rep = shadow(osc, DENSITIES)
        assert not rep.converged
        assert all("no shadow detected" in row.flag for row in rep.rows)

    def test_blowing_oscillation_has_no_shadow_on_default_grid(self):
        net = net_from_function(
            lambda e, x: np.sin(x / e) / e, 1, 1, box=[(-3, 3)], label="wild"
        )
        rep = shadow(net, [NU_OFF])
        assert not rep.converged
        assert "no shadow detected" in rep.rows[0].flag

    def test_divergent_pairing_raises(self):
        sq = net_from_function(
            lambda e, x: DELTA1.at(e)(x) ** 2,
            1,
            1,
            box=[(-10, 10)],
            label="raw-square",
            feature_scale=DELTA1.feature_scale,
        )
        with pytest.raises(NonFiniteValue):
            shadow(sq, [NU0])

    def test_csv_export_round_trips(self, tmp_path):
        rep = shadow(DELTA1, DENSITIES, candidate=nu_at_zero)
        path = tmp_path / "shadow.csv"
        shadow_report_to_csv(rep, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "density_id",
            "eps",
            "pairing",
            "extrapolated_limit",
            "candidate",
            "residual",
        ]
        n_grid = len(association_grid().values)
        assert len(rows) == 1 + 2 * n_grid
        assert rows[1][0] == "plateau"
        assert float(rows[1][1]) == 0.25
        assert float(rows[1][3]) == pytest.approx(1.0, abs=1e-9)


class TestKAssociation:
    def test_vanishing_pair_is_associated_but_not_equivalent(self):
        u = single_chart_map(LINE, LINE, lambda e, x: e * x, label="u")
        v = single_chart_map(LINE, LINE, lambda e, x: e**2 * x**2, label="v")
        rep = check_k_associated(u, v, 0, K1)
        assert rep
        assert rep.route_distance is True
        assert rep.route_bank is True
        assert not check_equivalent(u, v, K1)

    def test_higher_order_association_of_vanishing_pair(self):
        u = single_chart_map(LINE, LINE, lambda e, x: e * x, label="u")
        v = single_chart_map(LINE, LINE, lambda e, x: e**2 * x**2, label="v")
        assert check_k_associated(u, v, 1, K1)

    def test_net_is_associated_to_itself_at_every_order(self):
        u = single_chart_map(LINE, LINE, lambda e, x: np.sin(x) + e, label="w")
        for k in (0, 1, 2):
            assert check_k_associated(u, u, k, K1)

    def test_ripple_fails_at_order_two_only(self):
        # e^2 sin(x/e) -> 0 and its first derivative e cos(x/e) -> 0, but its
        # second derivative -sin(x/e) stays O(1)
        u = single_chart_map(LINE, LINE, lambda e, x: x, label="x")
        v = single_chart_map(
            LINE, LINE, lambda e, x: x + e**2 * np.sin(x / e), label="ripple"
        )
        assert check_k_associated(u, v, 0, K1)
        assert check_k_associated(u, v, 1, K1)
        rep = check_k_associated(u, v, 2, K1)
        assert not rep
        assert [(label, k) for label, k, ok, _ in rep.rows if not ok] == [("x0", 2)]

    def test_negative_order_is_rejected(self):
        u = single_chart_map(LINE, LINE, lambda e, x: x, label="x")
        with pytest.raises(ConfigError, match=r"^k must be >= 0, got -1"):
            check_k_associated(u, u, -1, K1)

    def test_step_against_half_scale_step_is_not_associated(self):
        h1 = single_chart_map(
            LINE, LINE, lambda e, x: HEAVI.at(e)(x), label="step",
            feature_scale=HEAVI.feature_scale,
        )
        h2 = single_chart_map(
            LINE, LINE, lambda e, x: HEAVI.at(e / 2)(x), label="half-step",
            feature_scale=HEAVI.feature_scale,
        )
        rep = check_k_associated(h1, h2, 0, K1)
        assert not rep
        assert rep.route_distance is False
        assert rep.route_bank is False

    def test_wild_net_is_rejected(self):
        u = single_chart_map(LINE, LINE, lambda e, x: np.sin(x) + e, label="w")
        with np.errstate(over="ignore", invalid="ignore"):
            wild = single_chart_map(
                LINE, LINE, lambda e, x: np.exp(1.0 / e) * np.tanh(x), label="wild"
            )
            with pytest.raises(NotModerate):
                check_k_associated(u, wild, 0, K1)


class TestEmbedding:
    def test_step_saturates_far_from_the_jump(self):
        h = HEAVI.at(2.0**-8)
        assert h(np.array([[5.0]]))[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert h(np.array([[-5.0]]))[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_profile_gives_half_at_the_jump(self):
        for eps in (0.5, 2.0**-6):
            assert HEAVI.at(eps)(np.array([[0.0]]))[0, 0] == pytest.approx(
                0.5, abs=1e-9
            )

    def test_step_slices_are_monotone(self):
        xs = np.linspace(-0.5, 0.5, 401)[:, None]
        vals = HEAVI.at(2.0**-4)(xs)[:, 0]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_support_escaping_the_chart_is_rejected(self):
        tight = euclidean_atlas(1, half_width=0.5)
        with pytest.raises(BallEscapesChart):
            embed_distribution("delta", RHO1, tight)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ConfigError):
            embed_distribution("fourier", RHO1, LINE)

    def test_plane_atlas_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            embed_distribution("delta", RHO1, euclidean_atlas(2))


class TestAssociationIsCoarserThanEquality:
    def test_equivalent_pairs_have_vanishing_difference(self):
        pairs = [
            (lambda e, x: e * x, lambda e, x: e * x + np.exp(-1.0 / e) * np.cos(x)),
            (lambda e, x: np.sin(x), lambda e, x: np.sin(x) + np.exp(-1.0 / e)),
        ]
        for fu, fv in pairs:
            u = single_chart_map(LINE, LINE, fu, label="u")
            v = single_chart_map(LINE, LINE, fv, label="v")
            assert check_equivalent(u, v, K1)
            diff = net_from_function(
                lambda e, x, _fu=fu, _fv=fv: _fv(e, x) - _fu(e, x),
                1,
                1,
                box=[(-1, 1)],
                label="diff",
            )
            assert check_associated_zero(diff, [NU0])

    def test_step_defect_witnesses_the_converse_failure(self):
        # associated to zero, yet order one in sup norm: at the point
        # where the step passes one half the defect is exactly minus a
        # quarter, for every eps
        for eps in (0.25, 2.0**-6, 2.0**-10):
            h = HEAVI.at(eps)(np.array([[0.0]]))[0, 0]
            assert h**2 - h == pytest.approx(-0.25, abs=1e-9)

    def test_squaring_separates_associated_deltas(self):
        # both regularizations shadow the same point mass
        for delta in (DELTA1, DELTA2):
            rep = shadow(delta, [NU0], candidate=nu_at_zero)
            assert rep.max_residual < 1e-9
        # their renormalized squares shadow visibly different multiples
        sq1 = renormalized_square(DELTA1, "sq1")
        sq2 = renormalized_square(DELTA2, "sq2")
        rep1 = shadow(sq1, [NU0], candidate=lambda nu: C1 * nu_at_zero(nu))
        rep2 = shadow(sq2, [NU0], candidate=lambda nu: C1 * nu_at_zero(nu))
        assert rep1.max_residual < 1e-9
        assert rep2.max_residual > 0.9 * abs(C2 - C1)


# ---------------------------------------------------------------------------
# pairings against the per-integral oracle


def slot_nets(rho_id, a):
    """The nine nets of the weak-limits benchmark's quadrature slots, built
    as the benchmark builds them."""
    d, h = (DELTA1, HEAVI) if rho_id == "rho1" else (DELTA2, HEAVI2)

    def net(fn, label):
        return net_from_function(
            fn, 1, 1, box=[(-10.0, 10.0)], feature_scale=DELTA1.feature_scale,
            label=label,
        )

    return {
        "shadow-delta": d,
        "shadow-step": h,
        "shadow-square": net(lambda e, x: a * e * d.at(e)(x) ** 2, "eps*delta^2"),
        "zero-defect": net(lambda e, x: h.at(e)(x) ** 2 - h.at(e)(x), "H^2-H"),
        "zero-gap": net(
            lambda e, x: a * (DELTA1.at(e)(x) - DELTA2.at(e)(x)), "delta-gap"
        ),
        "zero-scaled": net(lambda e, x: a * e * d.at(e)(x), "eps*delta"),
        "zero-spike": net(lambda e, x: a * d.at(e)(x), "delta"),
        "zero-stepgap": net(
            lambda e, x: HEAVI.at(e)(x) - HEAVI2.at(e)(x), "step-gap"
        ),
        "zero-step": h,
    }


def bump_densities(params):
    """Densities as the weak-limits benchmark draws them: (centre, plateau
    radius, support radius) per density."""
    return [
        DensityTest("main", make_bump(np.array([c]), r_in, r_out),
                    np.array([[c - r_out, c + r_out]]), f"nu{j}")
        for j, (c, r_in, r_out) in enumerate(params)
    ]


WORKLOAD_DENSITIES = bump_densities(
    [(-0.1, 0.22, 0.5), (0.04, 0.29, 0.46), (0.13, 0.25, 0.58)]
)
FADE = net_from_function(
    lambda e, x: e**2 * np.exp(-(x**2)), 1, 1, box=[(-3, 3)], label="fade"
)
WOB = net_from_function(
    lambda e, x: e**2 * (1.5 + np.sin(3.0 * np.log2(1.0 / e))) * np.exp(-(x**2)),
    1, 1, box=[(-3, 3)], label="wob",
)
OSC = net_from_function(lambda e, x: np.sin(x / e), 1, 1, box=[(-3, 3)], label="osc")


def _hex(values):
    return [float(v).hex() for v in values]


def assert_rows_match_the_oracle(net, densities, grid=None):
    """Every row of check_associated_zero and shadow equals, bit for bit,
    the one built from per-integral oracle pairings."""
    grid = grid or association_grid()
    want = [[weak_integral_reference(net, nu, e) for e in grid] for nu in densities]
    zero = check_associated_zero(net, densities, grid)
    shad = shadow(net, densities, grid=grid)
    assert len(zero.rows) == len(shad.rows) == len(densities)
    for row, srow, values in zip(zero.rows, shad.rows, want):
        assert _hex(row.values) == _hex(values)
        assert _hex(srow.pairings) == _hex(values)
        limit, order, flag = _extrapolate_limit(values)
        assert _hex([srow.extrapolated, srow.order]) == _hex([limit, order])
        assert srow.flag == flag


def sequential_error(check, net, densities, grid=None):
    """The exception the per-integral loop raises: density by density, eps
    by eps, and for ``shadow`` each density's extrapolation right after its
    pairings."""
    grid = grid or association_grid()
    try:
        for nu in densities:
            values = [weak_integral_reference(net, nu, e) for e in grid]
            if check is shadow:
                _extrapolate_limit(values)
    except Exception as exc:  # noqa: BLE001 - the oracle's error is the datum
        return exc
    return None


class TestPairingsAgainstTheOracle:
    @pytest.mark.parametrize("rho_id", ["rho1", "rho2"])
    @pytest.mark.parametrize("slot", list(slot_nets("rho1", 1.0)))
    def test_weak_limit_slot_nets(self, slot, rho_id):
        assert_rows_match_the_oracle(slot_nets(rho_id, 1.37)[slot], WORKLOAD_DENSITIES)

    @pytest.mark.parametrize("net", [FADE, WOB, OSC], ids=lambda n: n.label)
    def test_smooth_nets(self, net):
        assert_rows_match_the_oracle(net, DENSITIES)

    @pytest.mark.parametrize("net", [DELTA1, HEAVI, OSC], ids=lambda n: n.label)
    def test_default_densities(self, net):
        assert_rows_match_the_oracle(net, default_densities())

    def test_short_grid_and_one_density(self):
        assert_rows_match_the_oracle(DELTA2, [NU_OFF], EpsGrid.dyadic(2, 9))

    @settings(max_examples=6, deadline=None)
    @given(
        slot=st.sampled_from(list(slot_nets("rho1", 1.0))),
        rho_id=st.sampled_from(["rho1", "rho2"]),
        a=st.floats(0.5, 2.0),
        params=st.lists(
            st.tuples(st.floats(-0.15, 0.15), st.floats(0.2, 0.3),
                      st.floats(0.45, 0.6)),
            min_size=3, max_size=3,
        ),
    )
    def test_drawn_workload_banks(self, slot, rho_id, a, params):
        assert_rows_match_the_oracle(
            slot_nets(rho_id, a)[slot], bump_densities(params)
        )


# a density on [-0.6, 0.6] and one on [1.6, 2.4]
NEAR_DENSITY, FAR_DENSITY = bump_densities([(0.0, 0.3, 0.6), (2.0, 0.1, 0.4)])


class TestPairingErrorOrder:
    def _assert_sequential_error(self, check, net, densities):
        want = sequential_error(check, net, densities)
        assert want is not None
        with pytest.raises(type(want)) as got:
            check(net, densities)
        assert str(got.value) == str(want)
        return got.value

    def test_raw_square_shadow_raises_non_finite(self):
        sq = net_from_function(
            lambda e, x: DELTA1.at(e)(x) ** 2, 1, 1, box=[(-10, 10)],
            label="raw-square", feature_scale=DELTA1.feature_scale,
        )
        err = self._assert_sequential_error(shadow, sq, [NU0])
        assert isinstance(err, NonFiniteValue)

    def test_extrapolation_error_comes_before_a_later_density(self):
        # density 0's pairings grow like 1/eps; the net is nan on density 1
        net = net_from_function(
            lambda e, x: np.where(x < 1.0, np.exp(-(x**2)) / e, np.nan),
            1, 1, box=[(-3, 3)], label="grow-then-nan",
        )
        err = self._assert_sequential_error(shadow, net, [NEAR_DENSITY, FAR_DENSITY])
        assert "sustained growth" in str(err)

    def test_first_failing_density_wins_over_an_earlier_level(self):
        # density 0 leaves error unresolved at the floor from eps = 2^-7 on;
        # density 1 is non-finite at the first level of every eps
        def fn(e, x):
            spike = np.abs(x - 0.1234567) ** -0.9 if e < 0.01 else 0.0 * x
            return np.where(x < 1.0, spike, np.nan)

        net = net_from_function(fn, 1, 1, box=[(-3, 3)], label="spike-then-nan")
        for check in (check_associated_zero, shadow):
            err = self._assert_sequential_error(
                check, net, [NEAR_DENSITY, FAR_DENSITY]
            )
            assert isinstance(err, QuadratureError)

    def test_a_doomed_integral_still_refining_keeps_its_error(self):
        # from eps = 2^-7 on, the spike inside the feature window reaches
        # the floor levels before the one outside it, so the integral is
        # over its tolerance while it still has segments to refine
        def fn(e, x):
            if e > 0.01:
                return 0.0 * x
            return np.abs(x - 0.3 * e) ** -0.5 + np.abs(x - 0.4) ** -0.5

        net = net_from_function(
            fn, 1, 1, box=[(-3, 3)], label="two-spikes-in-one",
            feature_scale=lambda e: [(-e, e)],
        )
        for check in (check_associated_zero, shadow):
            err = self._assert_sequential_error(check, net, [NEAR_DENSITY])
            assert "subdivision floor" in str(err)

    def test_an_earlier_integral_that_fails_later_wins(self):
        # density 0 leaves error at its floor at the last eps, density 1 at
        # the first eps, whose coarser floor it reaches levels earlier
        def fn(e, x):
            if e < 2.0**-11.5:
                return np.abs(x - 0.1234567) ** -0.5
            if e > 0.2:
                return np.abs(x - 2.0123457) ** -0.5
            return 0.0 * x

        net = net_from_function(fn, 1, 1, box=[(-3, 3)], label="two-spikes")
        for check in (check_associated_zero, shadow):
            err = self._assert_sequential_error(
                check, net, [NEAR_DENSITY, FAR_DENSITY]
            )
            assert "subdivision floor" in str(err)


def _counted(handle, counter, key):
    """A copy of ``handle`` whose value calls add to ``counter[key]``."""
    fn = handle.eval_fn

    def eval_fn(x):
        counter[key] += 1
        return fn(x)

    return dataclasses.replace(handle, eval_fn=eval_fn)


class TestQuadratureCalls:
    def test_one_slice_call_per_eps_and_one_density_call_per_level(self):
        grid = association_grid()
        calls = {"net": 0, "density": 0}
        net = dataclasses.replace(
            DELTA1, at_fn=lambda e: _counted(DELTA1.at_fn(e), calls, "net"),
            _cache={},
        )
        densities = [
            dataclasses.replace(nu, handle=_counted(nu.handle, calls, "density"))
            for nu in WORKLOAD_DENSITIES
        ]
        # the deepest integral's level count: one density call per level
        # when each integral is refined on its own
        levels = 0
        for nu in densities:
            for eps in grid:
                calls["density"] = 0
                weak_integral_reference(net, nu, eps)
                levels = max(levels, calls["density"])
        calls.update(net=0, density=0)
        check_associated_zero(net, densities, grid)
        assert 0 < calls["net"] <= len(grid) * levels
        assert 0 < calls["density"] <= len(densities) * levels


class TestRunSums:
    """The kernel adds each integral's accepted segments as np.sum of them,
    bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_runs_of_every_length_class(self, seed):
        rng = np.random.default_rng(seed)
        # numpy sums runs below 8 terms in order, up to 128 in eight
        # accumulators, longer ones by halves
        lengths = np.r_[rng.integers(1, 9, 40), rng.integers(8, 130, 20),
                        rng.integers(129, 20000, 6), [1, 7, 8, 128, 129]]
        rng.shuffle(lengths)
        owner = np.repeat(np.arange(lengths.size), lengths)
        values = rng.standard_normal(owner.size) * 10.0 ** rng.integers(
            -8, 8, owner.size
        )
        start = rng.standard_normal(lengths.size)
        got = start.copy()
        _add_runs(got, values, owner)
        want = [s + float(np.sum(values[owner == k])) for k, s in enumerate(start)]
        assert _hex(got) == _hex(want)


class TestEachAbscissaOnce:
    """A level evaluates only its segments' new quarter points: a half's
    ends and midpoint carry the values its parent computed."""

    @staticmethod
    def _assert_each_once(seen):
        x = np.concatenate(seen).reshape(-1)
        assert x.size > 1000
        assert np.unique(x).size == x.size

    def test_adaptive_simpson(self):
        seen = []

        def fn(x):
            return np.sin(40.0 * x) * np.exp(x)

        def recorded(x):
            seen.append(x.copy())
            return fn(x)

        got = adaptive_simpson(recorded, -1.0, 2.0)
        self._assert_each_once(seen)
        assert _hex([got]) == _hex([adaptive_simpson_reference(fn, -1.0, 2.0)])

    def test_pre_split_repeats_only_the_shared_edges(self):
        # first-level segments that share an edge each evaluate it
        seen = []

        def fn(x):
            return np.sin(40.0 * x) * np.exp(x)

        def recorded(x):
            seen.append(x.copy())
            return fn(x)

        splits = (-0.3, 0.5, 1.25)
        got = adaptive_simpson(recorded, -1.0, 2.0, pre_split=splits)
        x = np.concatenate(seen).reshape(-1)
        assert x.size > 1000
        values, counts = np.unique(x, return_counts=True)
        assert values[counts > 1].tolist() == list(splits)
        assert set(counts[counts > 1]) == {2}
        want = adaptive_simpson_reference(fn, -1.0, 2.0, pre_split=splits)
        assert _hex([got]) == _hex([want])

    def test_pairing_of_one_eps_and_one_density(self):
        eps = 2.0**-9
        seen = {"net": [], "density": []}

        def recording(handle, key):
            fn = handle.eval_fn

            def eval_fn(x):
                seen[key].append(x.copy())
                return fn(x)

            return dataclasses.replace(handle, eval_fn=eval_fn)

        net = dataclasses.replace(
            OSC, at_fn=lambda e: recording(OSC.at_fn(e), "net"), _cache={}
        )
        nu = dataclasses.replace(NU_OFF, handle=recording(NU_OFF.handle, "density"))
        values, failure = _pairings(net, [nu], [eps])
        assert failure is None
        self._assert_each_once(seen["net"])
        assert _hex(np.concatenate(seen["net"]).ravel()) == _hex(
            np.concatenate(seen["density"]).ravel()
        )
        assert _hex(values.ravel()) == _hex([weak_integral_reference(OSC, NU_OFF, eps)])

    def test_constant_valued_net(self):
        # its slices return one 0-d value for any number of abscissae
        const = net_from_function(lambda e, x: e, 1, 1, box=[(-3, 3)], label="eps")
        assert const.at(0.5)(np.zeros((3, 1))).shape == ()
        assert_rows_match_the_oracle(const, DENSITIES)


# ---------------------------------------------------------------------------
# one quadrature level and the pairing integrand against the argsort reference


def _array_bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def _level_bits(result, total, leftover):
    *arrays, bad = result
    return [_array_bits(a) for a in (*arrays, total, leftover)] + [bad]


def _failure_bits(failure):
    return None if failure is None else (failure[0], type(failure[1]), str(failure[1]))


def _segment_set(seed):
    """Random integrals of 1-5 first-level segments each, with the roles a
    level must handle: an owner whose integrand turns nan on a later level,
    owners that reach their floor with error left over, and one with no
    floor at a spike, which runs into the depth cap."""
    rng = np.random.default_rng(seed)
    m = 10
    a = rng.uniform(-2.0, 1.0, m)
    width = rng.uniform(0.2, 2.0, m)
    tol = 10.0 ** rng.uniform(-12.0, -6.0, m)
    min_width = width * 2.0**-30
    spike_at = a + width * rng.uniform(0.1, 0.9, m)
    spike, step, wave = np.zeros(m), np.zeros(m), np.ones(m)
    # in this order, each role shows before a later one cuts it off
    capped, nan_owner, floored, failing = np.sort(rng.choice(m, 4, replace=False))
    spike[[capped, nan_owner, failing]] = 1.0
    min_width[[floored, failing]] = width[[floored, failing]] * 2.0**-8
    # a step's error estimate is h / 180 or h / 60: over this tol's share
    # on every level, and under this tol at the floor
    step[floored], wave[floored], tol[floored] = 1.0, 0.0, 1e-3
    # a bare spike at 0, where the abscissae keep their relative precision,
    # so only the segment at it splits on every level
    a[capped] = -width[capped] * rng.uniform(0.1, 0.9)
    spike_at[capped], wave[capped], min_width[capped], tol[capped] = 0.0, 0.0, 0.0, 1e-3
    freq = rng.uniform(1.0, 40.0, m)
    lo, hi, owner = [], [], []
    for k in range(m):
        n_seg = int(rng.integers(1, 6))
        edges = np.r_[a[k], np.sort(rng.uniform(a[k], a[k] + width[k], n_seg - 1)),
                      a[k] + width[k]]
        lo += edges[:-1].tolist()
        hi += edges[1:].tolist()
        owner += [k] * n_seg

    def feval(x, own):
        loud = (np.abs(x - spike_at[own]) + 1e-300) ** -0.5
        f = (wave[own] * np.sin(freq[own] * x) * np.exp(x) + spike[own] * loud
             + step[own] * (x > spike_at[own]))
        # a window too narrow for the first points, where the spike draws
        # the refinement in
        return np.where((own == nan_owner) & (loud > 1e4), np.nan, f)

    args = (np.array(lo), np.array(hi), np.array(owner, dtype=np.intp),
            width, tol, min_width)
    return args, feval, floored


class TestLevelAgainstTheReference:
    """The per-owner-offset level gives the argsort level's every output
    bit for bit, and evaluates the same abscissae."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_segment_sets(self, seed, monkeypatch):
        (lo, hi, owner, width, tol, min_width), feval, floored = _segment_set(seed)
        library = association._simpson_level
        bads, left = [], []

        def both(lo, hi, owner, known, fe, width, tol, min_width, total, leftover):
            ref_total, ref_leftover = total.copy(), leftover.copy()
            seen = {"lib": [], "ref": []}

            def recorded(key):
                def f(x, own):
                    seen[key].append((_array_bits(x), _array_bits(own)))
                    return fe(x, own)
                return f

            got = library(lo, hi, owner, known, recorded("lib"), width, tol,
                          min_width, total, leftover)
            want = oracles.simpson_level_reference(
                lo, hi, owner, known, recorded("ref"), width, tol, min_width,
                ref_total, ref_leftover,
            )
            assert seen["lib"] == seen["ref"]
            assert _level_bits(got, total, leftover) == _level_bits(
                want, ref_total, ref_leftover
            )
            bads.append(got[5])
            left.append(leftover[floored])
            return got

        with np.errstate(all="ignore"):
            monkeypatch.setattr(association, "_simpson_level", both)
            got, got_failure = association._simpson_runs(
                lo, hi, owner, width, tol, min_width, feval
            )
            monkeypatch.setattr(association, "_simpson_level",
                                oracles.simpson_level_reference)
            want, want_failure = association._simpson_runs(
                lo, hi, owner, width, tol, min_width, feval
            )
        assert _array_bits(got) == _array_bits(want)
        assert _failure_bits(got_failure) == _failure_bits(want_failure)
        # the nan turns up on a later level, an integral within its tol has
        # error left at its floor, and the spike without a floor runs all
        # 64 levels
        assert bads[0] is None and any(b is not None for b in bads)
        assert 0.0 < left[-1] <= tol[floored]
        assert len(bads) == 64
        assert "depth limit" in str(got_failure[1])


WEAK_LIMITS = WORKLOADS["weak-limits"]


class TestPairingIntegrandAgainstTheReference:
    """``_pairings`` on the weak-limits catalog calls every handle on the
    same columns, and gets the same integrands and pairings, as the
    reference integrand with the reference level."""

    @staticmethod
    def _run(net, densities, grid, reference, monkeypatch):
        runs = association._simpson_runs
        calls, outs = [], []

        def call(handle, x, _call):
            calls.append((id(handle), _array_bits(x)))
            return _call(handle, x)

        def simpson_runs(lo, hi, owner, width, tol, min_width, feval):
            if reference:
                feval = oracles.pairings_feval_reference(
                    [net.at(e) for e in grid], [nu.handle for nu in densities],
                    len(grid),
                    call=lambda h, x: call(h, x, oracles._call_on_columns_reference),
                )

            def recorded(x, own):
                out = feval(x, own)
                outs.append(_array_bits(out))
                return out

            return runs(lo, hi, owner, width, tol, min_width, recorded)

        library_call = association._call_on_columns
        with monkeypatch.context() as mp:
            mp.setattr(association, "_simpson_runs", simpson_runs)
            mp.setattr(association, "_call_on_columns",
                       lambda h, x: call(h, x, library_call))
            if reference:
                mp.setattr(association, "_simpson_level",
                           oracles.simpson_level_reference)
            values, failure = association._pairings(net, densities, grid)
        return _array_bits(values), _failure_bits(failure), calls, outs

    @pytest.mark.parametrize("seed", [0, 1])
    def test_catalog_nets(self, seed, monkeypatch):
        spec = WEAK_LIMITS.generate(seed)
        objs = WEAK_LIMITS.build(spec, None)
        grid = list(association_grid())
        for i in range(len(spec["quads"])):
            net, densities = objs[f"q{i}"]
            got = self._run(net, densities, grid, False, monkeypatch)
            want = self._run(net, densities, grid, True, monkeypatch)
            assert got == want, spec["quads"][i]["slot"]
            assert got[1] is None and got[2]
