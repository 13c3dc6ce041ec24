"""Weak pairings, association verdicts, shadows, and mollifier embedding."""

import csv

import numpy as np
import pytest

from colombeau.asymptotics import EpsGrid
from colombeau.association import (
    ASSOC_TOL,
    Mollifier,
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
)
from colombeau.geometry import (
    CompactSet,
    DensityTest,
    euclidean_atlas,
    make_bump,
)
from colombeau.manifold_maps import check_equivalent, single_chart_map
from colombeau.nets import net_from_function

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
        for eps in (0.25, 2.0**-6, 2.0**-10):
            assert weak_integral(DELTA1, NU0, eps) == pytest.approx(1.0, abs=1e-9)

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
