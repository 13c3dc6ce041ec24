import math
import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colombeau.asymptotics import (
    MODERATE,
    NEGLIGIBLE,
    NEITHER,
    EpsGrid,
    dump_fit_csv,
    estimate_growth_order,
    is_negligible,
    negligible_to_resolution,
    _fit_lines,
)
from colombeau.errors import (
    DimensionMismatch,
    GridTooShort,
    NonFiniteValue,
    OutsideDomain,
)
from colombeau.geometry import CompactSet, euclidean_atlas
from colombeau.manifold_maps import GeneralizedManifoldPoint, gpoints_equivalent

GRID = EpsGrid.default()


def curve(fn):
    return [fn(e) for e in GRID]


def curve_on(grid, fn):
    return [fn(e) for e in grid]


class TestEpsGrid:
    def test_default_is_dyadic(self):
        assert GRID.values[0] == 2.0**-4
        assert GRID.values[-1] == 2.0**-20
        assert len(GRID) == 17

    def test_too_short(self):
        with pytest.raises(GridTooShort):
            EpsGrid((0.5, 0.25, 0.125))

    def test_not_decreasing(self):
        with pytest.raises(GridTooShort):
            EpsGrid((0.1, 0.2, 0.3, 0.4, 0.5, 0.6))

    def test_out_of_range(self):
        with pytest.raises(GridTooShort):
            EpsGrid((2.0, 1.0, 0.5, 0.25, 0.125, 0.0625))

    def test_geometric(self):
        g = EpsGrid.geometric(0.1, 1e-5, 9)
        assert len(g) == 9
        assert g.values[0] == pytest.approx(0.1)
        assert g.values[-1] == pytest.approx(1e-5)


class TestEstimateGrowthOrder:
    def test_inverse_cubic_is_moderate_3(self):
        v = estimate_growth_order(curve(lambda e: e**-3), GRID)
        assert v.classification == MODERATE
        assert v.order == 3
        assert v.slope == pytest.approx(-3.0, abs=0.1)

    def test_exp_decay_is_negligible_mmax(self):
        v = estimate_growth_order(curve(lambda e: math.exp(-1 / e)), GRID)
        assert v.classification == NEGLIGIBLE
        assert v.order == v.tested_order_cap

    def test_exp_growth_is_neither(self):
        # on a short grid where float64 still holds exp(1/eps), the slope
        # itself lands far below -N_max
        short = EpsGrid.dyadic(4, 9)
        v = estimate_growth_order(curve_on(short, lambda e: math.exp(1 / e)), short)
        assert v.classification == NEITHER
        # on the default grid the same curve overflows, same verdict
        with np.errstate(over="ignore"):
            vals = np.exp(1.0 / GRID.as_array())
        v2 = estimate_growth_order(vals, GRID)
        assert v2.classification == NEITHER

    def test_overflowing_samples_are_neither(self):
        # exp(1/eps) overflows float64 well before eps = 2^-20
        vals = []
        for e in GRID:
            try:
                vals.append(math.exp(1 / e))
            except OverflowError:
                vals.append(float("inf"))
        v = estimate_growth_order(vals, GRID)
        assert v.classification == NEITHER
        assert v.diagnostics.get("overflow") or v.diagnostics.get("reason")

    def test_zero_samples_negligible(self):
        v = estimate_growth_order([0.0] * len(GRID), GRID)
        assert v.classification == NEGLIGIBLE
        assert v.order == v.tested_order_cap

    def test_bounded_is_moderate_0(self):
        v = estimate_growth_order(curve(lambda e: 2.0 + math.sin(1 / e)), GRID)
        assert v.classification == MODERATE
        assert v.order == 0

    def test_eps_squared_negligible_2(self):
        v = estimate_growth_order(curve(lambda e: e**2), GRID)
        assert v.classification == NEGLIGIBLE
        assert v.order == 2
        assert v.slope == pytest.approx(2.0, abs=0.1)

    def test_linear_negligible_1(self):
        v = estimate_growth_order(curve(lambda e: 3 * e), GRID)
        assert v.classification == NEGLIGIBLE
        assert v.order == 1

    def test_nan_raises(self):
        vals = curve(lambda e: e)
        vals[3] = float("nan")
        with pytest.raises(NonFiniteValue):
            estimate_growth_order(vals, GRID)

    def test_negative_raises(self):
        with pytest.raises(NonFiniteValue):
            estimate_growth_order([-1.0] * len(GRID), GRID)

    def test_steeper_than_nmax_is_neither(self):
        v = estimate_growth_order(curve(lambda e: e**-14), GRID)
        assert v.classification == NEITHER

    @given(st.floats(1e-3, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_scaling_leaves_slope_alone(self, c):
        base = estimate_growth_order(curve(lambda e: e**-2), GRID)
        scaled = estimate_growth_order(curve(lambda e: c * e**-2), GRID)
        assert scaled.slope == pytest.approx(base.slope, abs=0.25)
        assert scaled.classification == base.classification

    @given(st.integers(-8, 6))
    @settings(max_examples=20, deadline=None)
    def test_pure_powers_recover_exponent(self, p):
        v = estimate_growth_order(curve(lambda e: e**p), GRID)
        assert v.slope == pytest.approx(p, abs=0.1)


#: the fit windows of 7-, 11- and 17-point dyadic grids and a 23-point geometric one
STACK_GRIDS = (
    EpsGrid.dyadic(4, 10), EpsGrid.dyadic(2, 12), EpsGrid.default(),
    EpsGrid.geometric(0.5, 1e-6, 23),
)


def stack_catalog(grid):
    """Curves on ``grid`` that reach every branch of the classifier: powers,
    log factors, exp(-c/eps), constants, exact zeros mixed with 1e-16
    noise, inf rows, underflow rows and seeded random power-law rows."""
    e = grid.as_array()
    rng = np.random.default_rng(len(e))
    rows = [e**p for p in np.arange(-14.0, 10.5, 0.5)]
    rows += [e**p * np.abs(np.log(e)) ** q for p in (-3, 0, 2, 8) for q in (-2, 1, 3)]
    rows += [np.exp(-c / e) for c in (0.05, 0.5, 1.0, 4.0)]
    rows += [np.full(len(e), c) for c in (0.0, 1e-16, 1.0, 7.5)]
    rows += list(np.where(rng.random((6, len(e))) < 0.5, 0.0, 1e-16))
    with np.errstate(over="ignore"):
        rows += [np.exp(1.0 / e), np.exp(0.02 / e)]
    rows += [np.where(e < e[len(e) // 2], np.inf, 1.0)]
    rows += [np.full(len(e), 1e-310), np.where(e < e[2], 0.0, 5.0)]
    rows += list(np.abs(rng.standard_normal((20, len(e)))) * e ** rng.uniform(-6, 6, (20, 1)))
    return np.array(rows)


class TestStackedClassifier:
    @pytest.mark.parametrize("grid", STACK_GRIDS, ids=len)
    def test_each_row_of_a_stack_is_its_one_row_call(self, grid):
        rows = stack_catalog(grid)
        stacked = estimate_growth_order(rows, grid)
        assert len(stacked) == len(rows)
        for row, v in zip(rows, stacked):
            assert repr(astuple(v)) == repr(astuple(estimate_growth_order(row.tolist(), grid)))
        assert negligible_to_resolution(rows, grid) == [
            negligible_to_resolution(row, grid) for row in rows
        ]
        reasons = {v.diagnostics.get("reason", v.classification) for v in stacked}
        assert {MODERATE, NEGLIGIBLE, "infinite samples on the grid",
                "samples at or below the value floor", "slope below -N_max = -12"} <= reasons
        # a fit window of 6 or more points has the drift guard
        drifts = len(grid.small_half()) >= 6
        assert drifts == ("slope drifting up: faster than any power" in reasons)

    @pytest.mark.parametrize("m", range(3, 21))
    def test_stacked_fit_is_per_row_lstsq_bit_for_bit(self, m):
        # pins the gufunc behind np.linalg.lstsq: a numpy whose stacked
        # solves stop matching its one-row lstsq fails here, not in a digest
        rng = np.random.default_rng(m)
        logx = np.log(np.geomspace(0.5, 1e-6, m))
        Y = rng.standard_normal((120, m)) * rng.uniform(0, 30, (120, 1))
        Y += rng.uniform(-12, 12, (120, 1)) * logx + rng.uniform(-700, 700, (120, 1))
        Y[:2] = [np.full(m, np.log(1e-300)), np.full(m, 2.5)]  # flat rows
        A = np.vstack([logx, np.ones_like(logx)]).T
        for row, fit in zip(Y, _fit_lines(np.vander(logx, 2), Y)):
            (slope, intercept), res, *_ = np.linalg.lstsq(A, row, rcond=None)
            total = float(np.sum((row - row.mean()) ** 2))
            want = (0.0, float(row.mean()), 1.0) if total < 1e-20 else (
                float(slope), float(intercept), max(0.0, 1.0 - float(res[0]) / total)
            )
            assert repr(fit) == repr(want)

    def test_a_bad_row_raises_the_one_row_error(self):
        good = np.array(curve(lambda e: e))
        nan, negative, minus_inf = good.copy(), good.copy(), good.copy()
        nan[3], negative[5], minus_inf[7] = float("nan"), -1e-3, -np.inf
        for bad in (nan, negative, minus_inf):
            with pytest.raises(NonFiniteValue) as one:
                estimate_growth_order(bad, GRID)
            for classify in (estimate_growth_order, negligible_to_resolution):
                with pytest.raises(NonFiniteValue) as many:
                    classify([good, bad, good], GRID)
                assert str(many.value) == str(one.value)
        for shape in ((2, 5), (1, 2, 17), (17, 2), ()):
            with pytest.raises(GridTooShort, match=re.escape(
                f"sample array has shape {shape}, grid has 17 points"
            )):
                estimate_growth_order(np.ones(shape), GRID)

    def test_flat_zero_and_inf_rows_warn_nothing(self):
        e = GRID.as_array()
        rows = [np.zeros(len(e)), np.full(len(e), 3.0), np.full(len(e), 1e-16),
                np.full(len(e), np.inf), np.where(e < 1e-3, np.inf, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = estimate_growth_order(rows, GRID)
            assert negligible_to_resolution(rows, GRID) == [True, False, False, False, False]
            assert [v.classification for v in verdicts] == [
                NEGLIGIBLE, MODERATE, MODERATE, NEITHER, NEITHER]
            assert estimate_growth_order(np.empty((0, len(e))), GRID) == []


class TestIsNegligible:
    def test_eps_squared(self):
        ok2, _ = is_negligible(curve(lambda e: e**2), GRID, 2)
        ok3, _ = is_negligible(curve(lambda e: e**2), GRID, 3)
        assert ok2 and not ok3

    def test_zero_curve_any_order(self):
        for m in range(0, 9):
            ok, _ = is_negligible([0.0] * len(GRID), GRID, m)
            assert ok

    def test_log_factor_borderline(self):
        vals = curve(lambda e: e * abs(math.log(e)))
        ok_default, diag = is_negligible(vals, GRID, 1)
        assert ok_default
        assert diag.get("borderline")
        ok_tight, _ = is_negligible(vals, GRID, 1, ratio_bound=10.0)
        assert not ok_tight

    def test_monotonicity(self):
        big = curve(lambda e: e**3)
        small = [0.5 * v for v in big]
        ok_big, _ = is_negligible(big, GRID, 3)
        ok_small, _ = is_negligible(small, GRID, 3)
        assert ok_big and ok_small

    @given(st.integers(1, 6), st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_pointwise_domination(self, m, scale):
        base = curve(lambda e: e**m)
        dominated = [scale * v for v in base]
        ok, _ = is_negligible(base, GRID, m)
        ok_dom, _ = is_negligible(dominated, GRID, m)
        assert not ok or ok_dom


def gnum(fn, d):
    """A generalized number: an eps-indexed point of R^d."""
    return GeneralizedManifoldPoint(
        lambda e: np.asarray(fn(e), dtype=float), CompactSet("main", [(-1.0, 1.0)] * d)
    )


def gnum_equal(a, b, grid):
    """Equality of generalized numbers: equivalence of the points they are
    in R^d, decided by ``gpoints_equivalent`` on the Euclidean atlas."""
    d = a.support.box.shape[0]
    return gpoints_equivalent(euclidean_atlas(d), a, b, grid)


def const(value):
    return gnum(lambda e: value, len(value))


class TestGnumEqual:
    def test_linear_difference_is_not_equal(self):
        a = gnum(lambda e: [2 * e], 1)
        assert not gnum_equal(a, const([0.0]), GRID)

    def test_exponentially_close_is_equal(self):
        a = gnum(lambda e: [math.exp(-1 / e)], 1)
        assert gnum_equal(a, const([0.0]), GRID)

    def test_reflexive(self):
        a = gnum(lambda e: [math.sin(1 / e), e], 2)
        assert gnum_equal(a, a, GRID)

    def test_symmetric(self):
        a = gnum(lambda e: [e**9], 1)
        b = const([0.0])
        assert gnum_equal(a, b, GRID) == gnum_equal(b, a, GRID)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gnum_equal(const([0.0]), const([0.0, 0.0]), GRID)

    def test_transitive_with_margin(self):
        a = const([1.0])
        b = gnum(lambda e: [1.0 + math.exp(-2 / e)], 1)
        c = gnum(lambda e: [1.0 - math.exp(-2 / e)], 1)
        assert gnum_equal(a, b, GRID) and gnum_equal(b, c, GRID)
        assert gnum_equal(a, c, GRID)


class TestGpointEquivalent:
    def test_eps_offset_not_equivalent(self):
        p = gnum(lambda e: [e, 0.0], 2)
        assert not gnum_equal(p, const([0.0, 0.0]), GRID)

    def test_exponential_offset_equivalent(self):
        q = const([0.3, -0.1])
        p = gnum(lambda e: q.at(e)[1] + math.exp(-1 / e) * np.ones(2), 2)
        assert gnum_equal(p, q, GRID)

    def test_bounded_oscillation_equivalent(self):
        p = gnum(lambda e: [math.sin(1 / e) * math.exp(-1 / e), 0.0], 2)
        assert gnum_equal(p, const([0.0, 0.0]), GRID)

    def test_unbounded_net_raises(self):
        # a point net must stay in a compact set as eps -> 0
        with pytest.raises(OutsideDomain):
            gnum(lambda e: [1 / e], 1).check_support()


def test_csv_dump_roundtrip(tmp_path):
    vals = curve(lambda e: e**2)
    v = estimate_growth_order(vals, GRID)
    out = tmp_path / "fit.csv"
    text = dump_fit_csv(vals, GRID, v, out)
    lines = text.strip().splitlines()
    assert lines[0] == "eps,value,fit"
    assert len(lines) == len(GRID) + 1
    assert out.read_text() == text
    eps0, val0, fit0 = (float(t) for t in lines[1].split(","))
    assert eps0 == pytest.approx(2.0**-4)
    assert val0 == pytest.approx(eps0**2)
    assert fit0 == pytest.approx(val0, rel=0.5)


def test_negligible_to_resolution_boundary():
    assert negligible_to_resolution(curve(lambda e: e**9), GRID)
    assert not negligible_to_resolution(curve(lambda e: e**5), GRID)
