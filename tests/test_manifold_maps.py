from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from colombeau import association, geometry, manifold_maps
from colombeau.association import check_k_associated
from colombeau.asymptotics import EpsGrid, estimate_growth_order, is_negligible
from colombeau.bundle_maps import check_vb_moderate, single_chart_hom
from colombeau.errors import (
    AtlasMismatch,
    ColombeauError,
    ConfigError,
    NotCBounded,
    OutsideDomain,
)
from colombeau.geometry import (
    Atlas,
    Chart,
    CompactSet,
    affine_transition,
    constant_metric,
    default_test_bank,
    euclidean_atlas,
    make_bump,
    trivial_bundle,
)
from colombeau.manifold_maps import (
    GeneralizedManifoldPoint,
    ManifoldNet,
    _bank_difference_curves,
    _check_points,
    _coordinate_curves,
    _sup_curve,
    _witness_union,
    adversarial_gpoint,
    check_cbounded,
    check_equivalent,
    check_moderate,
    check_pointvalue_equality,
    compose,
    constant_gpoint,
    gpoints_equivalent,
    identity_map as chart_identity,
    point_distance,
    point_value,
    random_gpoints,
    single_chart_map,
)
from colombeau.nets import (
    SmoothMapHandle,
    handle_compose,
    net_from_function,
)
from oracles import bank_tests, sup_abs, sup_curve

LINE = euclidean_atlas(1, 10.0)
PLANE = euclidean_atlas(2, 10.0)
K1 = CompactSet("main", [(-1.0, 1.0)])


def oscillator(power=1):
    # exact jets keep the derivative sups clean down to the smallest eps;
    # a finite difference aliases once the period drops below its step
    def fn(e, x):
        return np.sin(x / e**power)

    def jet(e, x, alpha):
        k = alpha[0]
        table = [np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)]
        return e ** (-power * k) * table[k % 4](x[..., :1] / e**power)

    return single_chart_map(
        LINE, LINE, fn, jet=jet, label=f"sin(x/e^{power})"
    )


def identity_map():
    return single_chart_map(LINE, LINE, lambda e, x: x, label="x")


def perturbed_identity(scale=1.0):
    return single_chart_map(
        LINE, LINE, lambda e, x: x + scale * np.exp(-1.0 / e), label="x+negl"
    )


def smooth_step(e, x):
    t = np.clip(x[..., 0] / e, -50.0, 50.0)
    return (0.5 * (1.0 + np.tanh(t)))[..., None]


def wild_map():
    """Bounded values, derivatives growing like exp(k/eps).

    Finite differences saturate near 1/step and cannot see growth this
    fast, so the net carries its exact jets.
    """

    def fn(e, x):
        return np.sin(np.exp(1.0 / e) * x)

    def jet(e, x, alpha):
        k = alpha[0]
        w = np.exp(k / e) if k else 1.0
        phase = np.exp(1.0 / e) * x[..., 0]
        table = [np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)]
        return (w * table[k % 4](phase))[..., None]

    return single_chart_map(LINE, LINE, fn, jet=jet, label="sin(exp(1/e)x)")


# grid kept coarse enough that exp(1/eps) stays inside float range
SHORT_GRID = EpsGrid.dyadic(4, 9)

K_WIDE = CompactSet("main", [(-2.0, 2.0)])


def escapes_past(edge=1.5):
    """The identity on |x| <= edge; beyond it the images run off like 1/eps."""
    return single_chart_map(
        LINE, LINE, lambda e, x: x + np.maximum(np.abs(x) - edge, 0.0) / e,
        label=f"escapes past {edge}",
    )


def two_chart_line():
    """A line with charts a and b = a + 10 and the unit metric on both."""
    unit = constant_metric([[1.0]])
    return Atlas(
        [Chart("a", [(-3.0, 3.0)]), Chart("b", [(7.0, 13.0)])],
        transitions={
            ("a", "b"): affine_transition(np.eye(1), np.array([10.0])),
            ("b", "a"): affine_transition(np.eye(1), np.array([-10.0])),
        },
        metric={"a": unit, "b": unit},
    )


class TestCBounded:
    def test_oscillator_is_cbounded(self):
        report = check_cbounded(oscillator(), K1)
        assert report.ok
        assert report.witness is not None
        box = report.witness.box
        assert box[0, 0] <= -1.0 and box[0, 1] >= 1.0

    def test_blowup_fails_but_bank_stays_bounded(self):
        blow = single_chart_map(
            LINE, LINE, lambda e, x: np.full_like(x, 1.0 / e), label="1/e"
        )
        report = check_cbounded(blow, K1)
        assert not report.ok
        assert report.diagnostics["escape_eps"] is not None
        # compactly supported tests cannot see the escape to infinity: each
        # test of a bank spread over the chart stays bounded on the images
        grid = EpsGrid.default()
        pts = K1.sample_points()
        bank = default_test_bank(LINE, CompactSet("main", [(-9.0, 9.0)]))
        sups = [
            np.max(np.abs(bank.eval(blow.eval(e, pts, "main")[1])), axis=1)
            for e in grid
        ]
        for curve in np.transpose(sups).tolist():
            assert is_negligible(curve, grid, 0)[0]

    def test_constant_map_witness_hugs_the_point(self):
        const = single_chart_map(
            LINE, LINE, lambda e, x: np.full_like(x, 0.7), label="const"
        )
        report = check_cbounded(const, K1)
        assert report.ok
        box = report.witness.box
        assert box[0, 0] < 0.7 < box[0, 1]
        assert box[0, 1] - box[0, 0] < 0.1

    def test_identity_witness_contains_k(self):
        report = check_cbounded(identity_map(), K1)
        assert report.ok
        assert report.witness.box[0, 0] < -1.0 < 1.0 < report.witness.box[0, 1]


class TestCBoundedMemo:
    def test_repeat_call_returns_the_cached_report(self):
        u = oscillator()
        first = check_cbounded(u, K1)
        assert check_cbounded(u, K1) is first
        # equal K and grid built anew hit the same entry
        again = check_cbounded(u, CompactSet("main", [(-1.0, 1.0)]), EpsGrid.default())
        assert again is first

    def test_box_resolution_and_grid_each_get_their_own_report(self):
        u = identity_map()
        base = check_cbounded(u, K1)
        other_box = check_cbounded(u, CompactSet("main", [(-1.0, 0.5)]))
        other_res = check_cbounded(u, CompactSet("main", [(-1.0, 1.0)], resolution=5))
        other_grid = check_cbounded(u, K1, SHORT_GRID)
        for report in (other_box, other_res, other_grid):
            assert report is not base
        assert other_box.witness.box[0, 1] < base.witness.box[0, 1]
        assert other_res.diagnostics["samples"] < base.diagnostics["samples"]
        assert other_grid.diagnostics["grid"] == SHORT_GRID
        assert base.diagnostics["grid"] == EpsGrid.default()
        # a fresh net starts with an empty memo
        assert check_cbounded(identity_map(), K1) is not base

    @pytest.mark.parametrize("wide_first", [False, True])
    def test_verdicts_stay_per_k_in_either_call_order(self, wide_first):
        u = escapes_past(1.5)
        order = [K_WIDE, K1] if wide_first else [K1, K_WIDE]
        for _ in range(2):
            reports = {id(K): check_cbounded(u, K) for K in order}
            assert reports[id(K1)].ok
            assert not reports[id(K_WIDE)].ok
            assert reports[id(K_WIDE)].diagnostics["escape_eps"] is not None


class TestModerateMemo:
    """``check_moderate`` computes each (net, K, grid, k_max) once."""

    @staticmethod
    def counted_oscillator(calls):
        def fn(e, x):
            calls.append(e)
            return np.sin(x / e)

        return single_chart_map(LINE, LINE, fn, label="sin(x/e)")

    def test_repeat_call_returns_the_cached_report(self):
        calls = []
        u = self.counted_oscillator(calls)
        first = check_moderate(u, K1, k_max=2)
        n = len(calls)
        assert n > 0
        assert check_moderate(u, K1, k_max=2) is first
        # equal K and grid built anew hit the same entry
        again = check_moderate(
            u, CompactSet("main", [(-1.0, 1.0)]), k_max=2, grid=EpsGrid.default()
        )
        assert again is first
        assert len(calls) == n

    def test_k_max_box_and_grid_each_get_their_own_report(self):
        calls = []
        u = self.counted_oscillator(calls)
        base = check_moderate(u, K1, k_max=2)
        others = [
            check_moderate(u, K1, k_max=1),
            check_moderate(u, CompactSet("main", [(-1.0, 0.5)]), k_max=2),
            check_moderate(u, K1, k_max=2, grid=SHORT_GRID),
        ]
        for report in others:
            assert report is not base
        assert others[0].verdict.order == 1 and base.verdict.order == 2
        # a fresh net starts with an empty memo
        assert check_moderate(oscillator(), K1, k_max=2) is not base

    def test_a_raising_call_is_not_stored(self):
        calls = []

        def fn(e, x):
            calls.append(e)
            return np.full_like(x, 1.0 / e)

        blow = single_chart_map(LINE, LINE, fn, label="1/e")
        for _ in range(2):
            with pytest.raises(NotCBounded):
                check_moderate(blow, K1)
        # the c-boundedness report is memoized, the raise is not
        assert [k[0] for k in blow._reports] == ["_cbounded_report"]


class TestModerate:
    def test_negative_order_is_rejected(self):
        with pytest.raises(ConfigError, match="k_max must be >= 0, got -1"):
            check_moderate(oscillator(), K1, k_max=-1)

    def test_oscillator_order_matches_derivative_count(self):
        report = check_moderate(oscillator(), K1, k_max=2)
        assert bool(report)
        assert report.verdict.classification == "moderate"
        assert report.verdict.order == 2

    @pytest.mark.parametrize("power", [1, 2])
    def test_order_calibration(self, power):
        # k-th derivative of sin(x/e^p) carries e^{-pk}
        report = check_moderate(oscillator(power), K1, k_max=1)
        assert report.verdict.classification == "moderate"
        assert report.verdict.order == power
        slopes = [
            v.slope
            for label, k, v in report.rows
            if label == "x0" and k == 1
        ]
        assert abs(slopes[0] + power) < 0.1

    def test_identity_is_order_zero(self):
        report = check_moderate(identity_map(), K1, k_max=2)
        assert report.verdict.classification == "moderate"
        assert report.verdict.order == 0

    def test_negligible_coordinates_read_moderate_of_order_zero(self):
        # order 0 of a manifold-valued net is its c-boundedness: every row
        # of exp(-1/e)cos x reads negligible, the verdict Moderate(0)
        u = single_chart_map(
            LINE, LINE, lambda e, x: np.exp(-1.0 / e) * np.cos(x),
            label="exp(-1/e)cos x",
        )
        report = check_moderate(u, K1, k_max=2)
        assert {v.classification for _, _, v in report.rows} == {"negligible"}
        assert report.verdict.classification == "moderate"
        assert report.verdict.order == 0
        assert bool(report)

    def test_wild_net_is_neither(self):
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_moderate(wild_map(), K1, k_max=2, grid=SHORT_GRID)
        assert not bool(report)
        assert report.verdict.classification == "neither"

    def test_blowup_raises_not_cbounded(self):
        blow = single_chart_map(
            LINE, LINE, lambda e, x: np.full_like(x, 1.0 / e), label="1/e"
        )
        with pytest.raises(NotCBounded):
            check_moderate(blow, K1)

    def test_report_lists_only_plateau_tests(self):
        report = check_moderate(identity_map(), K1, k_max=1)
        assert [(label, k) for label, k, _ in report.rows] == [("x0", 0), ("x0", 1)]
        report = check_moderate(TestPinnedSlopes.ripple(), TestPinnedSlopes.K2,
                                k_max=2, grid=TestPinnedSlopes.GRID)
        assert [(label, k) for label, k, _ in report.rows] == [
            (f"x{i}", k) for i in range(2) for k in range(3)
        ]


class TestSupCurve:
    GRID = EpsGrid.dyadic(2, 7)
    PTS = np.array([[0.0, 0.0], [0.5, -0.5], [1.0, 1.0]])

    @staticmethod
    def quadratic():
        """f = x^2/2 + xy + 3y^2 with exact jets: its order-2 jets are 1, 1
        and 6, the largest being d^2/dy^2, the last multi-index."""

        def fn(e, x):
            a, b = x[..., 0], x[..., 1]
            return (0.5 * a * a + a * b + 3.0 * b * b)[..., None]

        def jet(e, x, alpha):
            a, b = x[..., :1], x[..., 1:]
            table = {
                (0, 0): lambda: fn(e, x),
                (1, 0): lambda: a + b,
                (0, 1): lambda: a + 6.0 * b,
                (2, 0): lambda: np.ones_like(a),
                (1, 1): lambda: np.ones_like(a),
                (0, 2): lambda: np.full_like(a, 6.0),
            }
            return table[tuple(alpha)]()

        return net_from_function(fn, 2, 1, jet=jet)

    def test_order_two_takes_the_max_over_every_multi_index(self):
        net = self.quadratic()
        curve = _sup_curve(self.GRID, 2, self.PTS, (net.at_grid(self.GRID),))
        assert curve == [6.0] * len(self.GRID)

    def test_nan_jet_gives_inf(self):
        nan_net = net_from_function(
            lambda e, x: np.where(x[..., :1] > 0.75, np.nan, x[..., :1]), 2, 1
        )
        net = self.quadratic()
        single = _sup_curve(self.GRID, 0, self.PTS, (nan_net.at_grid(self.GRID),))
        pair = _sup_curve(
            self.GRID, 0, self.PTS, (net.at_grid(self.GRID), nan_net.at_grid(self.GRID))
        )
        assert single == pair == [float("inf")] * len(self.GRID)


class TestBankImage:
    """The bank route's rows take each net's images over the grid once and
    apply every test to them; they equal the sup curves of the composites
    f(u_eps) - f(v_eps) of the tests' own handles.  Above order 0 the
    composites of the plateau tests are the chart-coordinate rows."""

    GRID = EpsGrid.dyadic(2, 9)

    @staticmethod
    def _compose_rows(u, v, tests, order, grid, pts):
        return [
            (label, order, sup_curve(grid, order, pts, lambda eps, f=f: (
                handle_compose(f, u.handle(eps, "main")[1]),
                handle_compose(f, v.handle(eps, "main")[1]),
            )))
            for label, f in tests
        ]

    def test_rows_equal_the_composite_sup_curves(self):
        # an eps-scale spike at 0 against an O(eps) perturbation, sampled at
        # K's check points and through the spike's window [-eps, eps] per eps
        u = single_chart_map(
            LINE, LINE, lambda e, x: np.sin(x) + e * np.exp(-((x / e) ** 2)),
            label="spike",
        )
        v = single_chart_map(
            LINE, LINE, lambda e, x: np.sin(x) + e * np.cos(x), label="shift"
        )
        base = _check_points(K1)

        def pts(eps):
            return np.concatenate([base, np.linspace(-eps, eps, 33)[:, None]])

        region = CompactSet("main", [(-1.5, 1.5)])
        bank = default_test_bank(LINE, region)
        tests = bank_tests(LINE, region)
        got = _bank_difference_curves(u, v, bank, "main", self.GRID, pts)
        assert got == self._compose_rows(u, v, tests, 0, self.GRID, pts)
        assert [o for _, o, _ in got].count(0) >= 2
        cutoff, x0 = self._compose_rows(u, v, tests[:2], 1, self.GRID, pts)
        assert _coordinate_curves((u, v), [1], "main", self.GRID, pts) == [
            ("x0", 1, x0[2])
        ]
        assert cutoff[2] == [0.0] * len(self.GRID)

    def test_each_net_is_evaluated_once_per_eps(self, monkeypatch):
        # over the whole verdict each slice is called once, on its row of
        # the one point stack; the bank route finds the images in the grid
        # handles and calls no slice
        calls = {"u": [], "v": []}
        in_bank_route = [False]

        def counted(name, fn):
            def wrapped(e, x):
                calls[name].append((e, in_bank_route[0]))
                return fn(e, x)
            return wrapped

        u = single_chart_map(LINE, LINE, counted("u", lambda e, x: e * x))
        v = single_chart_map(LINE, LINE, counted("v", lambda e, x: e**2 * x**2))
        bank_route = manifold_maps._bank_difference_curves

        def spy(*args):
            in_bank_route[0] = True
            try:
                return bank_route(*args)
            finally:
                in_bank_route[0] = False

        monkeypatch.setattr(manifold_maps, "_bank_difference_curves", spy)
        grid = association.association_grid()
        assert check_k_associated(u, v, 0, K1, grid=grid)
        for c in calls.values():
            assert Counter(e for e, _ in c) == {eps: 1 for eps in grid}
            assert not any(bank for _, bank in c)

    def test_order_zero_evaluates_the_bank_once_per_net(self, monkeypatch):
        evals = []
        stacked = geometry.TestBank.eval
        monkeypatch.setattr(
            geometry.TestBank, "eval",
            lambda bank, y: evals.append(y) or stacked(bank, y),
        )
        u = single_chart_map(LINE, LINE, lambda e, x: np.sin(x) + e * x)
        v = single_chart_map(LINE, LINE, lambda e, x: np.sin(x))
        region = CompactSet("main", [(-1.5, 1.5)])
        bank = default_test_bank(LINE, region)
        pts = _check_points(K1)
        want = self._compose_rows(u, v, bank_tests(LINE, region), 0, self.GRID, pts)
        got = _bank_difference_curves(u, v, bank, "main", self.GRID, pts)
        assert got == want
        # each net's images over the whole grid are one stack
        assert [y.shape for y in evals] == [(len(self.GRID),) + pts.shape] * 2

    def test_non_finite_images_read_as_the_per_test_sups(self):
        # u is nan at one eps and +-inf at another; a nan entry makes its row
        # inf, while inf only sends a bump (and the cutoff) to 0
        grid = self.GRID
        i_nan, i_inf = 2, 5
        e_nan, e_inf = list(grid)[i_nan], list(grid)[i_inf]

        def fn(e, x):
            y = np.sin(x) + e * x
            if e == e_nan:
                return np.where(x > 0.5, np.nan, y)
            if e == e_inf:
                return np.where(x < -0.5, np.inf, np.where(x > 0.5, -np.inf, y))
            return y

        u = single_chart_map(LINE, LINE, fn)
        v = single_chart_map(LINE, LINE, lambda e, x: np.sin(x))
        region = CompactSet("main", [(-1.5, 1.5)])
        bank = default_test_bank(LINE, region)
        pts = _check_points(K1)
        rows = _bank_difference_curves(u, v, bank, "main", grid, pts)
        got = {label: curve for label, _, curve in rows}
        tests = bank_tests(LINE, region)
        for label, h in tests:
            want = [
                max(0.0, sup_abs(
                    h.eval_fn(u.handle(eps, "main")[1].eval_fn(pts))
                    - h.eval_fn(v.handle(eps, "main")[1].eval_fn(pts))
                ))
                for eps in grid
            ]
            assert got[label] == want, label
        assert got["x0*cutoff"][i_nan] == got["x0*cutoff"][i_inf] == np.inf
        for label, _ in tests:
            if not label.endswith("*cutoff"):
                assert got[label][i_nan] == np.inf, label
                assert np.isfinite(got[label][i_inf]), label


class TestPinnedSlopes:
    """Slopes of one 2-D net, pinned bit for bit: a change to how sup
    curves are sampled must not move any of them."""

    K2 = CompactSet("main", [(-1.0, 1.0), (-0.5, 0.5)], resolution=5)
    GRID = EpsGrid.dyadic(2, 8)

    @staticmethod
    def ripple():
        def fn(e, x):
            return np.stack(
                [x[..., 0] + 0.5 * e * np.sin(x[..., 1] / e), 0.5 * x[..., 1]],
                axis=-1,
            )

        return single_chart_map(PLANE, PLANE, fn, label="ripple")

    def test_check_moderate_per_test_slopes(self):
        report = check_moderate(self.ripple(), self.K2, k_max=2, grid=self.GRID)
        assert [(label, k, v.slope) for label, k, v in report.rows] == [
            ("x0", 0, 0.0059650794944265135),
            ("x0", 1, 0.0),
            ("x0", 2, -0.9996578824045167),
            ("x1", 0, 0.0),
            ("x1", 1, 0.0),
            ("x1", 2, 8.0),
        ]

    def test_check_vb_moderate_fiber_slopes(self):
        def mat(e, x):
            a = e * np.cos(x[..., 0] / e)
            rows = [
                np.stack([a, x[..., 1]], axis=-1),
                np.stack([x[..., 0] ** 2, np.ones_like(a)], axis=-1),
            ]
            return np.stack(rows, axis=-2)

        bundle = trivial_bundle(PLANE, 2)
        hom = single_chart_hom(bundle, bundle, self.ripple(), mat, label="ripple")
        report = check_vb_moderate(hom, self.K2, k_max=2, grid=self.GRID)
        assert [(k, v.slope) for k, v in report.fiber_verdicts] == [
            (0, 0.0), (1, 0.0), (2, -1.000000000010602),
        ]


def _coordinate(h, i):
    """The i-th target coordinate of the handle h: column i of its values
    and jets."""
    return SmoothMapHandle(
        h.dim_in, 1, lambda x: h.eval_fn(x)[..., i:i + 1],
        lambda x, alpha, step: h.jet(x, alpha, step)[..., i:i + 1],
    )


def _e2_ripple():
    return single_chart_map(
        LINE, LINE, lambda e, x: e**2 * np.sin(x / e) + x, label="e^2 sin(x/e)+x"
    )


class TestModerateCoordinateRows:
    """On the witness plateau the bank's plateau tests measure nothing but
    the chart coordinates: the composite of u with ``x_i*cutoff`` has the
    jets of u's i-th chart coordinate bit for bit, and the composite with
    ``cutoff`` is the constant 1.  So check_moderate's rows, which measure
    the coordinates alone, are the composites' verdicts."""

    CASES = {
        "sin(x/e)": (oscillator, K1, EpsGrid.default()),
        "e^2 sin(x/e)+x": (_e2_ripple, K1, EpsGrid.default()),
        "ripple": (TestPinnedSlopes.ripple, TestPinnedSlopes.K2, TestPinnedSlopes.GRID),
    }

    @staticmethod
    def _composite_curves(u, K, grid, k_max):
        """(test label, order) -> sup curve of f(u_eps) per plateau test f
        of the bank on u's witness."""
        tests = bank_tests(u.target, check_cbounded(u, K, grid).witness)
        pts = _check_points(K)
        return {
            (label, k): sup_curve(grid, k, pts, lambda eps, f=f: (
                handle_compose(f, u.handle(eps, K.chart_id)[1]),
            ))
            for label, f in tests[:1 + u.target.dim]
            for k in range(k_max + 1)
        }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_coordinate_tests_repeat_the_chart_coordinates(self, case):
        net, K, grid = self.CASES[case]
        u = net()
        composite = self._composite_curves(u, K, grid, 3)
        pts = _check_points(K)
        for i in range(u.target.dim):
            for k in range(4):
                chart = sup_curve(grid, k, pts, lambda eps: (
                    _coordinate(u.handle(eps, K.chart_id)[1], i),
                ))
                assert composite[(f"x{i}*cutoff", k)] == chart, (i, k)
        assert composite[("cutoff", 0)] == [1.0] * len(grid)
        for k in (1, 2, 3):
            assert composite[("cutoff", k)] == [0.0] * len(grid)
        assert check_moderate(u, K, k_max=3, grid=grid).rows == [
            (f"x{i}", k, estimate_growth_order(composite[(f"x{i}*cutoff", k)], grid))
            for i in range(u.target.dim)
            for k in range(4)
        ]


class TestBankRouteCoordinateRows:
    """The plateau tests measure what route C of check_equivalent does: the
    ``x0*cutoff`` composite difference curves are route C's
    chart-difference curves bit for bit at orders 0-2, and the ``cutoff``
    curves are 0.  So route B stops at order 0, where its ``x0*cutoff``
    row is route C's, and only its bump rows measure what route C does
    not."""

    PAIRS = {
        "e*x vs e^2x^2": lambda: (
            single_chart_map(LINE, LINE, lambda e, x: e * x, label="e*x"),
            single_chart_map(LINE, LINE, lambda e, x: e**2 * x**2, label="e^2x^2"),
        ),
        "x vs x+negl": lambda: (identity_map(), perturbed_identity()),
    }

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_coordinate_rows_are_route_c(self, pair):
        u, v = self.PAIRS[pair]()
        grid = EpsGrid.default()
        pts = _check_points(K1)
        witness = _witness_union(
            check_cbounded(u, K1, grid).witness, check_cbounded(v, K1, grid).witness
        )
        bank = default_test_bank(LINE, witness)
        rows = {
            (label, k): curve
            for label, k, curve in _bank_difference_curves(
                u, v, bank, "main", grid, pts
            )
        }
        plateau_tests = bank_tests(LINE, witness)[:2]
        for k in (1, 2):
            rows.update({
                (label, k): curve
                for label, _, curve in TestBankImage._compose_rows(
                    u, v, plateau_tests, k, grid, pts
                )
            })
        for k in range(3):
            chart = sup_curve(
                grid, k, pts,
                lambda eps: (u.handle(eps, "main")[1], v.handle(eps, "main")[1]),
            )
            assert rows[("x0*cutoff", k)] == chart, k
            assert rows[("cutoff", k)] == [0.0] * len(grid), k


def _ripple_limit():
    return single_chart_map(
        PLANE, PLANE,
        lambda e, x: np.stack([x[..., 0], 0.5 * x[..., 1]], axis=-1), label="limit",
    )


class TestKAssociationCoordinateRows:
    """check_k_associated's rows above order 0 measure the chart
    coordinates: at orders 1..k it has one row ``x{i}`` per target chart
    coordinate i, the sup curve of the difference of the two nets' i-th
    coordinate jets, bit for bit, on the route's own sample points, and
    no ``cutoff`` row."""

    PAIRS = {
        "e*x vs e^2x^2": (lambda: (
            single_chart_map(LINE, LINE, lambda e, x: e * x, label="e*x"),
            single_chart_map(LINE, LINE, lambda e, x: e**2 * x**2, label="e^2x^2"),
        ), K1),
        "sin x + e vs itself": (lambda: (
            single_chart_map(LINE, LINE, lambda e, x: np.sin(x) + e, label="w"),
        ) * 2, K1),
        "x vs x + e^2 sin(x/e)": (lambda: (identity_map(), _e2_ripple()), K1),
        "spike vs shift": (lambda: (
            single_chart_map(
                LINE, LINE, lambda e, x: np.sin(x) + e * np.exp(-((x / e) ** 2)),
                label="spike", feature_scale=lambda e: [(-e, e)],
            ),
            single_chart_map(
                LINE, LINE, lambda e, x: np.sin(x) + e * np.cos(x), label="shift"
            ),
        ), K1),
        "ripple vs limit": (
            lambda: (TestPinnedSlopes.ripple(), _ripple_limit()), TestPinnedSlopes.K2
        ),
    }

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_derivative_rows_are_coordinate_differences(self, pair, monkeypatch):
        make, K = self.PAIRS[pair]
        u, v = make()
        curves, sample = [], []
        tends = association._tends_to_zero
        monkeypatch.setattr(
            association, "_tends_to_zero",
            lambda stack, *a: curves.extend(stack) or tends(stack, *a),
        )
        bank_route = manifold_maps._bank_difference_curves
        monkeypatch.setattr(
            manifold_maps, "_bank_difference_curves",
            lambda *a: sample.append(a[-1]) or bank_route(*a),
        )
        rep = check_k_associated(u, v, 2, K)
        assert len(curves) == len(rep.rows)
        rows = {(label, k): c for (label, k, _, _), c in zip(rep.rows, curves)}
        (stack,) = sample
        grid = association.association_grid()
        pts = dict(zip(grid.values, stack)).__getitem__
        assert [key for key in rows if key[1] >= 1] == [
            (f"x{i}", k) for i in range(u.target.dim) for k in (1, 2)
        ]
        for i in range(u.target.dim):
            for k in (1, 2):
                want = sup_curve(grid, k, pts, lambda eps: (
                    _coordinate(u.handle(eps, K.chart_id)[1], i),
                    _coordinate(v.handle(eps, K.chart_id)[1], i),
                ))
                assert rows[(f"x{i}", k)] == want, (i, k)


class TestWitnessCharts:
    def test_witnesses_in_different_target_charts_are_rejected(self):
        # chart b = chart a + 10: u's witness lies in chart a, v's in b, and
        # no single box of either chart holds both
        tgt = two_chart_line()
        box = LINE.chart("main").box
        u = ManifoldNet(LINE, tgt, "main", "a", net_from_function(
            lambda e, x: 0.5 * np.sin(x), 1, 1, box=box), "u")
        v = ManifoldNet(LINE, tgt, "main", "b", net_from_function(
            lambda e, x: 0.5 * np.sin(x) + 10.0, 1, 1, box=box), "v")
        with pytest.raises(AtlasMismatch, match="'a' and 'b'"):
            check_equivalent(u, v, K1)
        with pytest.raises(AtlasMismatch, match="'a' and 'b'"):
            check_k_associated(u, v, 0, K1)


class TestEquivalence:
    def test_negative_derivative_order_is_rejected(self):
        with pytest.raises(
            ConfigError, match="derivative_order must be >= 0, got -1"
        ):
            check_equivalent(identity_map(), identity_map(), K1, derivative_order=-1)

    def test_negligible_perturbation_is_equivalent(self):
        report = check_equivalent(identity_map(), perturbed_identity(), K1)
        assert report.equivalent
        assert report.route_distance and report.route_bank and report.route_chart

    def test_different_rates_are_not_equivalent(self):
        ex = single_chart_map(LINE, LINE, lambda e, x: e * x, label="e*x")
        e2x2 = single_chart_map(
            LINE, LINE, lambda e, x: e**2 * x**2, label="e^2x^2"
        )
        report = check_equivalent(ex, e2x2, K1)
        assert not report.equivalent
        assert not (report.route_distance or report.route_bank or report.route_chart)

    def test_polynomial_gap_is_not_equivalent(self):
        # eps*x decays, but not below every power
        u = identity_map()
        v = single_chart_map(LINE, LINE, lambda e, x: x + e * x, label="x+e*x")
        report = check_equivalent(u, v, K1)
        assert not report.equivalent

    def test_shifted_step_is_not_equivalent_to_step(self):
        H = single_chart_map(LINE, LINE, smooth_step, label="H_e")
        H_shift = single_chart_map(
            LINE, LINE, lambda e, x: smooth_step(e, x - e), label="H_e(x-e)"
        )
        report = check_equivalent(H, H_shift, K1)
        assert not report.equivalent

    def test_targets_of_equal_dimension_are_not_one_atlas(self):
        u = single_chart_map(LINE, euclidean_atlas(1), lambda e, x: x, label="x")
        v = single_chart_map(LINE, euclidean_atlas(1), lambda e, x: x, label="x")
        with pytest.raises(AtlasMismatch, match="different target atlases"):
            check_equivalent(u, v, K1)

    def test_equal_nets_are_equivalent_with_derivatives(self):
        report = check_equivalent(
            identity_map(), perturbed_identity(), K1, derivative_order=1
        )
        assert report.equivalent

    def test_order_zero_verdict_matches_higher_order(self):
        pairs = [
            (identity_map(), perturbed_identity()),
            (
                single_chart_map(LINE, LINE, lambda e, x: e * x, label="e*x"),
                single_chart_map(
                    LINE, LINE, lambda e, x: e**2 * x**2, label="e^2x^2"
                ),
            ),
        ]
        for u, v in pairs:
            r0 = check_equivalent(u, v, K1, derivative_order=0)
            r2 = check_equivalent(u, v, K1, derivative_order=2)
            assert r0.equivalent == r2.equivalent

    def test_blowup_raises(self):
        blow = single_chart_map(
            LINE, LINE, lambda e, x: np.full_like(x, 1.0 / e), label="1/e"
        )
        with pytest.raises(NotCBounded):
            check_equivalent(identity_map(), blow, K1)

    def test_cbounded_net_whose_sup_curve_rises_is_equivalent_to_itself(self):
        # x*exp(-2^20 eps) is 0 in float at the coarse end of the grid and
        # x at the fine end: its order-0 sup curve rises from 0 to 1, yet it
        # is c-bounded, which is all that order 0 asks of it
        u = single_chart_map(
            LINE, LINE, lambda e, x: x * np.exp(-(2.0**20) * e), label="x*exp(-2^20e)"
        )
        assert check_equivalent(u, u, K1).equivalent

    def test_target_atlases_are_checked_before_the_nets_are_evaluated(self):
        nan = single_chart_map(
            LINE, euclidean_atlas(1), lambda e, x: np.full_like(x, np.nan), label="nan"
        )
        with pytest.raises(AtlasMismatch, match="different target atlases"):
            check_equivalent(identity_map(), nan, K1)

    @settings(max_examples=4, deadline=None)
    @given(scale=st.floats(min_value=0.1, max_value=50.0))
    def test_verdict_ignores_perturbation_scale(self, scale):
        report = check_equivalent(identity_map(), perturbed_identity(scale), K1)
        assert report.equivalent

    def test_symmetry(self):
        u = identity_map()
        v = perturbed_identity()
        assert (
            check_equivalent(u, v, K1).equivalent
            == check_equivalent(v, u, K1).equivalent
        )


class TestGeneralizedPoints:
    def test_constant_point_round_trip(self):
        p = constant_gpoint(K1, [0.3])
        cid, x = p.at(0.05)
        assert cid == "main"
        assert np.allclose(x, [0.3])
        assert p.check_support()

    def test_point_leaving_support_raises(self):
        runaway = GeneralizedManifoldPoint(
            lambda e: np.array([2.0]), K1, label="outside"
        )
        with pytest.raises(OutsideDomain):
            runaway.check_support()

    def test_random_points_are_reproducible(self):
        a = random_gpoints(K1, 5, seed=11)
        b = random_gpoints(K1, 5, seed=11)
        for p, q in zip(a, b):
            assert np.allclose(p.at(0.1)[1], q.at(0.1)[1])

    def test_drifting_point_equals_limit_only_if_negligible(self):
        base = constant_gpoint(K1, [0.0])
        poly = GeneralizedManifoldPoint(lambda e: np.array([e]), K1)
        fast = GeneralizedManifoldPoint(lambda e: np.array([np.exp(-1.0 / e)]), K1)
        assert not gpoints_equivalent(LINE, base, poly)
        assert gpoints_equivalent(LINE, base, fast)


class TestPointValues:
    def test_square_at_moving_point(self):
        sq = single_chart_map(LINE, LINE, lambda e, x: x**2, label="x^2")
        p = GeneralizedManifoldPoint(lambda e: np.array([1.0 + e]), K1)
        pv = point_value(sq, p)
        for eps in (0.5, 0.125):
            cid, val = pv.at(eps)
            assert np.allclose(val, (1.0 + eps) ** 2)

    def test_shift_at_origin_is_not_the_origin(self):
        shift = single_chart_map(LINE, LINE, lambda e, x: x + e, label="x+e")
        pv = point_value(shift, constant_gpoint(K1, [0.0]))
        assert not gpoints_equivalent(LINE, pv, constant_gpoint(K1, [0.0]))

    def test_point_values_separate_inequivalent_nets(self):
        ex = single_chart_map(LINE, LINE, lambda e, x: e * x, label="e*x")
        e2x2 = single_chart_map(
            LINE, LINE, lambda e, x: e**2 * x**2, label="e^2x^2"
        )
        ok, info = check_pointvalue_equality(
            ex, e2x2, [constant_gpoint(K1, [0.5])], K=K1
        )
        assert not ok
        assert info["failed_points"]

    def test_point_values_agree_for_equivalent_nets(self):
        pts = random_gpoints(K1, 8, seed=5)
        ok, info = check_pointvalue_equality(
            identity_map(), perturbed_identity(), pts, K=K1
        )
        assert ok
        assert not info["failed_points"]

    def test_each_net_is_sampled_on_k_once_per_eps(self):
        # for c-boundedness; the adversarial point finds the same stack in
        # the grid handle, and every further point insertion reuses the
        # memoized c-boundedness report
        k_pts = _check_points(K1)
        counts = {"u": Counter(), "v": Counter()}

        def counting(name, fn):
            def counted(e, x):
                if np.array_equal(x, k_pts):
                    counts[name][e] += 1
                return fn(e, x)

            return counted

        u = single_chart_map(LINE, LINE, counting("u", lambda e, x: x**2))
        v = single_chart_map(
            LINE, LINE, counting("v", lambda e, x: x**2 + np.exp(-1.0 / e))
        )
        ok, info = check_pointvalue_equality(
            u, v, random_gpoints(K1, 5, seed=0), K=K1
        )
        assert ok and info["tested"] == 6
        once = {eps: 1 for eps in EpsGrid.default()}
        assert counts == {"u": once, "v": once}

    def test_equal_nets_in_two_target_charts_have_equal_point_values(self):
        # the same map written into charts a and b = a + 10: the transition
        # back to a leaves ulp-sized gaps of the chart-b magnitude
        tgt = two_chart_line()
        box = LINE.chart("main").box

        def into_b(extra):
            return ManifoldNet(LINE, tgt, "main", "b", net_from_function(
                lambda e, x: 0.5 * np.sin(x) + 10.0 + extra(e), 1, 1, box=box))

        u = ManifoldNet(LINE, tgt, "main", "a", net_from_function(
            lambda e, x: 0.5 * np.sin(x), 1, 1, box=box))
        pts = random_gpoints(K1, 5, seed=0)
        ok, info = check_pointvalue_equality(u, into_b(lambda e: 0.0), pts, K=K1)
        assert ok, info
        ok, info = check_pointvalue_equality(
            u, into_b(lambda e: np.exp(-1.0 / e)), pts, K=K1
        )
        assert ok, info
        ok, info = check_pointvalue_equality(u, into_b(lambda e: e), pts, K=K1)
        assert not ok
        assert len(info["failed_points"]) == info["tested"] == 6

    def test_adversarial_point_finds_the_gap(self):
        u = identity_map()
        v = single_chart_map(LINE, LINE, lambda e, x: x + e, label="x+e")
        grid = EpsGrid.default()
        adv = adversarial_gpoint(u, v, K1, grid)
        pu = point_value(u, adv)
        pv = point_value(v, adv)
        assert not gpoints_equivalent(LINE, pu, pv)

    def test_adversarial_point_compares_in_one_target_chart(self):
        # chart b = chart a + 10; in chart a, v differs from u only by a
        # bump supported on [0.5, 0.9]
        tgt = two_chart_line()
        g = make_bump(np.array([0.7]), 0.05, 0.2)
        box = LINE.chart("main").box
        u = ManifoldNet(LINE, tgt, "main", "a", net_from_function(
            lambda e, x: 0.5 * np.sin(x), 1, 1, box=box))
        v = ManifoldNet(LINE, tgt, "main", "b", net_from_function(
            lambda e, x: 0.5 * np.sin(x) - g(x) + 10.0, 1, 1, box=box))
        grid = EpsGrid.default()
        adv = adversarial_gpoint(u, v, K1, grid)
        for eps in grid:
            _, x = adv.at(eps)
            assert 0.5 <= x[0] <= 0.9

    def test_targets_of_equal_dimension_are_not_one_atlas(self):
        # the same map into two atlases of equal dimension: u's charts
        # cannot measure v's values
        u = single_chart_map(LINE, euclidean_atlas(1, 10.0), lambda e, x: np.sin(x))
        v = single_chart_map(LINE, euclidean_atlas(1, 5.0), lambda e, x: np.sin(x))
        with pytest.raises(AtlasMismatch, match="different target atlases"):
            check_pointvalue_equality(u, v, random_gpoints(K1, 4, seed=0), K=K1)


def _raised(fn):
    """The type name of the library error ``fn()`` raises, or None."""
    try:
        fn()
    except ColombeauError as exc:
        return type(exc).__name__
    return None


class TestStackedPointValues:
    """A point-value verdict stacks all its points into one evaluation per
    net; each point must come out as it does alone and as the per-eps
    oracle loop has it."""

    def bumped(self):
        """u = x and v = x + eps * bump on [0.5, 0.9]: the point values
        differ exactly where a point sits in the bump."""
        g = make_bump(np.array([0.7]), 0.05, 0.2)
        return identity_map(), single_chart_map(
            LINE, LINE, lambda e, x: x + e * g(x), label="x+e*bump")

    def test_each_point_in_a_batch_is_its_verdict_alone(self):
        u, v = self.bumped()
        grid = EpsGrid.default()
        points = [constant_gpoint(K1, [c], label=f"at {c}")
                  for c in (0.0, 0.7, 0.3, 0.72, -0.9)]
        points.insert(2, GeneralizedManifoldPoint(
            lambda e: np.array([0.6 + e]), K1, label="moving"))
        points += random_gpoints(K1, 3, seed=2)
        ok, info = check_pointvalue_equality(u, v, points, K=K1, grid=grid)
        alone = [check_pointvalue_equality(u, v, [p], grid=grid) for p in points]
        want = [p.label for p, (same, _) in zip(points, alone) if not same]
        assert info["failed_points"][:-1] == want == ["at 0.7", "moving", "at 0.72"]
        assert info["failed_points"][-1] == "adversarial" and not ok
        curves = manifold_maps._pointvalue_curves(u, v, points, grid)
        oracle = oracles.pointvalue_curves(u, v, points, grid)
        for p, curve, want_curve in zip(points, curves, oracle):
            (single,) = manifold_maps._pointvalue_curves(u, v, [p], grid)
            assert np.array(curve).tobytes() == np.array(single).tobytes()
            assert np.array(curve).tobytes() == np.array(want_curve).tobytes()

    def test_mixed_failures_raise_as_the_per_point_loop(self):
        # u is written from chart a of a two-chart line and escapes past 1.5
        src = two_chart_line()
        box = src.chart("a").box
        u = ManifoldNet(src, LINE, "a", "main", net_from_function(
            lambda e, x: x + np.maximum(x - 1.5, 0.0) / e, 1, 1, box=box), "u")
        v = ManifoldNet(src, LINE, "a", "main", net_from_function(
            lambda e, x: x + e**2, 1, 1, box=box), "v")
        K_a = CompactSet("a", [(-1.0, 1.0)])
        kinds = {
            None: constant_gpoint(K_a, [0.3], label="inside"),
            "OutsideDomain": GeneralizedManifoldPoint(
                lambda e: np.array([0.5 if e > 2.0**-10 else 5.0]), K_a, "leaves"),
            "AtlasMismatch": GeneralizedManifoldPoint(
                lambda e: ("b", np.array([10.5])), K_a, "chart b"),
            "NotCBounded": constant_gpoint(
                CompactSet("a", [(1.6, 2.4)]), [2.0], label="escaping"),
        }
        grid = EpsGrid.default()
        for order in permutations(kinds):
            points = [kinds[k] for k in order]
            got = _raised(lambda: check_pointvalue_equality(u, v, points, grid=grid))
            want = _raised(lambda: oracles.pointvalue_curves(u, v, points, grid))
            assert got == want == next(k for k in order if k is not None), order

    def test_each_leaf_sees_two_point_stacks_per_verdict(self):
        # K's check points (c-boundedness and the adversarial point) and
        # all the sample points, the adversarial one included, at once
        k_pts = _check_points(K1)
        calls = {"u": [], "v": []}

        def recording(name, fn):
            def recorded(e, x):
                calls[name].append((e, x.copy()))
                return fn(e, x)

            return recorded

        u = single_chart_map(LINE, LINE, recording("u", lambda e, x: x**2))
        v = single_chart_map(LINE, LINE, recording("v", lambda e, x: x**2 + e))
        points = random_gpoints(K1, 5, seed=0)
        ok, info = check_pointvalue_equality(u, v, points, K=K1)
        assert not ok and info["tested"] == 6
        grid = EpsGrid.default()
        n = len(grid)
        for name, seen in calls.items():
            # one stack after the other, each a row per eps
            assert [e for e, _ in seen] == 2 * list(grid), name
            for eps, (_, x_k), (_, x_p) in zip(grid, seen[:n], seen[n:]):
                assert np.array_equal(x_k, k_pts)
                want = [p.at(eps)[1] for p in points]
                assert x_p.shape == (6, 1) and np.array_equal(x_p[:5], want)


class TestPointDistanceRows:
    def test_stacked_rows_equal_the_scalar_calls_bitwise(self):
        # chart b = a + 10; rows at and just above the 4-ulp floor, rows
        # across the chart change, and rows with nan or inf coordinates
        atlas = two_chart_line()
        ulp = np.finfo(float).eps
        rows = []
        for k in range(9):
            rows += [("a", [1.0], "a", [1.0 + k * ulp]),
                     ("a", [1.0], "a", [1.0 - (k + 1) * ulp / 2]),
                     ("a", [0.1], "b", [10.1 + 16 * (k - 4) * ulp]),
                     ("b", [10.1 + 16 * (k - 4) * ulp], "a", [0.1])]
        for bad in (np.nan, np.inf, -np.inf):
            rows += [("a", [bad], "a", [1.0]), ("a", [1.0], "b", [bad]),
                     ("b", [bad], "a", [bad]), ("b", [0.0], "b", [bad])]
        cp, xp, cq, xq = (np.array(part, dtype=object if i % 2 == 0 else float)
                          for i, part in enumerate(zip(*rows)))
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.array([oracles.point_distance(atlas, *r) for r in rows])
            scalar = [point_distance(atlas, *r) for r in rows]
            got = point_distance(atlas, cp, xp, cq, xq)
            square = point_distance(atlas, cp.reshape(-1, 4), xp.reshape(-1, 4, 1),
                                    cq.reshape(-1, 4), xq.reshape(-1, 4, 1))
        assert all(type(d) is float for d in scalar)
        assert np.array(scalar).tobytes() == got.tobytes() == want.tobytes()
        assert square.tobytes() == want.tobytes()
        # the floor is crossed within each kind of row
        for kind in range(4):
            assert 0.0 in want[kind:36:4] and np.any(want[kind:36:4] > 0.0)
        # 1 - 4 eps_mach is exactly at the floor of scale 1, 1 - 4.5 eps_mach above
        assert want[1 + 4 * 7] == 0.0 and want[1 + 4 * 8] > 0.0
        assert np.isnan(want[36:]).any() and np.isinf(want[36:]).any()

class TestIdentityMap:
    def test_line_matches_the_inline_jet_bitwise(self):
        def jet(e, x, a):
            if a[0] == 0:
                return x
            return np.ones_like(x) if a[0] == 1 else np.zeros_like(x)

        old = single_chart_map(LINE, LINE, lambda e, x: x, jet=jet, label="id")
        new = chart_identity(LINE)
        pts = np.linspace(-1.0, 1.0, 7)[:, None]
        for eps in (0.5, 2.0**-8):
            for k in range(3):
                a = old.handle(eps, "main")[1].jet(pts, (k,))
                b = new.handle(eps, "main")[1].jet(pts, (k,))
                assert np.array_equal(a, b)

    def test_plane_jets_are_exact(self):
        _, h = chart_identity(PLANE).handle(0.1, "main")
        pts = np.array([[0.3, -0.2], [1.5, 2.0]])
        assert np.array_equal(h(pts), pts)
        assert np.array_equal(h.jet(pts, (0, 1)), np.tile([0.0, 1.0], (2, 1)))
        assert np.array_equal(h.jet(pts, (1, 1)), np.zeros((2, 2)))


class TestComposition:
    def test_eval_chains_left_to_right(self):
        double = single_chart_map(LINE, LINE, lambda e, x: 2.0 * x, label="2x")
        sq = single_chart_map(LINE, LINE, lambda e, x: x**2, label="x^2")
        comp = compose(double, sq)
        _, y = comp.eval(0.1, np.array([[0.5]]), "main")
        assert np.allclose(y, [[1.0]])

    def test_mismatched_middle_atlas_raises(self):
        to_plane = single_chart_map(
            LINE, PLANE, lambda e, x: np.concatenate([x, x], axis=-1), label="diag"
        )
        on_line = identity_map()
        with pytest.raises(AtlasMismatch):
            compose(to_plane, on_line)

    def test_composition_respects_equivalence(self):
        # composing with a fixed smooth net preserves ~
        sq = single_chart_map(LINE, LINE, lambda e, x: x**2 / 2.0, label="x^2/2")
        left = compose(identity_map(), sq)
        right = compose(perturbed_identity(), sq)
        report = check_equivalent(left, right, K1)
        assert report.equivalent

    def test_point_value_commutes_with_composition(self):
        half = single_chart_map(LINE, LINE, lambda e, x: 0.5 * x, label="x/2")
        sq = single_chart_map(LINE, LINE, lambda e, x: x**2, label="x^2")
        comp = compose(half, sq)
        p = constant_gpoint(K1, [0.8])
        direct = point_value(comp, p)
        staged = point_value(sq, point_value(half, p))
        assert gpoints_equivalent(LINE, direct, staged)


class TestOneChartPair:
    def test_compact_set_in_another_source_chart_is_rejected(self):
        # the net is written from chart a; K lies in chart b of the same atlas
        src = two_chart_line()
        u = ManifoldNet(src, LINE, "a", "main", net_from_function(
            lambda e, x: 0.1 * x, 1, 1, box=src.chart("a").box), "u")
        K_b = CompactSet("b", [(9.0, 11.0)])
        with pytest.raises(AtlasMismatch, match="source chart 'a', not 'b'"):
            check_cbounded(u, K_b)
        with pytest.raises(AtlasMismatch, match="source chart 'a', not 'b'"):
            check_equivalent(u, u, K_b)
        assert u.eval(0.1, np.array([[1.0]]), "a")[1][0, 0] == pytest.approx(0.1)

    def test_middle_charts_must_match(self):
        # u lands in chart a, v is written from chart b of the same atlas
        mid = two_chart_line()
        box = LINE.chart("main").box
        u = ManifoldNet(LINE, mid, "main", "a", net_from_function(
            lambda e, x: 0.1 * x, 1, 1, box=box), "u")
        v = ManifoldNet(mid, LINE, "b", "main", net_from_function(
            lambda e, x: x - 10.0, 1, 1, box=mid.chart("b").box), "v")
        with pytest.raises(AtlasMismatch, match="middle charts 'a' and 'b'"):
            compose(u, v)

    def test_middle_atlas_must_be_one_object(self):
        # two euclidean lines of equal dimension and charts are two atlases
        line_a, line_b = euclidean_atlas(1, 10.0), euclidean_atlas(1, 10.0)
        u = single_chart_map(line_a, line_a, lambda e, x: 0.5 * x, label="u")
        v = single_chart_map(line_b, line_b, lambda e, x: 0.5 * x, label="v")
        with pytest.raises(AtlasMismatch, match="middle atlases"):
            compose(u, v)
        bridge = single_chart_map(line_a, line_b, lambda e, x: x, label="bridge")
        assert compose(u, bridge).target is line_b
