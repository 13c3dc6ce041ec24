import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colombeau import association, geometry
from colombeau.association import sharp_mollifier
from colombeau.asymptotics import EpsGrid, estimate_growth_order
from colombeau.errors import (
    AtlasMismatch,
    BallEscapesChart,
    CoverGap,
    InconsistentRoutes,
    NoMetric,
    OutsideDomain,
)
from colombeau.geometry import (
    _profile_denominator,
    _profile_value,
    _psi,
    Atlas,
    Chart,
    CompactSet,
    VBAtlas,
    affine_transition,
    chord_distance,
    constant_metric,
    default_test_bank,
    euclidean_atlas,
    make_box_bump,
    make_bump,
    partition_of_unity,
    trivial_bundle,
)
from colombeau.nets import identity_handle
from colombeau.ppwave import default_profile, kink_limit_study
import oracles
from oracles import (
    bank_tests,
    locate,
    polar_inverse_transition,
    polar_transition,
    riemannian_distance,
)

PLANE = euclidean_atlas(2)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAtlasInvariants:
    def test_inverse_pair_required(self):
        t = identity_handle(1)
        with pytest.raises(AtlasMismatch):
            Atlas(
                [Chart("a", [(-1, 1)]), Chart("b", [(-1, 1)])],
                transitions={("a", "b"): t},
            )

    def test_non_inverse_pair_rejected(self):
        shift = affine_transition([[1.0]], [1.0])
        with pytest.raises(AtlasMismatch):
            Atlas(
                [Chart("a", [(-3, 1)]), Chart("b", [(-1, 3)])],
                transitions={("a", "b"): shift, ("b", "a"): shift},
            )

    def test_valid_shift_pair(self):
        fwd = affine_transition([[1.0]], [1.0])
        back = affine_transition([[1.0]], [-1.0])
        atlas = Atlas(
            [Chart("a", [(-3, 1)]), Chart("b", [(-2, 2)])],
            transitions={("a", "b"): fwd, ("b", "a"): back},
        )
        assert atlas.to_chart(np.array([0.5]), "a", "b") == pytest.approx(1.5)

    def test_polar_pair_accepted(self):
        atlas = Atlas(
            [Chart("disk", [(0.1, 2.0), (0.2, 1.2)]), Chart("plane", [(-3, 3), (-3, 3)])],
            transitions={
                ("disk", "plane"): polar_transition(),
                ("plane", "disk"): polar_inverse_transition(),
            },
        )
        y = atlas.to_chart(np.array([1.0, 0.5]), "disk", "plane")
        assert y == pytest.approx([math.cos(0.5), math.sin(0.5)])

    def test_indefinite_metric_rejected(self):
        with pytest.raises(AtlasMismatch):
            Atlas(
                [Chart("main", [(-1, 1), (-1, 1)])],
                metric={"main": constant_metric([[1, 2], [2, 1]])},
            )

    def test_asymmetric_metric_rejected(self):
        with pytest.raises(AtlasMismatch):
            Atlas(
                [Chart("main", [(-1, 1), (-1, 1)])],
                metric={"main": constant_metric([[1, 0.5], [0, 1]])},
            )

    def test_locate_prefers_explicit_chart(self):
        cid, x = locate(PLANE, ("main", [0.3, 0.4]))
        assert cid == "main"
        with pytest.raises(OutsideDomain):
            locate(PLANE, ("main", [99.0, 0.0]))

    def test_dimension_consistency(self):
        with pytest.raises(AtlasMismatch):
            Atlas([Chart("a", [(-1, 1)]), Chart("b", [(-1, 1), (-1, 1)])])


class TestVBAtlas:
    def _three_chart_base(self):
        box = [(-1, 1)]
        ids = ("a", "b", "c")
        t = {}
        for i in ids:
            for j in ids:
                if i != j:
                    t[(i, j)] = identity_handle(1)
        return Atlas([Chart(i, box) for i in ids], transitions=t)

    def test_cocycle_holds(self):
        base = self._three_chart_base()
        ft = {
            ("a", "b"): lambda x: np.broadcast_to(2.0 * np.eye(1), x.shape[:-1] + (1, 1)).copy(),
            ("b", "a"): lambda x: np.broadcast_to(0.5 * np.eye(1), x.shape[:-1] + (1, 1)).copy(),
            ("b", "c"): lambda x: np.broadcast_to(3.0 * np.eye(1), x.shape[:-1] + (1, 1)).copy(),
            ("c", "b"): lambda x: np.broadcast_to(np.eye(1) / 3.0, x.shape[:-1] + (1, 1)).copy(),
            ("a", "c"): lambda x: np.broadcast_to(6.0 * np.eye(1), x.shape[:-1] + (1, 1)).copy(),
            ("c", "a"): lambda x: np.broadcast_to(np.eye(1) / 6.0, x.shape[:-1] + (1, 1)).copy(),
        }
        vb = VBAtlas(base, 1, fiber_transitions=ft)
        assert vb.fiber_transition("a", "b", np.zeros((1,)))[0, 0] == 2.0

    def test_cocycle_violation_rejected(self):
        base = self._three_chart_base()
        ft = {
            ("a", "b"): lambda x: np.broadcast_to(2.0 * np.eye(1), x.shape[:-1] + (1, 1)).copy(),
            ("b", "a"): lambda x: np.broadcast_to(0.5 * np.eye(1), x.shape[:-1] + (1, 1)).copy(),
            ("b", "c"): lambda x: np.broadcast_to(3.0 * np.eye(1), x.shape[:-1] + (1, 1)).copy(),
            ("c", "b"): lambda x: np.broadcast_to(np.eye(1) / 3.0, x.shape[:-1] + (1, 1)).copy(),
            ("a", "c"): lambda x: np.broadcast_to(5.0 * np.eye(1), x.shape[:-1] + (1, 1)).copy(),
            ("c", "a"): lambda x: np.broadcast_to(np.eye(1) / 5.0, x.shape[:-1] + (1, 1)).copy(),
        }
        with pytest.raises(AtlasMismatch):
            VBAtlas(base, 1, fiber_transitions=ft)

    def test_identity_fiber_transition(self):
        vb = trivial_bundle(PLANE, 3)
        m = vb.fiber_transition("main", "main", np.zeros(2))
        assert np.array_equal(m, np.eye(3))


class TestRiemannianDistance:
    def test_euclidean_three_four_five(self):
        assert riemannian_distance(PLANE, [0, 0], [3, 4]) == pytest.approx(5.0, abs=1e-6)

    def test_coincident_points(self):
        assert riemannian_distance(PLANE, [1.2, -0.3], [1.2, -0.3]) == 0.0

    def test_nearly_coincident_points_stop_at_the_first_refinement(self, monkeypatch):
        # the optimizer leaves about 1e-12 for points 1e-300 apart; the
        # stop rule's absolute floor ends the doubling after one refinement
        # instead of at 64 segments
        calls = []
        optimize = oracles._optimize_polyline

        def counted(atlas, chart_id, vertices, box):
            calls.append(len(vertices) - 1)
            return optimize(atlas, chart_id, vertices, box)

        monkeypatch.setattr(oracles, "_optimize_polyline", counted)
        assert riemannian_distance(PLANE, [0.0, 0.0], [1e-300, 0.0]) < 1e-11
        assert calls == [4, 8]

    def test_constant_diag_metric(self):
        atlas = Atlas(
            [Chart("main", [(-5, 5), (-5, 5)])],
            metric={"main": constant_metric([[4, 0], [0, 1]])},
        )
        assert riemannian_distance(atlas, [0, 0], [1, 0]) == pytest.approx(2.0, abs=1e-3)

    def test_no_metric_raises(self):
        bare = Atlas([Chart("main", [(-1, 1)])])
        with pytest.raises(NoMetric):
            riemannian_distance(bare, [0.0], [0.5])

    def test_outside_atlas_raises(self):
        with pytest.raises(OutsideDomain):
            riemannian_distance(PLANE, [0, 0], [100, 0])

    @given(
        st.lists(st.floats(-2, 2), min_size=6, max_size=6),
    )
    @settings(max_examples=10, deadline=None)
    def test_symmetry_and_triangle(self, coords):
        p = np.array(coords[0:2])
        q = np.array(coords[2:4])
        r = np.array(coords[4:6])
        atlas = Atlas(
            [Chart("main", [(-5, 5), (-5, 5)])],
            metric={"main": constant_metric([[2, 0.3], [0.3, 1]])},
        )
        dpq = riemannian_distance(atlas, p, q)
        dqp = riemannian_distance(atlas, q, p)
        dpr = riemannian_distance(atlas, p, r)
        drq = riemannian_distance(atlas, r, q)
        assert dpq == pytest.approx(dqp, rel=2e-3, abs=1e-9)
        assert dpq <= dpr + drq + 2e-3 * (dpr + drq) + 1e-9

    def test_cross_chart_distance(self):
        fwd = identity_handle(1)
        atlas = Atlas(
            [Chart("a", [(-3, 1)]), Chart("b", [(-1, 3)])],
            transitions={("a", "b"): fwd, ("b", "a"): identity_handle(1)},
            metric={"a": constant_metric([[1.0]]), "b": constant_metric([[1.0]])},
        )
        d = riemannian_distance(atlas, ("a", [-2.0]), ("b", [2.0]))
        assert d == pytest.approx(4.0, rel=1e-6)

    def test_rate_verdicts_agree_across_metrics(self):
        # "for some (hence every) metric": decay rates of distances between
        # point nets do not depend on the metric chosen
        grid = EpsGrid.default()
        m1 = Atlas(
            [Chart("main", [(-5, 5), (-5, 5)])],
            metric={"main": constant_metric([[1, 0], [0, 1]])},
        )
        m2 = Atlas(
            [Chart("main", [(-5, 5), (-5, 5)])],
            metric={"main": constant_metric([[4, 1], [1, 2]])},
        )
        for rate in (lambda e: e, lambda e: math.exp(-1 / e)):
            def p(e, _r=rate):
                return np.array([_r(e), 0.0])
            q = np.zeros(2)
            d1 = [chord_distance(m1, "main", p(e), q) for e in grid]
            d2 = [chord_distance(m2, "main", p(e), q) for e in grid]
            v1 = estimate_growth_order(d1, grid)
            v2 = estimate_growth_order(d2, grid)
            assert v1.classification == v2.classification
            assert v1.order == v2.order


def _varying_metric(x):
    x1, x2 = x[..., 0], x[..., 1]
    g = np.empty(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 2 + 0.2 * np.sin(x1 * x2)
    g[..., 0, 1] = g[..., 1, 0] = 0.3 * np.cos(x2)
    g[..., 1, 1] = 1 + x1**2
    return g


class TestChordDistance:
    METRICS = {
        "constant": constant_metric([[2, 0.3], [0.3, 1]]),
        "expression": _varying_metric,
    }

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_batched_equals_per_point_bitwise(self, metric):
        atlas = Atlas(
            [Chart("main", [(-5, 5), (-5, 5)])],
            metric={"main": self.METRICS[metric]},
        )
        rng = np.random.default_rng(3)
        xp = rng.uniform(-2, 2, size=(3, 19, 2))
        xq = rng.uniform(-2, 2, size=(3, 19, 2))
        xq[0, :4] = xp[0, :4]  # coincident pairs
        batched = chord_distance(atlas, "main", xp, xq)
        assert batched.shape == (3, 19)
        single = [
            [chord_distance(atlas, "main", a, b) for a, b in zip(rp, rq)]
            for rp, rq in zip(xp, xq)
        ]
        assert all(isinstance(d, float) for row in single for d in row)
        assert _same_bits(batched, single)
        assert _same_bits(chord_distance(atlas, "main", xp[1], xq[1]), single[1])
        # the fixed summation order moves the quadratic form by at most an
        # ulp or two against einsum's
        v = xq - xp
        g = atlas.metric_at("main", 0.5 * (xp + xq))
        ref = np.sqrt(np.einsum("...i,...ij,...j->...", v, g, v))
        np.testing.assert_allclose(batched, ref, rtol=4 * np.finfo(float).eps)

    @given(
        st.lists(st.floats(-2, 2), min_size=4, max_size=4),
        st.sampled_from([[[1, 0], [0, 1]], [[4, 0], [0, 1]], [[2, 0.3], [0.3, 1]]]),
    )
    @settings(max_examples=10, deadline=None)
    def test_agrees_with_riemannian_distance_on_constant_metrics(
        self, coords, matrix
    ):
        # riemannian_distance stays as the oracle: on a constant metric the
        # straight chord is the geodesic, so both must give its length to
        # the oracle's rel_tol.  The oracle's L-BFGS moves interior vertices
        # by finite-difference gradient steps and so reads about 7e-13 even
        # for points 1e-30 apart; 1e-11 absolute covers that floor.
        atlas = Atlas(
            [Chart("main", [(-5, 5), (-5, 5)])],
            metric={"main": constant_metric(matrix)},
        )
        p, q = np.array(coords[:2]), np.array(coords[2:])
        chord = chord_distance(atlas, "main", p[None], q[None])[0]
        oracle = riemannian_distance(atlas, p, q)
        assert abs(chord - oracle) <= 1e-3 * oracle + 1e-11


class TestProfileValue:
    def test_dead_hairline_band_reads_the_limiting_step(self):
        # band width 2e-3 in q: W underflows in the middle of the band, and
        # there the value is the limiting step, 1 before the band's middle
        # and 0 after it
        r0, r1 = 1.0, math.sqrt(1.002)
        q = np.linspace(0.999, 1.003, 801)
        dead, _ = _profile_denominator(_psi(r1**2 - q), _psi(q - r0**2))
        assert np.any(dead) and not np.all(dead)
        got = _profile_value(q, r0**2, r1**2)
        before = q < 0.5 * (r0**2 + r1**2)
        assert np.any(dead & before) and np.any(dead & ~before)
        assert np.all(got[dead & before] == 1.0) and np.all(got[dead & ~before] == 0.0)
        assert np.all(np.isfinite(got)) and np.all((got >= 0.0) & (got <= 1.0))


class TestBumps:
    def test_center_value_one(self):
        b = make_bump([0.0, 0.0], 0.5, 1.0)
        assert b(np.zeros(2)) == pytest.approx([1.0])

    def test_outside_value_zero(self):
        b = make_bump([0.0, 0.0], 0.5, 1.0)
        assert b(np.array([1.5, 0.0])) == pytest.approx([0.0], abs=0.0)

    def test_radial_symmetry(self):
        b = make_bump([0.3, -0.2], 0.4, 0.9)
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.normal(size=2)
            plus = b(np.array([0.3, -0.2]) + v * 0.1)
            minus = b(np.array([0.3, -0.2]) - v * 0.1)
            assert plus == pytest.approx(minus, abs=1e-13)

    def test_range_and_monotone_band(self):
        b = make_bump([0.0], 0.5, 1.0)
        xs = np.linspace(-1.2, 1.2, 241)[:, None]
        vals = b(xs)[:, 0]
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        inner = np.abs(xs[:, 0]) <= 0.5
        outer = np.abs(xs[:, 0]) >= 1.0
        assert np.all(vals[inner] == 1.0)
        assert np.all(vals[outer] == 0.0)

    def test_bad_radii(self):
        with pytest.raises(BallEscapesChart):
            make_bump([0.0], 1.0, 0.5)

    def test_ball_escapes_box(self):
        with pytest.raises(BallEscapesChart):
            make_bump([0.9], 0.5, 1.0, box=[(-1, 1)])

    def test_box_bump_support(self):
        b = make_box_bump([(-0.5, 0.5), (-0.5, 0.5)], [(-1, 1), (-1, 1)])
        assert b(np.zeros(2)) == pytest.approx([1.0])
        assert b(np.array([1.1, 0.0]))[0] == 0.0
        assert b(np.array([0.0, 0.45])) == pytest.approx([1.0])
        assert 0.0 < b(np.array([0.9, 0.9]))[0] < 0.01


def _band_points(inner, outer, extra):
    """Points on every axis's band edges (inner and outer faces, one ulp to
    each side), the box centre, outside the support, and ``extra``: the
    product of the per-axis values, with the ``extra`` rows appended."""
    inner, outer = np.asarray(inner, float), np.asarray(outer, float)
    axes = []
    for (a, b), (lo, hi) in zip(inner, outer):
        edges = [a, b, lo, hi]
        axes.append(np.array(
            edges + [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
            + [0.5 * (a + b), lo - 0.3, hi + 0.3]
        ))
    if len(axes) == 3:
        # keep the 3-D product small: every edge on axis 0, fewer beyond
        axes = [axes[0], axes[1][::3], axes[2][::3]]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    return np.concatenate([grid, extra])


def _two_chart_line():
    """Charts a and b = a + 1 of the line, glued by affine transitions."""
    return Atlas(
        [Chart("a", [(-3.0, 3.0)]), Chart("b", [(-2.0, 4.0)])],
        transitions={
            ("a", "b"): affine_transition([[1.0]], [1.0]),
            ("b", "a"): affine_transition([[1.0]], [-1.0]),
        },
    )


def _two_chart_plane():
    """Charts a and b of the plane, b stretching a's first axis by 2."""
    return Atlas(
        [Chart("a", [(-3.0, 3.0), (-3.0, 3.0)]),
         Chart("b", [(-4.0, 8.0), (-2.0, 4.0)])],
        transitions={
            ("a", "b"): affine_transition([[2.0, 0.0], [0.0, 1.0]], [1.0, 0.5]),
            ("b", "a"): affine_transition([[0.5, 0.0], [0.0, 1.0]], [-0.5, -0.5]),
        },
    )


class TestBumpsAgainstTheHandleAlgebra:
    """The box bump and the partition-of-unity members, bit for bit, against
    their construction from composed, summed, multiplied and inverted
    handles in ``oracles``."""

    BOXES = {
        1: ([(-0.5, 0.4)], [(-1.0, 1.0)]),
        2: ([(-0.5, 0.5), (0.1, 0.3)], [(-1.0, 1.0), (-0.2, 0.9)]),
        3: ([(-0.5, 0.4), (0.0, 1.0), (2.0, 2.5)],
            [(-1.0, 1.0), (-0.5, 1.2), (1.9, 3.0)]),
    }

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_box_bump(self, dim):
        inner, outer = self.BOXES[dim]
        rng = np.random.default_rng(dim)
        lo, hi = np.asarray(outer).T
        x = _band_points(inner, outer, rng.uniform(lo - 0.2, hi + 0.2, (300, dim)))
        got = make_box_bump(inner, outer)
        want = oracles.box_bump_reference(inner, outer)
        assert _same_bits(got(x), want(x))
        assert _same_bits(got.eval_fn(x), want.eval_fn(x))
        assert np.all(got(x)[np.any((x < lo) | (x > hi), axis=-1)] == 0.0)

    @pytest.mark.parametrize("atlas, cores", [
        (euclidean_atlas(1, 5.0), [CompactSet("main", [(-2.0, 2.0)])]),
        (euclidean_atlas(2, 5.0), [CompactSet("main", [(-2.0, 1.0), (0.0, 0.5)])]),
        (euclidean_atlas(1, 5.0),
         [CompactSet("main", [(-2.0, 0.5)]), CompactSet("main", [(-0.5, 2.0)])]),
        (euclidean_atlas(3, 5.0),
         [CompactSet("main", [(-2.0, 0.5)] * 3), CompactSet("main", [(-0.5, 2.0)] * 3)]),
        (_two_chart_line(),
         [CompactSet("a", [(-2.0, 0.5)]), CompactSet("b", [(1.0, 3.0)])]),
        (_two_chart_plane(),
         [CompactSet("a", [(-2.0, 0.5), (-1.0, 1.0)]),
          CompactSet("b", [(0.0, 4.0), (0.0, 2.0)])]),
    ], ids=["one-core-1d", "one-core-2d", "two-cores-1d", "two-cores-3d",
            "two-charts-1d", "two-charts-2d"])
    def test_partition_members(self, atlas, cores):
        members = partition_of_unity(atlas, cores)
        want = oracles.partition_reference(atlas, cores)
        assert [m.chart_id for m in members] == [cid for cid, _ in want]
        rng = np.random.default_rng(len(cores))
        for m, core, (_, ref) in zip(members, cores, want):
            box = atlas.chart(m.chart_id).box
            x = _band_points(
                core.box, m.support_box,
                rng.uniform(box[:, 0], box[:, 1], (300, atlas.dim)),
            )
            x = x[np.all((x >= box[:, 0]) & (x <= box[:, 1]), axis=-1)]
            # where every bump is 0 the reference reads 0 * (1/0) = nan and
            # the member 0
            with np.errstate(divide="ignore", invalid="ignore"):
                want = ref(x)
            gap = np.isnan(want)
            assert _same_bits(m.handle(x)[~gap], want[~gap])
            assert _same_bits(m.handle.eval_fn(x)[~gap], want[~gap])
            assert np.all(m.handle(x)[gap] == 0.0)


class TestPartitionOfUnity:
    def test_single_core_is_one(self):
        atlas = euclidean_atlas(1, 5.0)
        members = partition_of_unity(atlas, [CompactSet("main", [(-2, 2)])])
        assert len(members) == 1
        xs = np.linspace(-2, 2, 21)[:, None]
        assert np.allclose(members[0].handle(xs), 1.0)

    def test_two_overlapping_intervals(self):
        atlas = euclidean_atlas(1, 5.0)
        cores = [CompactSet("main", [(-2.0, 0.5)]), CompactSet("main", [(-0.5, 2.0)])]
        members = partition_of_unity(atlas, cores)
        xs = np.linspace(-2, 2, 41)[:, None]
        total = sum(m.handle(xs) for m in members)
        assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_lonely_point_gets_full_weight(self):
        atlas = euclidean_atlas(1, 5.0)
        cores = [CompactSet("main", [(-2.0, -1.0)]), CompactSet("main", [(1.0, 2.0)])]
        members = partition_of_unity(atlas, cores)
        assert members[0].handle(np.array([-1.5]))[0] == pytest.approx(1.0)
        assert members[1].handle(np.array([-1.5]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_cover_gap_detected(self):
        # cores are far apart; a sampled point of one core is never the
        # problem, so force the gap by shrinking the margin to zero width
        atlas = euclidean_atlas(1, 50.0)
        cores = [CompactSet("main", [(-30.0, -29.0)]), CompactSet("main", [(29.0, 30.0)])]
        members = partition_of_unity(atlas, cores)
        # disjoint cores are each fully covered by their own bump
        assert members[0].handle(np.array([-29.5]))[0] == pytest.approx(1.0)

    def test_members_are_zero_where_every_bump_vanishes(self):
        atlas = euclidean_atlas(1, 50.0)
        cores = [CompactSet("main", [(-30.0, -29.0)]), CompactSet("main", [(29.0, 30.0)])]
        members = partition_of_unity(atlas, cores)
        with np.errstate(all="raise"):
            values = [m.handle(np.array([[0.0]]))[0, 0] for m in members]
        assert [v.hex() for v in values] == [(0.0).hex()] * 2


class TestBankEval:
    """TestBank.eval stacks the values of every scalar test, bit for bit
    what each test's own handle gives."""

    @staticmethod
    def _eval_counting_dead_steps(atlas, region, y, monkeypatch):
        bank = default_test_bank(atlas, region)
        calls = []
        step = geometry._dead_step
        monkeypatch.setattr(
            geometry, "_dead_step", lambda *a: calls.append(a) or step(*a)
        )
        got = bank.eval(y)
        monkeypatch.setattr(geometry, "_dead_step", step)
        tests = bank_tests(atlas, region)
        assert bank.labels == [label for label, _ in tests]
        want = np.stack([h.eval_fn(y)[..., 0] for _, h in tests])
        assert got.shape == want.shape == (len(bank), len(y))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        return len(calls)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_are_the_tests_bit_for_bit(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        atlas = euclidean_atlas(dim, 10.0)
        dead = {}
        for width in np.geomspace(1e-3, 4.0, 10):
            lo = rng.uniform(-5.0, 5.0 - width, dim)
            region = CompactSet("main", np.stack([lo, lo + width], axis=-1))
            bank = default_test_bank(atlas, region)
            # every bump's band middle, where a hairline band's W underflows
            band = bank.centers.copy()
            band[:, 0] += 0.75 * np.sqrt(bank.r1_sq[:, 0])
            y = np.concatenate([
                rng.uniform(lo - 0.3 * width, lo + 1.3 * width, (200, dim)),
                band,
                np.full((1, dim), 9.5),  # outside every support
            ])
            dead[width] = self._eval_counting_dead_steps(atlas, region, y, monkeypatch)
        assert dead[1e-3] > 0 and dead[4.0] == 0

    def test_the_kink_datums_near_step_bump(self, monkeypatch):
        # the bank of the kink study's 0-association check on the datum whose
        # routes split: its bump-small-0 steps from 0 to 1 near y = 1.435
        built = []
        build = association.default_test_bank
        monkeypatch.setattr(
            association, "default_test_bank",
            lambda *a: built.append(a) or build(*a),
        )
        with pytest.raises(InconsistentRoutes):
            kink_limit_study(
                default_profile(), sharp_mollifier(),
                (0.0, 1.4125, -0.0568, 0.0, 0.045, 0.0022), EpsGrid.dyadic(6, 12),
            )
        (args,) = built
        y = np.concatenate([
            np.linspace(1.2, 2.3, 1101), np.linspace(1.434, 1.436, 201)
        ])
        self._eval_counting_dead_steps(*args, y[:, None], monkeypatch)
        bank = build(*args)
        row = bank.eval(np.array([[1.4345], [1.4355]]))[
            bank.labels.index("bump-small-0")
        ]
        assert row[0] < 1e-3 and row[1] > 1.0 - 1e-3


class TestDefaultBank:
    def test_bank_size_and_support(self):
        region = CompactSet("main", [(-1, 1), (-1, 1)])
        bank = default_test_bank(PLANE, region)
        assert len(bank) == 16
        rng = np.random.default_rng(3)
        for row, (_, h) in enumerate(bank_tests(PLANE, region)):
            lo, hi = h.support_box[:, 0], h.support_box[:, 1]
            for _ in range(10):
                # points outside the support box (inflate away from it)
                direction = rng.normal(size=2)
                direction /= np.linalg.norm(direction)
                far = 0.5 * (lo + hi) + direction * (hi - lo) * 2.0
                if np.all(far >= PLANE.chart("main").box[:, 0]) and np.all(
                    far <= PLANE.chart("main").box[:, 1]
                ):
                    assert abs(bank.eval(far[None, :])[row, 0]) == 0.0

    def test_cutoff_is_one_on_region(self):
        region = CompactSet("main", [(-1, 1), (-1, 1)])
        bank = default_test_bank(PLANE, region)
        pts = region.sample_points()
        assert np.allclose(bank.eval(pts)[bank.labels.index("cutoff")], 1.0)

    def test_builds_no_per_test_handle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("make_bump was called")

        monkeypatch.setattr(geometry, "make_bump", refuse)
        region = CompactSet("main", [(-1, 1), (-1, 1)])
        bank = default_test_bank(PLANE, region)
        assert bank.labels == [label for label, _ in bank_tests(PLANE, region)]

    def test_a_ball_outside_the_chart_is_rejected(self, monkeypatch):
        # the bump centers sit inside the region by construction; moved to
        # the chart's face, every bump ball sticks out of the chart
        box = PLANE.chart("main").box
        monkeypatch.setattr(
            geometry, "_lattice", lambda b, count: np.tile(box[:, 1], (count, 1))
        )
        with pytest.raises(BallEscapesChart):
            default_test_bank(PLANE, CompactSet("main", [(-1, 1), (-1, 1)]))
