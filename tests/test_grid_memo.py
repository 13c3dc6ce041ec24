"""Grid handles compute each point stack once, and each fiber combinator has
one stacked body.

``Net.at_grid`` remembers the values and jets of the last few plain
``(n_eps, N, d)`` stacks a grid handle saw, by content.  Verdicts must not
depend on what the memo holds: the same check on fresh nets and on nets
warmed by other verdicts gives the same curves and reports bit for bit.
The fiber combinators of ``bundle_maps`` evaluate on the whole stack; their
slice at eps is the one-row case of the same body, and no checker calls it.
Each checker hands the classifier all the sup curves of one verdict on one
grid as one stack, in one call.  A pair's distance curve and bank rows are
measured once per grid and point stack, in the pair memo
``manifold_maps._pair_curves``, whatever verdict asks for them.  A repeated
``compose`` or ``align_representative`` returns one net, through the same
partner memo on its first operand.
"""

import gc
import sys
import weakref
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from colombeau import asymptotics, bundle_maps, manifold_maps, nets
from colombeau.association import association_grid, check_k_associated
from colombeau.asymptotics import EpsGrid
from colombeau.bundle_maps import (
    FiberNet,
    align_representative,
    check_hybrid_equivalent,
    check_vb_equivalent,
    check_vb_moderate,
    compose_homs,
    compose_hybrid,
    hom_u_add,
    hom_u_scale,
    matrix_net,
    section_net,
    single_chart_hom,
    tangent_map,
)
from colombeau.geometry import CompactSet, euclidean_atlas, trivial_bundle
from colombeau.manifold_maps import (
    ManifoldNet,
    _check_points,
    _stack_points,
    check_cbounded,
    check_equivalent,
    check_moderate,
    check_pointvalue_equality,
    compose,
    random_gpoints,
    single_chart_map,
)
from colombeau.nets import fd_step, net_from_function
from test_bundle_maps import two_chart_bundle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

LINE = euclidean_atlas(1, 10.0)
TX = trivial_bundle(LINE, 1)
K1 = CompactSet("main", [(-1.0, 1.0)])
GRID = EpsGrid.default()

CLASSIFIERS = (
    (manifold_maps, "estimate_growth_order"),
    (manifold_maps, "negligible_to_resolution"),
    (bundle_maps, "estimate_growth_order"),
    (bundle_maps, "negligible_to_resolution"),
)


def hom(fn, base=None, label=""):
    base = base or single_chart_map(LINE, LINE, lambda e, x: np.sin(x), label="sin")
    return single_chart_hom(TX, TX, base, lambda e, x: fn(e, x)[..., None], label=label)


def hom_pair():
    """Two composed homs over sin(x) that differ by a negligible tail."""
    a = hom(lambda e, x: 1.0 + x**2, label="a")
    b = hom(lambda e, x: 2.0 + e * np.sin(x / e), label="b")
    c = hom(lambda e, x: 1.0 + x**2 + np.exp(-1.0 / e), label="c")
    return compose_homs(b, a), compose_homs(b, c)


def map_pair():
    u = single_chart_map(LINE, LINE, lambda e, x: np.sin(x) + e * np.cos(x / e), label="u")
    v = single_chart_map(LINE, LINE, lambda e, x: np.sin(x) + np.exp(-1.0 / e), label="v")
    return u, v


def recorded(monkeypatch, run):
    """(result repr, every curve that reached a classifier, as bytes, each
    row of a stacked call in row order)."""
    curves = []
    for mod, name in CLASSIFIERS:
        fn = getattr(mod, name)

        def wrapped(curve, *a, _fn=fn, **kw):
            curves.extend(row.tobytes() for row in np.atleast_2d(np.asarray(curve, dtype=float)))
            return _fn(curve, *a, **kw)

        monkeypatch.setattr(mod, name, wrapped)
    try:
        return repr(run()), curves
    finally:
        monkeypatch.undo()


class TestCacheState:
    def verdicts(self, homs, maps):
        (f, g), (u, v) = homs, maps
        return (
            check_vb_equivalent(f, g, K1, derivative_order=2),
            check_equivalent(u, v, K1, derivative_order=1),
        )

    def test_fresh_and_warmed_nets_give_the_same_bits(self, monkeypatch):
        homs, maps = hom_pair(), map_pair()
        fresh = recorded(monkeypatch, lambda: self.verdicts(homs, maps))
        homs, maps = hom_pair(), map_pair()
        # other verdicts on the same nets fill their grid handles with the
        # stacks of other compact sets and the jets of other orders, and
        # push some stacks out of the memo
        other = CompactSet("main", [(-0.5, 0.7)])
        for K in (other, K1):
            check_vb_moderate(homs[0], K, k_max=3)
            check_moderate(maps[0], K, k_max=3)
        check_hybrid_equivalent(homs[1], homs[0], other)
        check_pointvalue_equality(*maps, random_gpoints(K1, 2), K=K1)
        warmed = recorded(monkeypatch, lambda: self.verdicts(homs, maps))
        assert len(fresh[1]) > 10
        assert warmed == fresh

    def test_memo_values_are_read_only(self):
        f, _ = hom_pair()
        h = f.fiber.at_grid(GRID)
        x = _stack_points(GRID, _check_points(K1))
        steps = np.array([fd_step(e) for e in GRID]).reshape(-1, 1, 1)
        for out in (h(x), h.jet(x, (1,), steps)):
            with pytest.raises(ValueError):
                out[...] = 0.0
        # a copy of the stack is the same stack: the memo keys on content
        assert h(x.copy()) is h(x)
        assert h.jet(x.copy(), (1,), steps.copy()) is h.jet(x, (1,), steps)
        assert np.all(np.isfinite(h(x)))

    def test_check_points_are_built_once_and_read_only(self):
        pts = _check_points(K1)
        assert _check_points(CompactSet("other", [(-1.0, 1.0)])) is pts
        assert _check_points(K1, seed=1) is not pts
        with pytest.raises(ValueError):
            pts[0, 0] = 5.0


class TestOneClassifierCallPerVerdict:
    @pytest.fixture
    def calls(self, monkeypatch):
        """(stack shape, grid length) per classifier call, wherever it is
        reached from: a checker module or ``negligible_to_resolution``."""
        calls = []
        fit = asymptotics.estimate_growth_order

        def tap(samples, grid, *a, **kw):
            calls.append((np.shape(samples), len(grid)))
            return fit(samples, grid, *a, **kw)

        for mod in (asymptotics, manifold_maps, bundle_maps):
            monkeypatch.setattr(mod, "estimate_growth_order", tap)
        return calls

    def test_check_moderate(self, calls):
        # the one chart coordinate at orders 0..3
        check_moderate(map_pair()[0], K1, k_max=3)
        assert calls == [((4, len(GRID)), len(GRID))]

    def test_check_equivalent(self, calls):
        # the distance curve, one row per bank test, chart orders 0..2
        report = check_equivalent(*map_pair(), K1, derivative_order=2)
        assert calls == [((4 + report.diagnostics["bank_size"], len(GRID)), len(GRID))]

    def test_check_pointvalue_equality(self, calls):
        u, v = map_pair()
        ok, info = check_pointvalue_equality(u, v, random_gpoints(K1, 5), K=K1)
        assert info["tested"] == 6
        assert calls == [((6, len(GRID)), len(GRID))]

    def test_fiber_moderate_and_fiber_routes(self, calls):
        f, g = hom_pair()
        assert calls == [((6,), 6)] * 2  # compose_homs's guards, one curve each
        calls.clear()
        for w in (f, g):
            check_vb_moderate(w, K1)
        # per net: the base coordinate at orders 0..2, then the fiber's
        assert calls == [((3, len(GRID)), len(GRID))] * 4
        calls.clear()
        report = check_vb_equivalent(f, g, K1, derivative_order=2)
        base_rows = 2 + report.base_report.diagnostics["bank_size"]
        # the base equivalence, then chart orders 0..2 and the test-hom curve
        assert calls == [((base_rows, len(GRID)), len(GRID)), ((4, len(GRID)), len(GRID))]

    def test_check_hybrid_pointvalues(self, calls):
        s = section_net(TX, lambda e, x: e * np.sin(x / e), label="s")
        t = section_net(TX, lambda e, x: e * np.sin(x / e) + np.exp(-1.0 / e), label="t")
        ok, info = bundle_maps.check_hybrid_pointvalues(s, t, random_gpoints(K1, 4), L=K1)
        assert ok and info["tested"] == 5
        # base and fiber curve per point
        assert calls == [((10, len(GRID)), len(GRID))]


def transport_inputs():
    """A hom into a two-chart bundle over a base drifting by eps, the
    representative it is aligned to, and a cover through both vb-charts."""
    base, vb = two_chart_bundle()
    box = LINE.chart("main").box

    def into_a(fn, label):
        return ManifoldNet(LINE, base, "main", "A", net_from_function(fn, 1, 1, box=box), label)

    fib = matrix_net(lambda e, x: 2.0 + x[..., :1, None], 1, (1, 1), box=box, label="M")
    v = FiberNet(trivial_bundle(LINE, 1), vb, into_a(lambda e, x: x + e, "drift"), "A", fib)
    cores = [CompactSet("A", [(-1.4, 1.4)]), CompactSet("B", [(-1.9, 0.9)])]
    return v, into_a(lambda e, x: x, "id"), cores


def transported():
    """An alignment through two vb-charts whose threshold splits the grid:
    the coarse rows pass through, the fine ones are transported."""
    v, u_rep, cores = transport_inputs()
    return align_representative(v, u_rep, K1, radius=0.01, cores=cores)


def combinators():
    """One fiber net from each combinator, by name."""
    u_rep = single_chart_map(LINE, LINE, lambda e, x: np.sin(x), label="sin")
    drift = single_chart_map(LINE, LINE, lambda e, x: np.sin(x) + np.exp(-1.0 / e))
    v1 = hom(lambda e, x: 1.0 + e * np.cos(x / e), base=drift, label="v1")
    v2 = hom(lambda e, x: 2.0 + x, base=u_rep, label="v2")
    half = single_chart_map(LINE, LINE, lambda e, x: 0.5 * x + e * x**2, label="half")
    s = section_net(TX, lambda e, x: np.cos(x) + e * np.sin(x / e), label="s")
    return {
        "compose_homs": compose_homs(v1, hom(lambda e, x: 3.0 + e * x, label="w")),
        "compose_hybrid": compose_hybrid(half, s),
        "hom_u_add": hom_u_add(v1, v2, u_rep, K1),
        "hom_u_scale": hom_u_scale(-2.5, v1, u_rep, K1),
        "align_representative": align_representative(v1, u_rep, K1),
        "transported": transported(),
        "tangent_map": tangent_map(half),
    }


class TestSingleBody:
    @pytest.mark.parametrize("name", sorted(combinators()))
    def test_slices_are_the_rows_of_the_stack(self, name):
        net = combinators()[name].fiber
        x = _stack_points(GRID, _check_points(K1))
        steps = np.array([fd_step(e) for e in GRID]).reshape(-1, 1, 1)
        h = net.at_grid(GRID)
        for alpha in ((0,), (1,), (2,)):
            rows = h.jet(x, alpha, steps)
            for i, eps in enumerate(GRID):
                one = net.at(eps).jet(x[i], alpha, fd_step(eps))
                assert one.tobytes() == rows[i].tobytes(), (alpha, eps)

    def test_trivial_alignment_is_the_old_fiber(self):
        u_rep = single_chart_map(LINE, LINE, lambda e, x: np.sin(x), label="sin")
        v = hom(lambda e, x: 1.0 + x**2, base=u_rep, label="v")
        a = align_representative(v, u_rep, K1)
        assert a.fiber.at_grid(GRID) is v.fiber.at_grid(GRID)
        assert a.fiber.at(0.25) is v.fiber.at(0.25)

    def test_transport_splits_the_grid(self):
        a = transported()
        cut = sum(e > a.alignment.eps_threshold for e in GRID)
        assert 0 < cut < len(GRID)

    def test_checkers_take_no_slice_and_no_jet_twice(self, monkeypatch):
        nets_with_bodies = []
        at = nets.Net.at

        def spy_at(self, eps):
            if self.grid_fn is not None:
                nets_with_bodies.append(self.label)
            return at(self, eps)

        jets = []
        fd = nets.finite_difference_jet

        def spy_fd(eval_fn, x, alpha, step):
            jets.append((
                id(eval_fn), x.shape, x.tobytes(), tuple(alpha),
                np.shape(step), np.asarray(step, dtype=float).tobytes(),
            ))
            return fd(eval_fn, x, alpha, step)

        monkeypatch.setattr(nets.Net, "at", spy_at)
        monkeypatch.setattr(nets, "finite_difference_jet", spy_fd)
        built = combinators()
        nets_with_bodies.clear()
        # every combinator but the trivial alignment has a stacked body
        assert [n for n, f in built.items() if f.fiber.grid_fn is None] == [
            "align_representative"
        ]
        for name, f in sorted(built.items()):
            jets.clear()
            check = check_hybrid_equivalent if name == "compose_hybrid" else check_vb_equivalent
            assert check(f, f, K1, derivative_order=2), name
            assert jets, name
            repeated = [k for k, n in Counter(jets).items() if n > 1]
            assert not repeated, (name, len(repeated))
        assert nets_with_bodies == []

    def test_combinator_nets_are_freed_without_the_cycle_collector(self):
        # nets are rebuilt per benchmark pass; a reference cycle would hold
        # every memoized stack of the last pass until the collector runs
        gc.disable()
        try:
            built = combinators()
            for name, f in built.items():
                check = check_hybrid_equivalent if name == "compose_hybrid" else check_vb_equivalent
                assert check(f, f, K1, derivative_order=2), name
            refs = {name: weakref.ref(f.fiber) for name, f in built.items()}
            # the base nets of the self-pairs, whose pair memo holds itself
            refs.update({f"{name}.base": weakref.ref(f.base_net) for name, f in built.items()})
            del built, f
            assert [name for name, r in refs.items() if r() is not None] == []
        finally:
            gc.enable()


def vanishing_pair():
    """e*x against e^2*x^2: associated, not equivalent."""
    return (single_chart_map(LINE, LINE, lambda e, x: e * x, label="ex"),
            single_chart_map(LINE, LINE, lambda e, x: e**2 * x**2, label="e2x2"))


def aligned_pair():
    """A hom over a base that drifts by exp(-1/eps) from ``sin``, and ``sin``."""
    u_rep = single_chart_map(LINE, LINE, lambda e, x: np.sin(x), label="sin")
    drift = single_chart_map(LINE, LINE, lambda e, x: np.sin(x) + np.exp(-1.0 / e))
    return hom(lambda e, x: 1.0 + e * np.cos(x / e), base=drift, label="v"), u_rep


def aligned_bits(a):
    x = _stack_points(GRID, _check_points(K1))
    return repr(a.alignment), a.fiber.at_grid(GRID)(x).tobytes()


class TestPairMemo:
    """check_equivalent, check_k_associated and align_representative read a
    pair's derivative-free curves through one memo on its first net."""

    def test_cold_and_warm_verdicts_agree_bit_for_bit(self):
        grid = association_grid()

        def verdicts(u, v):
            return repr(check_k_associated(u, v, 0, K1, grid=grid)), repr(
                check_equivalent(u, v, K1, grid=grid))

        cold = (repr(check_k_associated(*vanishing_pair(), 0, K1, grid=grid)),
                repr(check_equivalent(*vanishing_pair(), K1, grid=grid)))
        assert cold[0].startswith("KAssociationReport(associated=True")
        assert cold[1].startswith("EquivalenceReport(equivalent=False")
        assert verdicts(*vanishing_pair()) == cold
        u, v = vanishing_pair()
        check_equivalent(u, v, K1, grid=grid)
        assert verdicts(u, v) == cold
        # the alignment threshold reads the memo's distance curve
        cold = aligned_bits(align_representative(*aligned_pair(), K1))
        v, u_rep = aligned_pair()
        check_equivalent(u_rep, v.base_net, K1)
        assert aligned_bits(align_representative(v, u_rep, K1)) == cold

    def test_one_bank_and_one_distance_per_pair_grid_and_stack(self, monkeypatch):
        counts = Counter()
        for name in ("default_test_bank", "chord_distance"):
            fn = getattr(manifold_maps, name)
            monkeypatch.setattr(manifold_maps, name, lambda *a, _fn=fn, _name=name: (
                counts.update([_name]) or _fn(*a)))
        u, v = vanishing_pair()
        grid = association_grid()
        for _ in range(2):
            check_equivalent(u, v, K1, grid=grid, derivative_order=1)
            check_k_associated(u, v, 0, K1, grid=grid)
            check_k_associated(u, v, 1, K1, grid=grid)
        assert counts == {"default_test_bank": 1, "chord_distance": 1}
        check_equivalent(u, v, K1)  # another grid
        assert counts == {"default_test_bank": 2, "chord_distance": 2}
        counts.clear()
        v, u_rep = aligned_pair()
        check_equivalent(u_rep, v.base_net, K1)
        align_representative(v, u_rep, K1)
        align_representative(v, u_rep, K1)
        assert counts == {"default_test_bank": 1, "chord_distance": 1}
        counts.clear()
        f, g = hom_pair()
        for _ in range(2):
            check_vb_equivalent(f, g, K1)
            check_vb_equivalent(f, f, K1)  # its bases are a self-pair
        assert counts == {"default_test_bank": 2, "chord_distance": 2}

    def test_another_second_net_never_hits(self, monkeypatch):
        u = map_pair()[0]

        def net(fn):
            return single_chart_map(LINE, LINE, fn, label="v")

        def same():
            return net(lambda e, x: np.sin(x) + e * np.cos(x / e) + np.exp(-1.0 / e))

        far = net(lambda e, x: np.sin(x) + e)
        assert check_equivalent(u, same(), K1)  # that net is freed here
        assert not check_equivalent(u, far, K1)
        # every net's id equal: a net that reuses a freed net's id, and one
        # that shares a live net's, must both miss
        monkeypatch.setattr(manifold_maps, "id", lambda obj: 0, raising=False)
        kept = same()
        assert check_equivalent(u, kept, K1)
        del kept
        gc.collect()
        assert not check_equivalent(u, far, K1)
        assert check_equivalent(u, same(), K1)

    def test_a_freed_second_net_leaves_no_entry(self):
        gc.disable()
        try:
            u = map_pair()[0]
            for i in range(20):
                v = single_chart_map(LINE, LINE, lambda e, x, i=i: np.sin(x) + i * e)
                check_equivalent(u, v, K1)
                assert any(key[0] == "pair" for key in u._reports)
            del v
            assert [key for key in u._reports if key[0] == "pair"] == []
        finally:
            gc.enable()

    def test_returned_curves_cannot_be_changed(self):
        u, v = map_pair()
        x = _stack_points(GRID, _check_points(K1))
        region = manifold_maps._pair_witness(u, v, K1, GRID, "test")
        first = repr(check_equivalent(u, v, K1))
        dist = manifold_maps._pair_curves(u, v, "main", GRID, x)
        rows = manifold_maps._pair_curves(u, v, "main", GRID, x, region)
        for seq in (dist, rows, rows[0], rows[0][2]):
            with pytest.raises(TypeError):
                seq[0] = 0.0
        assert repr(check_equivalent(u, v, K1)) == first == repr(
            check_equivalent(*map_pair(), K1))


def sine(shift, label="v"):
    """sin(x) + shift * eps, a net into LINE."""
    return single_chart_map(LINE, LINE, lambda e, x: np.sin(x) + shift * e, label=label)


def at_half(w):
    return w.eval(0.5, np.array([[0.3]]))[1].tobytes()


class TestCombinatorMemo:
    """``compose`` and ``align_representative`` build each result once per
    input: the partner memo on their first operand returns it again."""

    def test_compose_returns_one_net_per_partner_and_label(self):
        u, v = map_pair()
        uv = compose(u, v)
        assert compose(u, v) is uv
        assert compose(u, v, label="other") is not uv
        assert compose(u, v, label="other") is compose(u, v, label="other")
        assert compose(u, v) is uv
        w = sine(1.0)
        assert compose(u, w) is not uv
        assert at_half(compose(u, w)) != at_half(uv)

    def test_a_live_and_a_freed_partner_never_share_a_hit(self, monkeypatch):
        u = map_pair()[0]
        # every net's id equal: a partner that shares a live partner's id,
        # and one that reuses a freed partner's, must both miss
        monkeypatch.setattr(manifold_maps, "id", lambda obj: 0, raising=False)
        kept, live = sine(1.0), sine(2.0)
        first = at_half(compose(u, kept))
        assert at_half(compose(u, live)) != first
        assert at_half(compose(u, kept)) == first
        del kept
        gc.collect()
        fresh = sine(3.0)
        assert at_half(compose(u, fresh)) != first
        assert at_half(compose(u, fresh)) == at_half(compose(u, sine(3.0)))

    def test_a_freed_partner_drops_its_entry(self):
        gc.disable()
        try:
            u = map_pair()[0]
            for i in range(5):
                v = sine(float(i))
                compose(u, v)
                assert any(key[0] == "compose" for key in u._reports)
            del v
            assert [key for key in u._reports if key[0] == "compose"] == []
        finally:
            gc.enable()

    def test_a_warm_alignment_is_the_cold_one(self, monkeypatch):
        cold = aligned_bits(align_representative(*aligned_pair(), K1))
        v, u_rep = aligned_pair()
        a = align_representative(v, u_rep, K1)
        builds = []
        pou = bundle_maps.partition_of_unity
        monkeypatch.setattr(bundle_maps, "partition_of_unity",
                            lambda *args: builds.append(1) or pou(*args))
        assert align_representative(v, u_rep, K1, grid=GRID) is a
        assert builds == []
        assert aligned_bits(a) == cold

    def test_another_input_misses(self):
        v, u_rep = aligned_pair()
        a = align_representative(v, u_rep, K1)
        other_rep = sine(0.0, "sin")
        others = {
            "u_rep": lambda: align_representative(v, other_rep, K1),
            "L": lambda: align_representative(v, u_rep, CompactSet("main", [(-0.9, 0.9)])),
            "L resolution": lambda: align_representative(
                v, u_rep, CompactSet("main", [(-1.0, 1.0)], resolution=5)),
            "grid": lambda: align_representative(v, u_rep, K1, grid=EpsGrid.dyadic(2, 9)),
            "radius": lambda: align_representative(v, u_rep, K1, radius=0.5),
            "cores": lambda: align_representative(
                v, u_rep, K1, cores=[CompactSet("main", [(-1.2, 1.2)])]),
        }
        for name, run in others.items():
            here = align_representative(v, u_rep, K1)
            other = run()
            assert other is not here, name
            assert run() is other, name
        # v keeps its last alignment only
        again = align_representative(v, u_rep, K1)
        assert again is not a
        assert aligned_bits(again) == aligned_bits(a)
        assert len([key for key in v._reports if key == "aligned"]) == 1

    def test_memoized_combinators_are_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            u, v = map_pair()
            uv = compose(u, v)
            assert check_cbounded(uv, K1) and compose(u, v) is uv
            v_h, u_rep = aligned_pair()
            a = align_representative(v_h, u_rep, K1)
            assert check_vb_equivalent(a, v_h, K1)
            w, w_rep, cores = transport_inputs()
            t = align_representative(w, w_rep, K1, radius=0.01, cores=cores)
            assert t.fiber.grid_fn is not None
            t.fiber.at_grid(GRID)(_stack_points(GRID, _check_points(K1)))
            objs = {"u": u, "v": v, "uv": uv, "v_h": v_h, "u_rep": u_rep, "a": a,
                    "w": w, "w_rep": w_rep, "t": t, "t.fiber": t.fiber}
            refs = {name: weakref.ref(obj) for name, obj in objs.items()}
            del u, v, uv, v_h, u_rep, a, w, w_rep, t, objs
            assert [name for name, r in refs.items() if r() is not None] == []
        finally:
            gc.enable()


class TestBundlesTraffic:
    """The traffic of one seed-0 pass of the benchmark's bundles catalog,
    its defect probes left out: each c-boundedness report is computed once
    per distinct net, and a repeated alignment builds no partition of unity."""

    def test_reports_and_partitions_built(self, monkeypatch, tmp_path):
        counts = Counter()
        for mod, name in ((manifold_maps, "_cbounded_report"),
                          (bundle_maps, "partition_of_unity")):
            fn = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, _fn=fn, _name=name: (
                counts.update([_name]) or _fn(*a)))
        w = WORKLOADS["bundles"]
        spec = w.generate(0)
        objs = w.build(spec, tmp_path)
        timed = [v for v in w.verdicts(spec)
                 if not any(fnmatch(v.vid, pat) for pat, _ in w.known_defects)]
        for verdict in timed:
            verdict.run(objs)
        assert len(timed) == 37
        assert counts == {"_cbounded_report": 17, "partition_of_unity": 26}
