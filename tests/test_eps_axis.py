"""Every checker's sup curves equal the per-eps loops of ``tests/oracles.py``
bit for bit.

A run records each curve that reaches a classifier (``estimate_growth_order``,
``negligible_to_resolution``, ``association._tends_to_zero``) and each
c-boundedness report, in call order, while one pass of a verdict catalog
runs: the maps and bundles catalogs of the benchmark at seeds 0 and 1, and
the acceptance criteria.  The same pass runs again with the checkers'
curve builders swapped for the oracle loops, on freshly built nets, and the
two records must agree to the bit.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from colombeau import acceptance, association, bundle_maps, manifold_maps
from colombeau.asymptotics import EpsGrid
from colombeau.bundle_maps import compose_homs, single_chart_hom
from colombeau.errors import ColombeauError
from colombeau.geometry import (
    CompactSet,
    default_test_bank,
    euclidean_atlas,
    sample_box,
    trivial_bundle,
)
from colombeau.cli import load_config
from colombeau.expressions import Expression
from colombeau.manifold_maps import _check_points, check_cbounded, single_chart_map
from colombeau.nets import Net, fd_step

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

CLASSIFIERS = (
    (manifold_maps, "estimate_growth_order"),
    (manifold_maps, "negligible_to_resolution"),
    (bundle_maps, "estimate_growth_order"),
    (bundle_maps, "negligible_to_resolution"),
    (association, "_tends_to_zero"),
)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _record(monkeypatch, run):
    """(kind, bits) per classified curve and per c-boundedness report of
    ``run()``, in call order, each row of a stacked classifier call in row
    order; a raise ends the record with its type."""
    record = []
    for mod, name in CLASSIFIERS:
        fn = getattr(mod, name)

        def wrapped(curve, *a, _fn=fn, _name=name, **kw):
            rows = np.atleast_2d(np.asarray(curve, dtype=float))
            record.extend((_name, _bits(row)) for row in rows)
            return _fn(curve, *a, **kw)

        monkeypatch.setattr(mod, name, wrapped)
    report = manifold_maps._cbounded_report

    def cbounded(u, K, grid):
        rep = report(u, K, grid)
        box = None if rep.witness is None else rep.witness.box.tobytes()
        record.append(("cbounded", (rep.ok, box, repr(rep.diagnostics))))
        return rep

    monkeypatch.setattr(manifold_maps, "_cbounded_report", cbounded)
    try:
        run()
    except ColombeauError as exc:
        record.append(("raised", type(exc).__name__))
    monkeypatch.undo()
    return record


def _install_oracles(monkeypatch):
    """The checkers' curve builders replaced by the per-eps loops.

    The loops take slices, and the checkers hand ``_sup_curve`` grid
    handles: each grid handle a net or a coordinate projection hands out
    is tagged with the function eps -> slice it stands for.  Point values
    and their distances are taken one point and one eps at a time."""
    slice_of = {}
    at_grid, coordinate = Net.at_grid, manifold_maps._coordinate

    def tagged_at_grid(net, grid):
        h = at_grid(net, grid)
        slice_of[id(h)] = (h, net.at)
        return h

    def tagged_coordinate(h, i):
        c = coordinate(h, i)
        slice_of[id(c)] = (c, lambda eps: coordinate(slice_of[id(h)][1](eps), i))
        return c

    def sup_curve(grid, k, pts, handles, step=fd_step, diff=None):
        if not callable(pts) and np.ndim(pts) == 3:
            pts = dict(zip(grid.values, pts)).__getitem__
        return oracles.sup_curve(
            grid, k, pts,
            lambda eps: tuple(slice_of[id(h)][1](eps) for h in handles),
            step, None if diff is None else oracles.sup_diff,
        )

    def test_hom_curve(u, v, witness, pts, src, grid):
        bump = bundle_maps._fiber_cutoff(u.target.base, witness)

        def cutoff(base, eps):
            return bump(base.image_in(eps, pts, witness.chart_id, src))[..., 0]

        return oracles.fiber_test_hom_route_curve(u, v, cutoff, pts, src, grid)

    monkeypatch.setattr(Net, "at_grid", tagged_at_grid)
    monkeypatch.setattr(manifold_maps, "_coordinate", tagged_coordinate)
    for mod in (manifold_maps, bundle_maps):
        monkeypatch.setattr(mod, "_sup_curve", sup_curve)
    monkeypatch.setattr(bundle_maps, "_test_hom_curve", test_hom_curve)
    monkeypatch.setattr(manifold_maps, "_cbounded_report", oracles.cbounded_report)
    # every caller reads these two through the pair memo of manifold_maps
    monkeypatch.setattr(manifold_maps, "_distance_curve", _stacked(oracles.distance_curve))
    monkeypatch.setattr(
        manifold_maps, "_bank_difference_curves", _stacked(oracles.bank_difference_curves)
    )
    for mod, name, loop in (
        (manifold_maps, "point_value", oracles.point_value),
        (manifold_maps, "gpoint_distance_curve", oracles.gpoint_distance_curve),
        (manifold_maps, "_pointvalue_curves", oracles.pointvalue_curves),
        (bundle_maps, "hybrid_point_value", oracles.hybrid_point_value),
        (bundle_maps, "vb_points_equivalent", oracles.vb_points_equivalent),
        (bundle_maps, "_hybrid_pointvalue_curves", oracles.hybrid_pointvalue_curves),
    ):
        monkeypatch.setattr(mod, name, loop)


def _stacked(loop):
    """The loop with a stack of per-eps points, as the checkers now pass
    it, read row by row."""

    def run(*args):
        args = list(args)
        grid = next(a for a in args if isinstance(a, EpsGrid))
        for i, a in enumerate(args):
            if isinstance(a, np.ndarray) and a.ndim == 3:
                args[i] = dict(zip(grid.values, a)).__getitem__
        return loop(*args)

    return run


def _catalog_pass(name, seed, tmp_path):
    """One pass over the workload's catalog, every verdict in its own
    record, the nets built afresh."""
    w = WORKLOADS[name]
    spec = w.generate(seed)

    def run():
        objs = w.build(spec, tmp_path)
        out = []
        for v in w.verdicts(spec):
            try:
                out.append(v.run(objs))
            except ColombeauError as exc:
                out.append(type(exc).__name__)
        return out

    return run


def _compare(monkeypatch, run):
    want = []

    def oracle_run():
        _install_oracles(monkeypatch)
        want.extend(_record(monkeypatch, run))

    got = _record(monkeypatch, run)
    oracle_run()
    assert len(got) == len(want)
    mismatched = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not mismatched, f"{len(mismatched)} of {len(got)} records differ"
    return got


class TestCatalogCurves:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ["maps", "bundles"])
    def test_catalog_curves_equal_the_oracle_loops(self, name, seed, monkeypatch,
                                                   tmp_path):
        got = _compare(monkeypatch, _catalog_pass(name, seed, tmp_path))
        kinds = {kind for kind, _ in got}
        assert {"cbounded", "negligible_to_resolution"} <= kinds
        assert len(got) > 200

    def test_acceptance_curves_equal_the_oracle_loops(self, monkeypatch):
        def run():
            return [fn() for fn in (
                acceptance.criterion_route_agreement,
                acceptance.criterion_vanishing_pair,
                acceptance.criterion_step_powers,
                acceptance.criterion_well_definedness,
                acceptance.criterion_point_separation,
                acceptance.criterion_alignment,
                acceptance.criterion_order_collapse,
                acceptance.criterion_kink,
            )] + [_section_point_values()]

        got = _compare(monkeypatch, run)
        assert {"_tends_to_zero", "estimate_growth_order"} <= {k for k, _ in got}


def _section_point_values():
    """Demo 03's section s = eps sin(x/eps) against s + exp(-1/eps) and
    against the O(eps) perturbation s + eps, at six seeded generalized points
    and the adversarial one."""
    s = bundle_maps.section_net(TX, lambda e, x: e * np.sin(x / e), label="s")
    out = []
    for label, extra in (("s+tail", lambda e: np.exp(-1.0 / e)), ("s+eps", lambda e: e)):
        t = bundle_maps.section_net(
            TX, lambda e, x, f=extra: e * np.sin(x / e) + f(e), label=label)
        same, info = bundle_maps.check_hybrid_pointvalues(
            s, t, manifold_maps.random_gpoints(K1, 6), L=K1)
        out.append((same, len(info["failed_points"])))
    assert out[0] == (True, 0) and not out[1][0]
    return out


LINE = euclidean_atlas(1, 10.0)
TX = trivial_bundle(LINE, 1)
K1 = CompactSet("main", [(-1.0, 1.0)])
GRID = EpsGrid.dyadic(2, 9)


def _same_bits(a, b):
    return _bits(a) == _bits(b)


class TestRowReductions:
    """Edge cases of the row-by-row sups: each equals the per-eps loop bit
    for bit."""

    I_NAN = 3

    def nan_at_one_eps(self, shift=0.0):
        """sin(x) + shift*eps, nan at x > 0.75 for one eps of GRID only."""
        e_nan = GRID.values[self.I_NAN]

        def fn(e, x):
            y = np.sin(x) + shift * e
            return np.where(x > 0.75, np.nan, y) if e == e_nan else y

        return single_chart_map(LINE, LINE, fn, label="nan-once")

    def test_nan_at_one_point_for_one_eps_is_inf_in_that_row_only(self):
        u = self.nan_at_one_eps()
        v = single_chart_map(LINE, LINE, lambda e, x: np.sin(x) + e, label="shift")
        pts = _check_points(K1)
        inf_row = [np.inf if i == self.I_NAN else 0.0 for i in range(len(GRID))]
        for k in range(3):
            handles = (u.net.at_grid(GRID),)
            got = manifold_maps._sup_curve(GRID, k, pts, handles)
            want = oracles.sup_curve(GRID, k, pts, lambda eps: (u.net.at(eps),))
            assert _same_bits(got, want), k
            assert np.isinf(got).tolist() == [i == self.I_NAN for i in range(len(GRID))]
            pair = handles + (v.net.at_grid(GRID),)
            got = manifold_maps._sup_curve(GRID, k, pts, pair)
            want = oracles.sup_curve(
                GRID, k, pts, lambda eps: (u.net.at(eps), v.net.at(eps))
            )
            assert _same_bits(got, want), k
        # the chord distances take the same row sup: the nan row reads inf
        got = manifold_maps._distance_curve(u, v, pts, "main", GRID)
        assert _same_bits(got, oracles.distance_curve(u, v, pts, "main", GRID))
        assert np.isinf(got).tolist() == [i == self.I_NAN for i in range(len(GRID))]
        rep = manifold_maps._cbounded_report(u, K1, GRID)
        want = oracles.cbounded_report(u, K1, GRID)
        assert not rep.ok and rep.diagnostics == want.diagnostics
        assert rep.diagnostics["escape_eps"] == GRID.values[self.I_NAN]
        # a fiber difference: the nan row reads inf, the equal rows 0
        fu = single_chart_hom(TX, TX, u, lambda e, x: u.net.at(e)(x)[..., None])
        fv = single_chart_hom(TX, TX, u, lambda e, x: np.sin(x)[..., None])
        got = manifold_maps._sup_curve(
            GRID, 0, pts, (fu.fiber.at_grid(GRID), fv.fiber.at_grid(GRID)),
            diff=manifold_maps._sup_diff,
        )
        want = oracles.sup_curve(
            GRID, 0, pts, lambda eps: (fu.fiber.at(eps), fv.fiber.at(eps)),
            diff=oracles.sup_diff,
        )
        assert _same_bits(got, want) and _same_bits(got, inf_row)

    def test_feature_windows_that_come_and_go_stack_ragged_rows(self, monkeypatch):
        # u's window sits inside K only for eps <= 2^-9, v's two only for
        # eps >= 2^-6, so the per-eps point sets have three lengths
        def spike(e, x):
            return np.sin(x) + e * np.exp(-(((x - 0.5) / e) ** 2))

        def u_windows(e):
            return [(0.5 - e, 0.5 + e)] if e <= 2.0**-9 else [(3.0, 4.0)]

        def v_windows(e):
            return [(-0.5 - e, -0.5 + e), (0.2, 0.3)] if e >= 2.0**-6 else []

        u = single_chart_map(LINE, LINE, spike, label="spike", feature_scale=u_windows)
        v = single_chart_map(
            LINE, LINE, lambda e, x: np.sin(x) + e * np.cos(x), label="shift",
            feature_scale=v_windows,
        )
        grid = association.association_grid()
        base = _check_points(K1)

        def pts_at(eps):
            chunks = [base]
            for windows in (u_windows(eps), v_windows(eps)):
                for a, b in windows:
                    a, b = max(a, -1.0), min(b, 1.0)
                    if b > a:
                        chunks.append(np.linspace(a, b, 33)[:, None])
            return np.concatenate(chunks)

        assert len({len(pts_at(eps)) for eps in grid}) == 3
        curves = []
        tends = association._tends_to_zero
        monkeypatch.setattr(
            association, "_tends_to_zero",
            lambda curve, *a: curves.append(curve) or tends(curve, *a),
        )
        rep = association.check_k_associated(u, v, 1, K1, grid=grid)
        bank = default_test_bank(LINE, manifold_maps._witness_union(
            check_cbounded(u, K1, grid).witness, check_cbounded(v, K1, grid).witness
        ))
        want = [c for _, _, c in oracles.bank_difference_curves(
            u, v, bank, "main", grid, pts_at
        )] + [oracles.sup_curve(grid, 1, pts_at, lambda eps: (
            manifold_maps._coordinate(u.net.at(eps), 0),
            manifold_maps._coordinate(v.net.at(eps), 0),
        ))]
        assert len(curves) == len(rep.rows) == len(want)
        for got_curve, want_curve in zip(curves, want):
            assert _same_bits(got_curve, want_curve)
        got = manifold_maps._distance_curve(u, v, pts_at, "main", grid)
        assert _same_bits(got, oracles.distance_curve(u, v, pts_at, "main", grid))

    def test_quick_moderate_guard_grid(self, monkeypatch):
        # the composed fiber's order-0 guard on its own dyadic(4, 9) grid
        curves = []
        fit = bundle_maps.estimate_growth_order
        monkeypatch.setattr(
            bundle_maps, "estimate_growth_order",
            lambda curve, grid: curves.append((curve, grid)) or fit(curve, grid),
        )
        base = single_chart_map(LINE, LINE, lambda e, x: x, label="id")
        a = single_chart_hom(TX, TX, base, lambda e, x: (1.0 / e + x)[..., None, None])
        b = single_chart_hom(TX, TX, base, lambda e, x: np.cos(x / e)[..., None, None])
        fiber = compose_homs(a, b).fiber
        ((curve, grid),) = curves
        assert grid == EpsGrid.dyadic(4, 9)
        box = fiber.box
        mid = 0.5 * (box[:, :1] + box[:, 1:])
        pts = sample_box(mid + 0.8 * (box - mid), 4)
        want = oracles.sup_curve(grid, 0, pts, lambda eps: (fiber.at(eps),))
        assert _same_bits(curve, want)

    def test_adversarial_points_take_the_per_eps_argmax(self):
        from colombeau.bundle_maps import _adversarial_hybrid_point, section_net

        u = self.nan_at_one_eps(shift=1.0)
        v = single_chart_map(
            LINE, LINE, lambda e, x: np.sin(x) + e * np.cos(x / e), label="wiggle"
        )
        pts = _check_points(K1)
        p = manifold_maps.adversarial_gpoint(u, v, K1, GRID)
        want = oracles.adversarial_choices(u, v, pts, "main", GRID)
        assert all(_same_bits(p.at(eps)[1], w) for eps, w in zip(GRID, want))
        su = section_net(TX, lambda e, x: np.cos(x / e), label="s")
        sv = section_net(TX, lambda e, x: np.where(x > 0.9, np.inf, e * x), label="t")
        p = _adversarial_hybrid_point(su, sv, K1, GRID)
        want = oracles.adversarial_choices(
            su.base_net, sv.base_net, pts, "main", GRID, (su.fiber, sv.fiber)
        )
        assert all(_same_bits(p.at(eps)[1], w) for eps, w in zip(GRID, want))


class TestExpressionGrid:
    """A config expression net evaluates a whole grid in one call, eps a
    column against the points; its values and finite-difference jets equal
    its slices' bit for bit.  With eps in an exponent, ``np.power``'s rows
    are not bitwise its slices', and the net keeps the per-eps path."""

    GRIDS = (EpsGrid.default(), load_config().grid, EpsGrid.geometric(0.5, 1e-4, 23))

    def assert_rows(self, net):
        for grid in self.GRIDS:
            x = np.tile(np.linspace(-1.0, 1.0, 97)[:, None], (len(grid), 1, 1))
            steps = np.array([fd_step(e) for e in grid]).reshape(-1, 1, 1)
            h = net.at_grid(grid)
            for k in (0, 1, 2):
                want = [net.at(e).jet(x[i], (k,), fd_step(e)) for i, e in enumerate(grid)]
                assert _same_bits(h.jet(x, (k,), steps), want), (net.label, len(grid), k)

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_config_and_catalog_nets_equal_their_slices(self, seed, tmp_path):
        if seed is None:
            cfg = load_config()
        else:
            path = tmp_path / "maps.ini"
            path.write_text(WORKLOADS["maps"].generate(seed)["ini"])
            cfg = load_config(path)
        names = [name for name, spec in cfg.nets.items() if spec.expr]
        assert len(names) >= 5
        for name in names:
            net = cfg.scalar_net(name)
            assert net.grid_fn is not None, name
            with np.errstate(all="ignore"):
                self.assert_rows(net)

    @pytest.mark.parametrize(
        "expr", ["(2+x)^eps", "pow(1 + x^2, eps)", "cos(x)^eps", "x^(2*eps)"]
    )
    def test_eps_in_an_exponent_keeps_the_per_eps_path(self, expr, tmp_path):
        path = tmp_path / "power.ini"
        path.write_text(f"[net:p]\nexpr = {expr}\n")
        net = load_config(path).scalar_net("p")
        with np.errstate(all="ignore"):
            self.assert_rows(net)
        assert net.grid_fn is None

    def test_one_call_per_net_and_point_stack(self, monkeypatch, tmp_path):
        calls = []
        call = Expression.__call__
        monkeypatch.setattr(
            Expression, "__call__",
            lambda self, *a, **kw: calls.append(self) or call(self, *a, **kw),
        )
        _catalog_pass("maps", 0, tmp_path)()
        # 11 times as many, one per eps of the config's grid, on the per-eps path
        assert len(calls) == 48
