"""Nets of maps between chart-based manifolds: c-boundedness, moderateness,
equivalence, generalized points, point values, and composition.

The checks here are derivative-free where the theory allows it: equivalence
of two nets is decided by order-0 data (distance decay, test-function
differences, chart differences), and the three routes are required to agree
with each other.  A disagreement is raised as an error rather than averaged
away, because it signals either a numerics bug or a genuinely borderline
net that needs a closer look.

Every verdict records the sampling that produced it: the eps grid, the
compact set resolution, and the test bank size.  The universal quantifiers
of the theory (all charts, all compact sets, all test functions) are
realized by finite samples, so a passing check is evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .asymptotics import (
    DEFAULT_M_MAX,
    EpsGrid,
    AsymptoticVerdict,
    MODERATE,
    NEGLIGIBLE,
    NEITHER,
    estimate_growth_order,
    negligible_to_resolution,
)
from .errors import (
    AtlasMismatch,
    DimensionMismatch,
    ImageEscapesAtlas,
    InconsistentRoutes,
    NoMetric,
    NotCBounded,
    NotModerate,
    OutsideDomain,
)
from .geometry import (
    Atlas,
    CompactSet,
    TestBank,
    box_contains,
    chord_distance,
    default_test_bank,
)
from .nets import (
    Net,
    SmoothMapHandle,
    compose_nets,
    constant_net,
    fd_step,
    handle_compose,
    identity_handle,
)

_REP_AGREEMENT_TOL = 1e-9
# differences within this many ulps of the operands' magnitude are
# arithmetic noise, counted as measured zeros
_DIFF_NOISE_C = 4.0
_EVAL_EPS_SAMPLES = (0.5, 0.1, 0.02)


def _check_points(K: "CompactSet", extra: int = 48, seed: int = 0) -> np.ndarray:
    """Sample lattice of K plus seeded uniform points.

    Sups of eps-oscillatory quantities need sample phases spread over the
    oscillation; a coarse lattice alone can miss the extremes at small eps
    and wreck the growth fit.  The seed is fixed so verdicts reproduce.
    """
    pts = K.sample_points()
    rng = np.random.default_rng(seed)
    lo, hi = K.box[:, 0], K.box[:, 1]
    jitter = lo + rng.uniform(size=(extra, lo.shape[0])) * (hi - lo)
    return np.vstack([pts, jitter])


def _sup_abs(vals) -> float:
    """Sup of |vals|, with any non-finite entry collapsing to inf.

    inf - inf in a chain-rule term yields nan; both mean the magnitude
    left float range, and a plain max would silently discard nan and
    report spurious decay.
    """
    a = np.abs(np.asarray(vals, dtype=float))
    if a.size == 0:
        return 0.0
    if not np.all(np.isfinite(a)):
        return float("inf")
    return float(np.max(a))


# ---------------------------------------------------------------------------
# manifold-valued nets


@dataclass
class ManifoldNet:
    """A net of maps between atlases, stored per (source chart, target chart).

    ``reps`` maps (source chart id, target chart id) to a Net in those
    coordinates.  Where two representations share a source chart they must
    agree through the target transition maps at sampled points and eps.
    """

    source: Atlas
    target: Atlas
    reps: dict
    label: str = ""
    # c-boundedness reports by (K chart, K box, K resolution, grid values);
    # see check_cbounded
    _cbounded: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.reps:
            raise AtlasMismatch("manifold net needs at least one chart-pair net")
        for (s, t), net in self.reps.items():
            self.source.chart(s)
            self.target.chart(t)
            if net.dim_in != self.source.dim or net.dim_out != self.target.dim:
                raise DimensionMismatch(
                    f"net for ({s},{t}) has dims {net.dim_in}->{net.dim_out}, "
                    f"atlas needs {self.source.dim}->{self.target.dim}"
                )
        self._check_rep_agreement()

    def _check_rep_agreement(self):
        by_source: dict = {}
        for (s, t), net in self.reps.items():
            by_source.setdefault(s, []).append((t, net))
        for s, entries in by_source.items():
            if len(entries) < 2:
                continue
            box = self.source.chart(s).box
            from .geometry import sample_box

            pts = sample_box(box, 5)
            for (t1, n1), (t2, n2) in zip(entries, entries[1:]):
                for eps in _EVAL_EPS_SAMPLES:
                    y1 = n1.at(eps)(pts)
                    y2 = n2.at(eps)(pts)
                    moved = self.target.to_chart(y1, t1, t2)
                    inside = np.all(
                        (y2 >= self.target.chart(t2).box[:, 0] - 1e-9)
                        & (y2 <= self.target.chart(t2).box[:, 1] + 1e-9),
                        axis=-1,
                    )
                    if not np.any(inside):
                        continue
                    err = float(np.max(np.abs(moved[inside] - y2[inside])))
                    if err > _REP_AGREEMENT_TOL:
                        raise AtlasMismatch(
                            f"chart-pair nets ({s},{t1}) and ({s},{t2}) disagree "
                            f"through transitions: error {err:.2e} at eps={eps}"
                        )

    def rep_for(self, src_chart: str):
        for (s, t), net in self.reps.items():
            if s == src_chart:
                return t, net
        raise AtlasMismatch(f"no representation with source chart {src_chart!r}")

    def eval(self, eps: float, x, src_chart: str = None):
        """Evaluate the eps-slice at points x (coords in src_chart)."""
        if src_chart is None:
            src_chart = next(iter(self.reps))[0]
        tgt, net = self.rep_for(src_chart)
        return tgt, net.at(eps)(np.asarray(x, dtype=float))

    def handle(self, eps: float, src_chart: str = None):
        if src_chart is None:
            src_chart = next(iter(self.reps))[0]
        tgt, net = self.rep_for(src_chart)
        return tgt, net.at(eps)


def single_chart_map(
    source: Atlas,
    target: Atlas,
    fn,
    src_chart="main",
    tgt_chart="main",
    jet=None,
    label="",
    feature_scale=None,
):
    """ManifoldNet with one chart-pair representation on the source box."""
    from .nets import net_from_function

    net = net_from_function(
        fn,
        source.dim,
        target.dim,
        box=source.chart(src_chart).box,
        jet=jet,
        label=label,
        feature_scale=feature_scale,
    )
    return ManifoldNet(source, target, {(src_chart, tgt_chart): net}, label)


def identity_map(atlas: Atlas, chart="main", label="id") -> ManifoldNet:
    """The identity of ``atlas`` on one chart, with exact jets."""
    net = constant_net(
        identity_handle(atlas.dim), box=atlas.chart(chart).box, label=label
    )
    return ManifoldNet(atlas, atlas, {(chart, chart): net}, label)


# ---------------------------------------------------------------------------
# generalized points


@dataclass
class GeneralizedManifoldPoint:
    """Compactly supported generalized point: eps -> (chart id, coords)."""

    at_fn: Callable
    support: CompactSet
    eps0: float = 1.0
    label: str = ""

    def at(self, eps: float):
        v = self.at_fn(eps)
        if isinstance(v, tuple):
            cid, x = v
        else:
            cid, x = self.support.chart_id, v
        return cid, np.atleast_1d(np.asarray(x, dtype=float))

    def check_support(self, eps_samples=_EVAL_EPS_SAMPLES):
        for eps in eps_samples:
            if eps > self.eps0:
                continue
            cid, x = self.at(eps)
            if cid == self.support.chart_id and not box_contains(
                self.support.box, x, slack=1e-9
            ):
                raise OutsideDomain(
                    f"generalized point leaves its support at eps={eps}"
                )
        return True


def constant_gpoint(support: CompactSet, coords, label="") -> GeneralizedManifoldPoint:
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    p = GeneralizedManifoldPoint(lambda eps: coords, support, label=label)
    p.check_support()
    return p


def random_gpoints(support: CompactSet, count: int, seed=0, jitter=0.0):
    """Constant generalized points at uniform random support coordinates;
    optional eps-linear jitter that stays inside the support box."""
    rng = np.random.default_rng(seed)
    lo, hi = support.box[:, 0], support.box[:, 1]
    width = hi - lo
    out = []
    for j in range(count):
        c = lo + rng.uniform(0.15, 0.85, size=lo.shape) * width
        if jitter > 0:
            w = rng.uniform(-1.0, 1.0, size=lo.shape) * jitter * width

            def at(eps, _c=c, _w=w):
                return _c + eps * _w

            p = GeneralizedManifoldPoint(at, support, label=f"random-{j}")
        else:
            p = constant_gpoint(support, c, label=f"random-{j}")
        p.check_support()
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# c-boundedness


@dataclass
class CBoundedReport:
    ok: bool
    witness: Optional[CompactSet]
    diagnostics: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


def _witness_region(target: Atlas, tgt_chart: str, images: np.ndarray) -> CompactSet:
    box = target.chart(tgt_chart).box
    lo = images.reshape(-1, images.shape[-1]).min(axis=0)
    hi = images.reshape(-1, images.shape[-1]).max(axis=0)
    width = np.maximum(hi - lo, 1e-6)
    margin = 0.1 * width
    lo = np.maximum(lo - margin, box[:, 0] + 1e-6 * (box[:, 1] - box[:, 0]))
    hi = np.minimum(hi + margin, box[:, 1] - 1e-6 * (box[:, 1] - box[:, 0]))
    hi = np.maximum(hi, lo + 1e-9)
    return CompactSet(tgt_chart, np.stack([lo, hi], axis=-1))


def check_cbounded(
    u: ManifoldNet, K: CompactSet, grid: Optional[EpsGrid] = None
) -> CBoundedReport:
    """Do the images u_eps(K) stay inside one fixed compact box?

    The verdict is the direct image test.  Diagnostics carry the indirect
    route (order-zero moderateness of f(u_eps) for the default test bank on
    the witness), which is implied by c-boundedness but does not imply it:
    a net escaping to infinity slides off every compactly supported f
    unnoticed.

    The report depends only on (u, K, grid): the sample points are seeded
    and a net's representations are never changed after construction.  It
    is therefore memoized on ``u`` per (K, grid), and every later call with
    an equal K and grid returns the same report object.
    """
    grid = grid or EpsGrid.default()
    u.source.chart(K.chart_id)
    key = (K.chart_id, K.box.tobytes(), K.resolution, grid.values)
    report = u._cbounded.get(key)
    if report is None:
        report = _cbounded_report(u, K, grid)
        u._cbounded[key] = report
    return report


def _cbounded_report(u: ManifoldNet, K: CompactSet, grid: EpsGrid) -> CBoundedReport:
    pts = _check_points(K)
    tgt_chart = None
    images_by_eps = {}
    finite_rows = []
    escape_eps = None
    for eps in grid:
        tgt, y = u.eval(eps, pts, K.chart_id)
        tgt_chart = tgt
        images_by_eps[eps] = y
        finite = np.all(np.isfinite(y), axis=-1)
        if np.any(finite):
            finite_rows.append(y[finite])
        box = u.target.chart(tgt).box
        inside = np.all(finite) and np.all(
            (y >= box[:, 0] - 1e-9) & (y <= box[:, 1] + 1e-9)
        )
        if not inside and escape_eps is None:
            escape_eps = eps

    if not finite_rows:
        raise ImageEscapesAtlas(
            f"{u.label or 'net'} produces no finite images on the grid"
        )
    pool = np.vstack(finite_rows)

    diagnostics: dict = {"grid": grid, "samples": len(pts)}
    if escape_eps is not None:
        diagnostics["escape_eps"] = escape_eps

    mags = [
        float(np.max(np.abs(y[np.all(np.isfinite(y), axis=-1)])))
        if np.any(np.all(np.isfinite(y), axis=-1)) else math.inf
        for y in images_by_eps.values()
    ]
    half = len(mags) // 2
    growing = max(mags[half:]) > 100.0 * (max(mags[:half]) + 1.0)
    ok = escape_eps is None and not growing
    if growing:
        diagnostics["growth_ratio"] = max(mags[half:]) / (max(mags[:half]) + 1.0)

    witness = _witness_region(u.target, tgt_chart, pool) if ok else None

    # indirect route: f(u_eps) stays bounded for every compactly supported
    # f in the bank.  This cannot detect escape to infinity (the images
    # slide off every compact support), which is exactly why the direct
    # image test above is the verdict and this one is a diagnostic.
    probe = witness if witness is not None else _witness_region(
        u.target, tgt_chart, pool
    )
    bank = default_test_bank(u.target, probe)
    from .asymptotics import is_negligible

    bank_ok = True
    for test in bank.scalar_tests:
        curve = []
        for eps in grid:
            vals = np.abs(test.handle(images_by_eps[eps]))
            vals = np.where(np.isfinite(vals), vals, 0.0)
            curve.append(float(np.max(vals)))
        bounded, _ = is_negligible(curve, grid, 0)
        if not bounded:
            bank_ok = False
            break
    diagnostics["bank_bounded"] = bank_ok
    diagnostics["bank_size"] = len(bank)
    return CBoundedReport(ok, witness, diagnostics)


# ---------------------------------------------------------------------------
# moderateness


def _index_tuples(dim, order):
    if order == 0:
        yield (0,) * dim
        return
    from itertools import combinations_with_replacement

    for combo in combinations_with_replacement(range(dim), order):
        alpha = [0] * dim
        for c in combo:
            alpha[c] += 1
        yield tuple(alpha)


@dataclass
class ModerateReport:
    verdict: AsymptoticVerdict
    per_test: list
    chart_route_agrees: bool
    witness: Optional[CompactSet]
    bank_size: int

    def __bool__(self):
        return self.verdict.classification in (MODERATE, NEGLIGIBLE)


def _combine_verdicts(verdicts) -> AsymptoticVerdict:
    worst = None
    for v in verdicts:
        if v.classification == NEITHER:
            return v
        n = v.order if v.classification == MODERATE else 0
        if worst is None or n > (worst.order if worst.classification == MODERATE else 0):
            worst = v
    return worst


def check_moderate(
    u: ManifoldNet,
    K: CompactSet,
    k_max: int = 3,
    grid: Optional[EpsGrid] = None,
    bank: Optional[TestBank] = None,
) -> ModerateReport:
    """Moderateness via the derivative-free route: jets of f(u_eps) for
    bank tests f that reduce to coordinates on the witness plateau,
    orders 0..k_max, classified per test.

    Only jets_stable tests enter; a bump test's derivative falls off
    double-exponentially at its support edge, so sampled sups of its
    composition with an oscillatory net swing over many orders of
    magnitude and poison the fit, while coordinate-times-cutoff tests
    reproduce the jets of u_eps exactly on the witness.

    The chart-coordinate jets of u_eps itself are run as a cross-check and
    the agreement flag lands in the report.
    """
    grid = grid or EpsGrid.default()
    cb = check_cbounded(u, K, grid)
    if not cb.ok:
        raise NotCBounded(
            f"{u.label or 'net'} is not c-bounded on K: {cb.diagnostics}"
        )
    witness = cb.witness
    if bank is None:
        bank = default_test_bank(u.target, witness)
    pts = _check_points(K)
    tgt_chart, _ = u.handle(grid.values[0], K.chart_id)
    dim_in = u.source.dim

    per_test = []
    for test in bank.scalar_tests:
        if not test.jets_stable:
            continue
        for k in range(k_max + 1):
            curve = []
            for eps in grid:
                _, h = u.handle(eps, K.chart_id)
                composed = handle_compose(test.handle, h)
                sup = 0.0
                for alpha in _index_tuples(dim_in, k):
                    sup = max(sup, _sup_abs(composed.jet(pts, alpha, fd_step(eps))))
                curve.append(sup)
            per_test.append((test.label, k, estimate_growth_order(curve, grid)))

    verdict = _combine_verdicts([v for _, _, v in per_test])

    # chart-route cross-check: jets of the chart representation itself
    chart_verdicts = []
    for k in range(k_max + 1):
        curve = []
        for eps in grid:
            _, h = u.handle(eps, K.chart_id)
            sup = 0.0
            for alpha in _index_tuples(dim_in, k):
                sup = max(sup, _sup_abs(h.jet(pts, alpha, fd_step(eps))))
            curve.append(sup)
        chart_verdicts.append(estimate_growth_order(curve, grid))
    chart_combined = _combine_verdicts(chart_verdicts)
    agrees = (chart_combined.classification == NEITHER) == (
        verdict.classification == NEITHER
    )
    return ModerateReport(verdict, per_test, agrees, witness, len(bank))


# ---------------------------------------------------------------------------
# equivalence


@dataclass
class EquivalenceReport:
    equivalent: bool
    route_distance: bool
    route_bank: bool
    route_chart: bool
    diagnostics: dict = field(default_factory=dict)

    def __bool__(self):
        return self.equivalent


def _moderate_precheck(u: ManifoldNet, K: CompactSet, grid: EpsGrid):
    pts = _check_points(K)
    curve = []
    for eps in grid:
        _, y = u.eval(eps, pts, K.chart_id)
        if not np.all(np.isfinite(y)):
            raise NotModerate(f"{u.label or 'net'} produces non-finite values on K")
        curve.append(float(np.max(np.abs(y))))
    v = estimate_growth_order(curve, grid)
    if v.classification == NEITHER:
        raise NotModerate(f"{u.label or 'net'} fails the order-0 moderateness check")


def check_equivalent(
    u: ManifoldNet,
    v: ManifoldNet,
    K: CompactSet,
    grid: Optional[EpsGrid] = None,
    bank: Optional[TestBank] = None,
    derivative_order: int = 0,
) -> EquivalenceReport:
    """Equivalence of two nets on K by three independent routes.

    (A) the distance route: sup over K of d_h(u_eps, v_eps) decays below
    every tested power; (B) the bank route: f(u_eps) - f(v_eps) negligible
    for every bank member, with jets up to ``derivative_order``; (C) the
    chart route: coordinate differences on the witness region, masked at
    points whose image leaves it.  The three booleans must agree; a split
    verdict raises inconsistent-routes.
    """
    grid = grid or EpsGrid.default()
    _moderate_precheck(u, K, grid)
    _moderate_precheck(v, K, grid)
    if u.target is not v.target and u.target.dim != v.target.dim:
        raise AtlasMismatch("nets map into different target atlases")
    if not u.target.has_metric:
        raise NoMetric("equivalence route A needs a metric on the target")

    pts = _check_points(K)
    cb_u = check_cbounded(u, K, grid)
    cb_v = check_cbounded(v, K, grid)
    if not (cb_u.ok and cb_v.ok):
        raise NotCBounded("equivalence needs both nets c-bounded on K")
    lo = np.minimum(cb_u.witness.box[:, 0], cb_v.witness.box[:, 0])
    hi = np.maximum(cb_u.witness.box[:, 1], cb_v.witness.box[:, 1])
    witness = CompactSet(cb_u.witness.chart_id, np.stack([lo, hi], axis=-1))
    if bank is None:
        bank = default_test_bank(u.target, witness)

    # route A: distance decay
    dist_curve = []
    for eps in grid:
        t_u, yu = u.eval(eps, pts, K.chart_id)
        t_v, yv = v.eval(eps, pts, K.chart_id)
        if t_u != t_v:
            yv = v.target.to_chart(yv, t_v, t_u)
        dist_curve.append(float(np.max(chord_distance(u.target, t_u, yu, yv))))
    route_a = negligible_to_resolution(dist_curve, grid)

    # route B: test-function differences, jets up to derivative_order.
    # Bump tests separate values only; their derivative sups are too noisy
    # to fit (see check_moderate) and jets_stable tests already determine
    # the jets, so k >= 1 is restricted to those.
    route_b = True
    bank_curves = {}
    dim_in = u.source.dim
    for test in bank.scalar_tests:
        orders = range(derivative_order + 1) if test.jets_stable else range(1)
        for k in orders:
            curve = []
            for eps in grid:
                _, hu = u.handle(eps, K.chart_id)
                _, hv = v.handle(eps, K.chart_id)
                cu = handle_compose(test.handle, hu)
                cv = handle_compose(test.handle, hv)
                sup = 0.0
                for alpha in _index_tuples(dim_in, k):
                    diff = (
                        cu.jet(pts, alpha, fd_step(eps))
                        - cv.jet(pts, alpha, fd_step(eps))
                    )
                    sup = max(sup, _sup_abs(diff))
                curve.append(sup)
            ok = negligible_to_resolution(curve, grid)
            bank_curves[(test.label, k)] = ok
            if not ok:
                route_b = False

    # route C: chart differences on the witness, escape-masked
    route_c = True
    for k in range(derivative_order + 1):
        curve = []
        for eps in grid:
            t_u, hu = u.handle(eps, K.chart_id)
            t_v, hv = v.handle(eps, K.chart_id)
            yu, yv = hu(pts), hv(pts)
            if t_u != t_v:
                yv = v.target.to_chart(yv, t_v, t_u)
            mask = np.all(
                (yu >= witness.box[:, 0]) & (yu <= witness.box[:, 1])
                & (yv >= witness.box[:, 0]) & (yv <= witness.box[:, 1]),
                axis=-1,
            )
            if not np.any(mask):
                curve.append(0.0)
                continue
            sup = 0.0
            for alpha in _index_tuples(dim_in, k):
                diff = (
                    hu.jet(pts, alpha, fd_step(eps))
                    - hv.jet(pts, alpha, fd_step(eps))
                )
                sup = max(sup, _sup_abs(diff[mask]))
            curve.append(sup)
        if not negligible_to_resolution(curve, grid):
            route_c = False

    diagnostics = {
        "distance_curve": dist_curve,
        "bank_results": bank_curves,
        "bank_size": len(bank),
        "grid": grid,
        "derivative_order": derivative_order,
    }
    if not (route_a == route_b == route_c):
        raise InconsistentRoutes(
            f"equivalence routes disagree: distance={route_a}, bank={route_b}, "
            f"chart={route_c} for ({u.label!r}, {v.label!r}); "
            "this signals a numerics bug or a borderline pair"
        )
    return EquivalenceReport(route_a, route_a, route_b, route_c, diagnostics)


# ---------------------------------------------------------------------------
# point values


def point_value(
    u: ManifoldNet, p: GeneralizedManifoldPoint, grid: Optional[EpsGrid] = None
) -> GeneralizedManifoldPoint:
    """The generalized point eps -> u_eps(p_eps) in the target."""
    grid = grid or EpsGrid.default()
    cb = check_cbounded(u, p.support, grid)
    if not cb.ok:
        raise NotCBounded("point insertion needs a c-bounded net on the support")

    def at(eps):
        cid, x = p.at(eps)
        if not box_contains(u.source.chart(cid).box, x, slack=1e-9):
            raise OutsideDomain("generalized point leaves the source chart")
        tgt, y = u.eval(eps, x[None, :], cid)
        return tgt, y[0]

    return GeneralizedManifoldPoint(
        at, cb.witness, eps0=p.eps0,
        label=f"{u.label or 'u'}({p.label or 'p'})",
    )


def point_distance(atlas: Atlas, cp: str, xp, cq: str, xq) -> float:
    """Chord distance between (cp, xp) and (cq, xq), measured in chart cp.

    A coordinate gap within roundoff of the coordinates on either side of
    the chart change is a measured zero: the same point written into two
    charts comes back from the transition off by a few ulps of its larger
    chart coordinates, and a flat eps_mach distance curve would otherwise
    read as not negligible.
    """
    xp = np.asarray(xp, dtype=float)
    xq = np.asarray(xq, dtype=float)
    scale = max(float(np.max(np.abs(xp))), float(np.max(np.abs(xq))))
    if cp != cq:
        xq = atlas.to_chart(xq, cq, cp)
        scale = max(scale, float(np.max(np.abs(xq))))
    gap = float(np.max(np.abs(xp - xq)))
    if math.isfinite(gap) and gap <= _DIFF_NOISE_C * np.finfo(float).eps * scale:
        return 0.0
    return chord_distance(atlas, cp, xp, xq)


def gpoint_distance_curve(
    atlas: Atlas, p: GeneralizedManifoldPoint, q: GeneralizedManifoldPoint,
    grid: EpsGrid,
):
    curve = []
    for eps in grid:
        cp, xp = p.at(eps)
        cq, xq = q.at(eps)
        curve.append(point_distance(atlas, cp, xp, cq, xq))
    return curve


def gpoints_equivalent(
    atlas: Atlas, p: GeneralizedManifoldPoint, q: GeneralizedManifoldPoint,
    grid: Optional[EpsGrid] = None,
) -> bool:
    grid = grid or EpsGrid.default()
    return negligible_to_resolution(gpoint_distance_curve(atlas, p, q, grid), grid)


def _argmax_point(gaps: dict, pts, K: CompactSet) -> GeneralizedManifoldPoint:
    """Piecewise-constant point at the per-eps argmax of ``gaps`` (eps -> one
    gap per sample point); ties break to the lowest sample index."""
    chosen = {eps: pts[int(np.argmax(gap))] for eps, gap in gaps.items()}
    eps_sorted = sorted(chosen, reverse=True)  # decreasing eps

    def at(eps):
        for e in eps_sorted:
            if eps >= e:
                return chosen[e]
        return chosen[eps_sorted[-1]]

    return GeneralizedManifoldPoint(at, K, label="adversarial")


def _base_gap(u: ManifoldNet, v: ManifoldNet, pts, src: str, eps: float):
    """Per-point max-norm difference of the images, both in u's target chart."""
    t_u, yu = u.eval(eps, pts, src)
    t_v, yv = v.eval(eps, pts, src)
    if t_v != t_u:
        yv = v.target.to_chart(yv, t_v, t_u)
    return np.max(np.abs(yu - yv), axis=-1)


def adversarial_gpoint(
    u: ManifoldNet, v: ManifoldNet, K: CompactSet, grid: EpsGrid
) -> GeneralizedManifoldPoint:
    """Piecewise-constant point tracking the per-eps argmax of the chart
    difference over sampled K."""
    pts = _check_points(K)
    return _argmax_point(
        {eps: _base_gap(u, v, pts, K.chart_id, eps) for eps in grid}, pts, K
    )


def check_pointvalue_equality(
    u: ManifoldNet,
    v: ManifoldNet,
    sample_points: Sequence[GeneralizedManifoldPoint],
    K: Optional[CompactSet] = None,
    grid: Optional[EpsGrid] = None,
    include_adversarial: bool = True,
) -> tuple[bool, dict]:
    """Do u and v take equivalent values at every sampled generalized point?

    When K is given and ``include_adversarial`` is set, a point chasing the
    worst chart difference per eps is appended to the sample; equality of
    the nets forces equality there too, and a difference that order-0 sups
    can see will be caught by it.
    """
    grid = grid or EpsGrid.default()
    points = list(sample_points)
    if K is not None and include_adversarial:
        points.append(adversarial_gpoint(u, v, K, grid))
    failures = []
    for p in points:
        pu = point_value(u, p, grid)
        pv = point_value(v, p, grid)
        if not gpoints_equivalent(u.target, pu, pv, grid):
            failures.append(p.label or "unnamed")
    return not failures, {"failed_points": failures, "tested": len(points)}


# ---------------------------------------------------------------------------
# composition


def compose(u: ManifoldNet, v: ManifoldNet, label="") -> ManifoldNet:
    """The net x -> v_eps(u_eps(x)) (u first, then v)."""
    if v.source.dim != u.target.dim:
        raise AtlasMismatch(
            f"cannot compose: middle dims {u.target.dim} vs {v.source.dim}"
        )
    reps = {}
    for (a, b), nu in u.reps.items():
        for (b2, c), nv in v.reps.items():
            if b2 == b:
                reps[(a, c)] = compose_nets(nv, nu)
    if not reps:
        raise AtlasMismatch("no matching middle chart between the nets")
    return ManifoldNet(
        u.source, v.target, reps,
        label or f"{v.label or 'v'}o{u.label or 'u'}",
    )
