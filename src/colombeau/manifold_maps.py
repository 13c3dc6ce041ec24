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
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .asymptotics import (
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
    ConfigError,
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
    inside_box,
)
from .nets import (
    Net,
    SmoothMapHandle,
    compose_nets,
    constant_net,
    fd_step,
    identity_handle,
)

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


def _sup_diff(a_vals, b_vals, mask=None) -> float:
    """Sup |a - b| with sub-roundoff differences counted as measured zeros.

    Two O(1) values agreeing to machine precision differ by arithmetic
    noise, not by a residual scale; a flat eps_mach curve would otherwise
    read as Moderate(0) and block verdicts no finite-precision experiment
    could refute.  The floor is relative to the operands' own magnitude,
    so genuinely small quantities keep their genuinely small differences.
    """
    a = np.asarray(a_vals, dtype=float)
    b = np.asarray(b_vals, dtype=float)
    if mask is not None:
        a, b = a[mask], b[mask]
    if a.size == 0:
        return 0.0
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return float("inf")
    d = float(np.max(np.abs(a - b)))
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return 0.0 if d <= _DIFF_NOISE_C * np.finfo(float).eps * scale else d


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


def _sup_curve(grid, k, pts, slices, mask=None, step=fd_step, diff=None):
    """Order-k sup curve: per eps, the max over |alpha| = k of the sup over
    the sample points of the alpha-jet of one slice, or of two slices' jet
    difference.

    ``pts`` is an array or a function eps -> points; ``slices(eps)`` is a
    tuple of one or two handles; ``mask(eps)``, when given, marks the points
    the sup runs over, and a mask that keeps no point gives 0.0.  The jet
    step is ``step(eps)``.  A pair is measured by ``diff(a, b, mask)`` when
    given, else by the sup of |a - b| over the kept points.
    """
    curve = []
    for eps in grid:
        x = pts(eps) if callable(pts) else pts
        keep = None if mask is None else mask(eps)
        if keep is not None and not np.any(keep):
            curve.append(0.0)
            continue
        hs = slices(eps)
        h = step(eps)
        sup = 0.0
        for alpha in _index_tuples(hs[0].dim_in, k):
            j = [s.jet(x, alpha, h) for s in hs]
            if diff is not None:
                sup = max(sup, diff(j[0], j[1], keep))
                continue
            d = j[0] if len(j) == 1 else j[0] - j[1]
            sup = max(sup, _sup_abs(d if keep is None else d[keep]))
        curve.append(sup)
    return curve


# ---------------------------------------------------------------------------
# manifold-valued nets


@dataclass
class ManifoldNet:
    """A net of maps between atlases, written in one chart pair: ``net``
    takes coordinates of ``src_chart`` to coordinates of ``tgt_chart``.
    The target's transitions give its images in every other chart."""

    source: Atlas
    target: Atlas
    src_chart: str
    tgt_chart: str
    net: Net
    label: str = ""
    # c-boundedness reports by (K chart, K box, K resolution, grid values);
    # see check_cbounded
    _cbounded: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.source.chart(self.src_chart)
        self.target.chart(self.tgt_chart)
        if self.net.dim_in != self.source.dim or self.net.dim_out != self.target.dim:
            raise DimensionMismatch(
                f"net for ({self.src_chart},{self.tgt_chart}) has dims "
                f"{self.net.dim_in}->{self.net.dim_out}, "
                f"atlas needs {self.source.dim}->{self.target.dim}"
            )

    def _own_chart(self, src_chart):
        """Raise unless ``src_chart`` is None or the net's source chart."""
        if src_chart is not None and src_chart != self.src_chart:
            raise AtlasMismatch(
                f"{self.label or 'net'} is written in source chart "
                f"{self.src_chart!r}, not {src_chart!r}"
            )

    def handle(self, eps: float, src_chart: str = None):
        """(target chart, eps-slice) for coordinates in ``src_chart``."""
        self._own_chart(src_chart)
        return self.tgt_chart, self.net.at(eps)

    def eval(self, eps: float, x, src_chart: str = None):
        """Evaluate the eps-slice at points x (coords in src_chart)."""
        tgt, h = self.handle(eps, src_chart)
        return tgt, h(np.asarray(x, dtype=float))

    def image_in(self, eps: float, x, chart: str, src_chart: str = None):
        """The eps-slice at points x, written in target chart ``chart``."""
        tgt, y = self.eval(eps, x, src_chart)
        return y if tgt == chart else self.target.to_chart(y, tgt, chart)


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
    """ManifoldNet of ``fn(eps, x)`` from ``src_chart`` into ``tgt_chart``,
    on the source chart's box."""
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
    return ManifoldNet(source, target, src_chart, tgt_chart, net, label)


def identity_map(atlas: Atlas, chart="main", label="id") -> ManifoldNet:
    """The identity of ``atlas`` on one chart, with exact jets."""
    net = constant_net(
        identity_handle(atlas.dim), box=atlas.chart(chart).box, label=label
    )
    return ManifoldNet(atlas, atlas, chart, chart, net, label)


# ---------------------------------------------------------------------------
# generalized points


@dataclass
class GeneralizedManifoldPoint:
    """Compactly supported generalized point: eps -> (chart id, coords)."""

    at_fn: Callable
    support: CompactSet
    label: str = ""

    def at(self, eps: float):
        v = self.at_fn(eps)
        if isinstance(v, tuple):
            cid, x = v
        else:
            cid, x = self.support.chart_id, v
        return cid, np.atleast_1d(np.asarray(x, dtype=float))

    def check_support(self):
        for eps in _EVAL_EPS_SAMPLES:
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


def random_gpoints(support: CompactSet, count: int, seed=0):
    """Constant generalized points at uniform random support coordinates."""
    rng = np.random.default_rng(seed)
    lo, hi = support.box[:, 0], support.box[:, 1]
    width = hi - lo
    return [
        constant_gpoint(
            support, lo + rng.uniform(0.15, 0.85, size=lo.shape) * width,
            label=f"random-{j}",
        )
        for j in range(count)
    ]


# ---------------------------------------------------------------------------
# c-boundedness


@dataclass
class CBoundedReport:
    ok: bool
    witness: Optional[CompactSet]
    diagnostics: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


def _witness_union(a: CompactSet, b: CompactSet) -> CompactSet:
    """The smallest box holding two c-boundedness witnesses, which must lie
    in one target chart: boxes in different charts have no common frame."""
    if a.chart_id != b.chart_id:
        raise AtlasMismatch(
            f"witness boxes lie in different charts {a.chart_id!r} and {b.chart_id!r}"
        )
    lo = np.minimum(a.box[:, 0], b.box[:, 0])
    hi = np.maximum(a.box[:, 1], b.box[:, 1])
    return CompactSet(a.chart_id, np.stack([lo, hi], axis=-1))


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

    The verdict is the direct image test.  Bounded test-function images
    f(u_eps) are implied by c-boundedness but do not imply it: a net
    escaping to infinity slides off every compactly supported f unnoticed.

    The report depends only on (u, K, grid): the sample points are seeded
    and a net is never changed after construction.  It is therefore
    memoized on ``u`` per (K, grid), and every later call with an equal K
    and grid returns the same report object.
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
    finite_rows = []
    mags = []
    escape_eps = None
    for eps in grid:
        tgt, y = u.eval(eps, pts, K.chart_id)
        tgt_chart = tgt
        finite = np.all(np.isfinite(y), axis=-1)
        if np.any(finite):
            finite_rows.append(y[finite])
            mags.append(float(np.max(np.abs(y[finite]))))
        else:
            mags.append(math.inf)
        inside = np.all(finite) and np.all(
            inside_box(u.target.chart(tgt).box, y, 1e-9)
        )
        if not inside and escape_eps is None:
            escape_eps = eps

    if not finite_rows:
        raise ImageEscapesAtlas(
            f"{u.label or 'net'} produces no finite images on the grid"
        )

    diagnostics: dict = {"grid": grid, "samples": len(pts)}
    if escape_eps is not None:
        diagnostics["escape_eps"] = escape_eps

    half = len(mags) // 2
    growing = max(mags[half:]) > 100.0 * (max(mags[:half]) + 1.0)
    ok = escape_eps is None and not growing
    if growing:
        diagnostics["growth_ratio"] = max(mags[half:]) / (max(mags[:half]) + 1.0)

    witness = (
        _witness_region(u.target, tgt_chart, np.vstack(finite_rows)) if ok else None
    )
    return CBoundedReport(ok, witness, diagnostics)


# ---------------------------------------------------------------------------
# moderateness


@dataclass
class ModerateReport:
    verdict: AsymptoticVerdict
    rows: list
    witness: Optional[CompactSet]

    def __bool__(self):
        return self.verdict.classification == MODERATE


def _combine_verdicts(verdicts) -> AsymptoticVerdict:
    worst = None
    for v in verdicts:
        if v.classification == NEITHER:
            return v
        n = v.order if v.classification == MODERATE else 0
        if worst is None or n > (worst.order if worst.classification == MODERATE else 0):
            worst = v
    return worst


def _coordinate(h: SmoothMapHandle, i: int) -> SmoothMapHandle:
    """The i-th target coordinate of the handle h: column i of its values
    and jets."""
    return SmoothMapHandle(
        h.dim_in, 1, lambda x: h.eval_fn(x)[..., i:i + 1],
        lambda x, alpha, step: h.jet(x, alpha, step)[..., i:i + 1],
    )


def _coordinate_curves(nets, orders, src: str, grid, pts):
    """(f"x{i}", k, sup curve) per target chart coordinate i and order k in
    ``orders``: the order-k jets of the i-th chart coordinate of the one net
    in ``nets``, or of the difference of the two nets'."""
    return [
        (f"x{i}", k, _sup_curve(grid, k, pts, lambda eps, i=i: tuple(
            _coordinate(w.handle(eps, src)[1], i) for w in nets
        )))
        for i in range(nets[0].target.dim)
        for k in orders
    ]


def check_moderate(
    u: ManifoldNet,
    K: CompactSet,
    k_max: int = 3,
    grid: Optional[EpsGrid] = None,
) -> ModerateReport:
    """Moderateness of u on K: c-boundedness, then the jets of u's chart
    coordinates at orders 0..k_max.

    The report has one row ``(f"x{i}", k, verdict)`` per target coordinate
    i and order k, classifying the sup over K of the order-k jets of the
    i-th coordinate; the verdict is the worst row.  The paper tests f∘u_eps
    for smooth f, but on the c-boundedness witness the bank's plateau tests
    are the coordinates times a cutoff that is exactly 1 there, so their
    composites have these jets bit for bit.
    """
    if k_max < 0:
        raise ConfigError(f"k_max must be >= 0, got {k_max}")
    grid = grid or EpsGrid.default()
    cb = check_cbounded(u, K, grid)
    if not cb.ok:
        raise NotCBounded(
            f"{u.label or 'net'} is not c-bounded on K: {cb.diagnostics}"
        )
    rows = [
        (label, k, estimate_growth_order(curve, grid))
        for label, k, curve in _coordinate_curves(
            (u,), range(k_max + 1), K.chart_id, grid, _check_points(K)
        )
    ]
    verdict = _combine_verdicts([v for _, _, v in rows])
    # order 0 of a manifold-valued net is its c-boundedness, checked above;
    # a negligible label would depend on the chart: exp(-1/eps)cos x reads
    # Negligible in one chart and Moderate(0) in that chart shifted by 10
    if verdict.classification == NEGLIGIBLE:
        verdict = replace(verdict, classification=MODERATE, order=0)
    return ModerateReport(verdict, rows, cb.witness)


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
    curve = _sup_curve(
        grid, 0, _check_points(K), lambda eps: (u.handle(eps, K.chart_id)[1],)
    )
    if not all(map(math.isfinite, curve)):
        raise NotModerate(f"{u.label or 'net'} produces non-finite values on K")
    if estimate_growth_order(curve, grid).classification == NEITHER:
        raise NotModerate(f"{u.label or 'net'} fails the order-0 moderateness check")


def _images(u: ManifoldNet, v: ManifoldNet, pts, src: str, eps: float):
    """(u's target chart, u_eps(pts), v_eps(pts)), both images in that chart."""
    t_u, yu = u.eval(eps, pts, src)
    return t_u, yu, v.image_in(eps, pts, t_u, src)


def _distance_curve(u: ManifoldNet, v: ManifoldNet, pts, src: str, grid):
    """Per eps, the sup over the sample points (an array, or a function
    eps -> points) of the chord distance between the images of u and v."""
    curve = []
    for eps in grid:
        x = pts(eps) if callable(pts) else pts
        t_u, yu, yv = _images(u, v, x, src, eps)
        curve.append(float(np.max(chord_distance(u.target, t_u, yu, yv))))
    return curve


def _colocated_masks(u: ManifoldNet, v: ManifoldNet, pts, src: str, box, grid):
    """Per eps, the sample points whose images under u and v both lie in
    ``box`` (coordinates of u's target chart)."""
    masks = {}
    for eps in grid:
        y = np.stack(_images(u, v, pts, src, eps)[1:])
        masks[eps] = np.all((y >= box[:, 0]) & (y <= box[:, 1]), axis=(0, -1))
    return masks


def _bank_difference_curves(u, v, bank: TestBank, src: str, grid, pts):
    """(test label, 0, sup curve of |f(u_eps) - f(v_eps)|) per bank test f:
    order 0 only, as the paper's characterization needs.  Each net's image
    is taken once per eps and the bank evaluated on it in one
    ``TestBank.eval`` call per net; a row with a non-finite entry reads inf,
    as in ``_sup_abs``."""
    order0 = []
    for eps in grid:
        x = np.asarray(pts(eps) if callable(pts) else pts, dtype=float)
        yu = u.handle(eps, src)[1].eval_fn(x)
        yv = v.handle(eps, src)[1].eval_fn(x)
        a = np.abs(bank.eval(yu) - bank.eval(yv))
        finite = np.all(np.isfinite(a), axis=1)
        order0.append(np.where(finite, np.max(a, axis=1, initial=0.0), np.inf))
    curves = np.transpose(order0).tolist()
    return [(label, 0, curve) for label, curve in zip(bank.labels, curves)]


def check_equivalent(
    u: ManifoldNet,
    v: ManifoldNet,
    K: CompactSet,
    grid: Optional[EpsGrid] = None,
    derivative_order: int = 0,
) -> EquivalenceReport:
    """Equivalence of two nets on K by three independent routes.

    (A) the distance route: sup over K of d_h(u_eps, v_eps) decays below
    every tested power; (B) the bank route: f(u_eps) - f(v_eps) negligible
    for every bank member f; (C) the chart route: coordinate differences on
    the witness region, masked at points whose image leaves it.  A and B
    are derivative-free, as the paper's characterization is;
    ``derivative_order`` extends C alone to jets of that order, so the
    required agreement then checks the paper's theorem that order 0
    decides.  A split verdict raises inconsistent-routes.
    """
    if derivative_order < 0:
        raise ConfigError(f"derivative_order must be >= 0, got {derivative_order}")
    grid = grid or EpsGrid.default()
    _moderate_precheck(u, K, grid)
    _moderate_precheck(v, K, grid)
    if u.target is not v.target:
        raise AtlasMismatch("nets map into different target atlases")
    if not u.target.has_metric:
        raise NoMetric("equivalence route A needs a metric on the target")

    pts = _check_points(K)
    src = K.chart_id
    cb_u = check_cbounded(u, K, grid)
    cb_v = check_cbounded(v, K, grid)
    if not (cb_u.ok and cb_v.ok):
        raise NotCBounded("equivalence needs both nets c-bounded on K")
    witness = _witness_union(cb_u.witness, cb_v.witness)
    bank = default_test_bank(u.target, witness)

    # route A: distance decay
    dist_curve = _distance_curve(u, v, pts, src, grid)
    route_a = negligible_to_resolution(dist_curve, grid)

    # route B: test-function differences
    bank_curves = {
        (label, k): negligible_to_resolution(curve, grid)
        for label, k, curve in _bank_difference_curves(u, v, bank, src, grid, pts)
    }
    route_b = all(bank_curves.values())

    # route C: chart differences on the witness, escape-masked
    masks = _colocated_masks(u, v, pts, src, witness.box, grid)

    def pair(eps):
        return u.handle(eps, src)[1], v.handle(eps, src)[1]

    route_c = all([
        negligible_to_resolution(_sup_curve(grid, k, pts, pair, mask=masks.get), grid)
        for k in range(derivative_order + 1)
    ])

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
        at, cb.witness,
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
    if xp.shape != xq.shape:
        raise DimensionMismatch(f"points of shapes {xp.shape} and {xq.shape}")
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
    _, yu, yv = _images(u, v, pts, src, eps)
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
) -> tuple[bool, dict]:
    """Do u and v take equivalent values at every sampled generalized point?

    When K is given, a point chasing the
    worst chart difference per eps is appended to the sample; equality of
    the nets forces equality there too, and a difference that order-0 sups
    can see will be caught by it.
    """
    grid = grid or EpsGrid.default()
    points = list(sample_points)
    if K is not None:
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
    if v.source is not u.target:
        raise AtlasMismatch("cannot compose: the middle atlases are different objects")
    if v.src_chart != u.tgt_chart:
        raise AtlasMismatch(
            f"cannot compose: middle charts {u.tgt_chart!r} and {v.src_chart!r}"
        )
    return ManifoldNet(
        u.source, v.target, u.src_chart, v.tgt_chart, compose_nets(v.net, u.net),
        label or f"{v.label or 'v'}o{u.label or 'u'}",
    )
