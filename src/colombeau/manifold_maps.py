"""Nets of maps between chart-based manifolds: c-boundedness, moderateness,
equivalence, generalized points, point values, and composition.

The checks here are derivative-free where the theory allows it: equivalence
of two nets is decided by order-0 data (distance decay, test-function
differences, chart differences at every sample point), and the three routes
are required to agree with each other.  Order 0 of a manifold-valued net is
its c-boundedness, so that is the one gate a net passes before it is
compared.  A disagreement is raised as an error rather than averaged away,
because it signals either a numerics bug or a genuinely borderline net that
needs a closer look.

Every verdict records the sampling that produced it: the eps grid, the
compact set resolution, and the test bank size.  The universal quantifiers
of the theory (all charts, all compact sets, all test functions) are
realized by finite samples, so a passing check is evidence, not proof.
"""

from __future__ import annotations

import functools
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
    sample_box,
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
    Built once per (box, resolution, extra, seed), and read-only.
    """
    return _lattice_and_jitter(K.box.tobytes(), K.resolution, extra, seed)


@functools.lru_cache(maxsize=64)
def _lattice_and_jitter(box_bytes, resolution, extra, seed) -> np.ndarray:
    box = np.frombuffer(box_bytes).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    lo, hi = box[:, 0], box[:, 1]
    jitter = lo + rng.uniform(size=(extra, lo.shape[0])) * (hi - lo)
    pts = np.vstack([sample_box(box, resolution), jitter])
    pts.flags.writeable = False
    return pts


def _rows(vals) -> np.ndarray:
    """``vals`` as floats, one row per entry of axis 0 (per eps)."""
    a = np.asarray(vals, dtype=float)
    return a.reshape(len(a), -1)


def _sup_abs(vals) -> np.ndarray:
    """Per row of axis 0, the sup of |vals|, with any non-finite entry
    collapsing its row to inf.

    inf - inf in a chain-rule term yields nan; both mean the magnitude
    left float range, and a plain max would silently discard nan and
    report spurious decay.  An empty row reads 0.
    """
    a = np.abs(_rows(vals))
    return np.where(np.all(np.isfinite(a), axis=1), np.max(a, axis=1, initial=0.0), np.inf)


def _sup_diff(a_vals, b_vals) -> np.ndarray:
    """Per row of axis 0, the sup of |a - b| with sub-roundoff differences
    counted as measured zeros, and inf where either operand is not finite.

    Two O(1) values agreeing to machine precision differ by arithmetic
    noise, not by a residual scale; a flat eps_mach curve would otherwise
    read as Moderate(0) and block verdicts no finite-precision experiment
    could refute.  The floor is relative to the operands' own magnitude,
    so genuinely small quantities keep their genuinely small differences.
    """
    a, b = _rows(a_vals), _rows(b_vals)
    finite = np.all(np.isfinite(a), axis=1) & np.all(np.isfinite(b), axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.max(np.abs(a - b), axis=1, initial=0.0)
    scale = np.maximum(
        np.max(np.abs(a), axis=1, initial=0.0), np.max(np.abs(b), axis=1, initial=0.0)
    )
    noise = d <= _DIFF_NOISE_C * np.finfo(float).eps * scale
    return np.where(finite, np.where(noise, 0.0, d), np.inf)


def _stack_points(grid, pts) -> np.ndarray:
    """Sample points as one contiguous (n_eps, N, d) stack: an (N, d) array
    repeated per eps, an (n_eps, N, d) stack as it is, or a function eps ->
    points stacked row by row.  Rows of different lengths are padded with
    their own first point, which changes no sup over the row."""
    if not callable(pts):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 3:
            return pts
        return np.ascontiguousarray(np.broadcast_to(pts, (len(grid),) + pts.shape))
    rows = [np.asarray(pts(eps), dtype=float) for eps in grid]
    n = max(len(r) for r in rows)
    return np.stack([
        np.concatenate([r, np.repeat(r[:1], n - len(r), axis=0)]) for r in rows
    ])


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


def _sup_curve(grid, k, pts, handles, step=fd_step, diff=None):
    """Order-k sup curve: per eps, the max over |alpha| = k of the sup over
    every sample point of the alpha-jet of one net, or of two nets' jet
    difference.

    ``handles`` are the grid handles (``Net.at_grid(grid)``) of one or two
    nets; ``pts`` is an array or a function eps -> points
    (:func:`_stack_points`).  Each multi-index takes one jet of the whole
    stack per handle, at the steps ``step(eps)``, and its sups are taken
    row by row: by ``diff(a, b)`` for a pair when given, else of |a - b|.
    """
    x = _stack_points(grid, pts)
    steps = np.array([step(eps) for eps in grid]).reshape(-1, 1, 1)
    sup = np.zeros(len(grid))
    for alpha in _index_tuples(handles[0].dim_in, k):
        j = [h.jet(x, alpha, steps) for h in handles]
        if diff is not None:
            rows = diff(*j)
        else:
            rows = _sup_abs(j[0] if len(j) == 1 else j[0] - j[1])
        sup = np.maximum(sup, rows)
    return sup.tolist()


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
    # check_cbounded and check_moderate reports; see _memo
    _reports: dict = field(
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

    def grid_handle(self, grid, src_chart: str = None):
        """(target chart, grid handle) for coordinates in ``src_chart``."""
        self._own_chart(src_chart)
        return self.tgt_chart, self.net.at_grid(grid)

    def eval(self, eps: float, x, src_chart: str = None):
        """Evaluate the eps-slice at points x (coords in src_chart)."""
        tgt, h = self.handle(eps, src_chart)
        return tgt, h(np.asarray(x, dtype=float))

    def image_in(self, eps: float, x, chart: str, src_chart: str = None):
        """The eps-slice at points x, written in target chart ``chart``."""
        tgt, y = self.eval(eps, x, src_chart)
        return y if tgt == chart else self.target.to_chart(y, tgt, chart)

    def images_in(self, grid, x, chart: str, src_chart: str = None):
        """Every slice of ``grid`` at its row of the stacked points x
        (n_eps, N, d), written in target chart ``chart``."""
        tgt, h = self.grid_handle(grid, src_chart)
        y = h(x)
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
    """Compactly supported generalized point: eps -> (chart id, coords).
    Its grid form ``on_grid(grid)`` is the chart ids and an (n_eps, d)
    coordinate array, ``at(eps)`` its one-row case: ``grid_fn(grid)`` if
    set, else ``at_fn(eps)`` (coords or (chart id, coords)) row by row."""

    at_fn: Optional[Callable]
    support: CompactSet
    label: str = ""
    grid_fn: Optional[Callable] = field(default=None, repr=False)

    def _row(self, v):
        return v if isinstance(v, tuple) else (self.support.chart_id, v)

    def at(self, eps: float):
        return tuple(part[0] for part in self.on_grid((eps,)))

    def on_grid(self, grid):
        if self.grid_fn is not None:
            return self.grid_fn(grid)
        cids, *parts = zip(*(self._row(self.at_fn(eps)) for eps in grid))
        return [list(cids)] + [np.stack([np.atleast_1d(a) for a in part]).astype(float)
                               for part in parts]

    def _supported_form(self, grid, what):
        """The grid form, its rows in the support's chart checked against its box."""
        form = self.on_grid(grid)
        out = (np.asarray(form[0], dtype=object) == self.support.chart_id) & ~inside_box(
            self.support.box, form[1], 1e-9)
        for i in np.flatnonzero(out)[:1]:
            raise OutsideDomain(f"{what} leaves its support at eps={tuple(grid)[i]}")
        return form

    def check_support(self):
        self._supported_form(_EVAL_EPS_SAMPLES, "generalized point")
        return True


def constant_gpoint(support: CompactSet, coords, label="") -> GeneralizedManifoldPoint:
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    p = GeneralizedManifoldPoint(None, support, label, lambda g: (
        [support.chart_id] * len(g), np.broadcast_to(coords, (len(g),) + coords.shape)))
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


def _one_target(u: ManifoldNet, v: ManifoldNet):
    """The pair gate's atlas check: u and v map into one target atlas."""
    if u.target is not v.target:
        raise AtlasMismatch("nets map into different target atlases")


def _pair_witness(u: ManifoldNet, v: ManifoldNet, K, grid, what) -> CompactSet:
    """The pair gate of every two-net verdict: one target atlas, both nets
    c-bounded on K (else ``NotCBounded`` naming ``what``); returns the union
    of their witnesses, the box a bank or cover is built on."""
    _one_target(u, v)
    cb_u, cb_v = check_cbounded(u, K, grid), check_cbounded(v, K, grid)
    if not (cb_u.ok and cb_v.ok):
        raise NotCBounded(f"{what} needs both nets c-bounded on K")
    return _witness_union(cb_u.witness, cb_v.witness)


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
    memoized on ``u`` per (K, grid), beside :func:`check_moderate`'s, and
    every later call with an equal K and grid returns the same object.
    """
    grid = grid or EpsGrid.default()
    u.source.chart(K.chart_id)
    return _memo(u, _cbounded_report, K, grid)


def _memo(u, compute, K: CompactSet, grid: EpsGrid, *args):
    """``compute(u, K, grid, *args)``, stored on u (a net with a
    ``_reports`` dict) per (compute, K, grid, *args); a call that raises
    stores nothing."""
    key = (compute.__name__, K.chart_id, K.box.tobytes(), K.resolution, grid.values, *args)
    if key not in u._reports:
        u._reports[key] = compute(u, K, grid, *args)
    return u._reports[key]


def _cbounded_report(u: ManifoldNet, K: CompactSet, grid: EpsGrid) -> CBoundedReport:
    pts = _check_points(K)
    tgt_chart, h = u.grid_handle(grid, K.chart_id)
    y = h(_stack_points(grid, pts))
    finite = np.all(np.isfinite(y), axis=-1)
    if not np.any(finite):
        raise ImageEscapesAtlas(
            f"{u.label or 'net'} produces no finite images on the grid"
        )
    # per eps: the largest finite image coordinate, inf with none finite
    mags = np.max(np.where(finite[..., None], np.abs(y), -np.inf), axis=(1, 2))
    mags = np.where(np.any(finite, axis=1), mags, math.inf).tolist()
    inside = np.all(finite & inside_box(u.target.chart(tgt_chart).box, y, 1e-9), axis=1)

    diagnostics: dict = {"grid": grid, "samples": len(pts)}
    escape_eps = None if np.all(inside) else grid.values[int(np.argmin(inside))]
    if escape_eps is not None:
        diagnostics["escape_eps"] = escape_eps

    half = len(mags) // 2
    growing = max(mags[half:]) > 100.0 * (max(mags[:half]) + 1.0)
    ok = escape_eps is None and not growing
    if growing:
        diagnostics["growth_ratio"] = max(mags[half:]) / (max(mags[:half]) + 1.0)

    witness = _witness_region(u.target, tgt_chart, y[finite]) if ok else None
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
    handles = [w.grid_handle(grid, src)[1] for w in nets]
    return [
        (f"x{i}", k, _sup_curve(grid, k, pts, tuple(_coordinate(h, i) for h in handles)))
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
    composites have these jets bit for bit.  The report is memoized on
    ``u`` per (K, grid, k_max), as :func:`check_cbounded`'s is.
    """
    if k_max < 0:
        raise ConfigError(f"k_max must be >= 0, got {k_max}")
    return _memo(u, _moderate_report, K, grid or EpsGrid.default(), k_max)


def _moderate_report(u: ManifoldNet, K, grid, k_max) -> ModerateReport:
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


def _images(u: ManifoldNet, v: ManifoldNet, pts, src: str, grid):
    """(u's target chart, u(pts), v(pts)) over the grid, both images in
    that chart, eps on axis 0 (``pts`` as in :func:`_stack_points`)."""
    x = _stack_points(grid, pts)
    t_u = u.tgt_chart
    return t_u, u.images_in(grid, x, t_u, src), v.images_in(grid, x, t_u, src)


def _distance_curve(u: ManifoldNet, v: ManifoldNet, pts, src: str, grid):
    """Per eps, the sup over the sample points (an array, or a function
    eps -> points) of the chord distance between the images of u and v:
    ``_sup_abs``'s, so a row with a non-finite image reads inf."""
    t_u, yu, yv = _images(u, v, pts, src, grid)
    return _sup_abs(chord_distance(u.target, t_u, yu, yv)).tolist()


def _bank_difference_curves(u, v, bank: TestBank, src: str, grid, pts):
    """(test label, 0, sup curve of |f(u_eps) - f(v_eps)|) per bank test f:
    order 0 only, as the paper's characterization needs.  Each net's images
    over the grid are one stack, and the bank is evaluated on it in one
    ``TestBank.eval`` call per net; each (test, eps) row's sup is
    ``_sup_abs``'s."""
    x = _stack_points(grid, pts)
    yu = u.grid_handle(grid, src)[1].eval_fn(x)
    yv = v.grid_handle(grid, src)[1].eval_fn(x)
    d = bank.eval(yu) - bank.eval(yv)
    curves = _sup_abs(d.reshape(-1, d.shape[-1])).reshape(d.shape[:-1]).tolist()
    return [(label, 0, curve) for label, curve in zip(bank.labels, curves)]


def check_equivalent(
    u: ManifoldNet,
    v: ManifoldNet,
    K: CompactSet,
    grid: Optional[EpsGrid] = None,
    derivative_order: int = 0,
) -> EquivalenceReport:
    """Equivalence of two nets on K by three independent routes.

    Both nets must map into one target atlas with a metric, and be
    c-bounded on K, which is their order-0 moderateness; otherwise this
    raises before any route runs.  (A) the distance route: sup over K of
    d_h(u_eps, v_eps) decays below every tested power; (B) the bank route:
    f(u_eps) - f(v_eps) negligible for every bank member f, the bank built
    on the union of the two c-boundedness witnesses; (C) the chart route:
    coordinate differences, in u's target chart, at every sample point of
    K.  A and B are derivative-free, as the paper's characterization is;
    ``derivative_order`` extends C alone to jets of that order, so the
    required agreement then checks the paper's theorem that order 0
    decides.  A split verdict raises inconsistent-routes.
    """
    if derivative_order < 0:
        raise ConfigError(f"derivative_order must be >= 0, got {derivative_order}")
    _one_target(u, v)
    if not u.target.has_metric:
        raise NoMetric("equivalence route A needs a metric on the target")
    grid = grid or EpsGrid.default()
    pts = _check_points(K)
    src = K.chart_id
    bank = default_test_bank(u.target, _pair_witness(u, v, K, grid, "equivalence"))

    # route A: distance decay
    dist_curve = _distance_curve(u, v, pts, src, grid)
    route_a = negligible_to_resolution(dist_curve, grid)

    # route B: test-function differences
    bank_curves = {
        (label, k): negligible_to_resolution(curve, grid)
        for label, k, curve in _bank_difference_curves(u, v, bank, src, grid, pts)
    }
    route_b = all(bank_curves.values())

    # route C: chart differences at every sample point
    pair = (u.grid_handle(grid, src)[1], v.grid_handle(grid, src)[1])
    route_c = all([
        negligible_to_resolution(_sup_curve(grid, k, pts, pair), grid)
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


def _insertion_witness(u: ManifoldNet, support: CompactSet, grid):
    cb = check_cbounded(u, support, grid)
    if not cb.ok:
        raise NotCBounded("point insertion needs a c-bounded net on the support")
    return cb.witness


def _checked_stack(nets, points, grid, witnesses=False):
    """The grid forms of ``points`` side by side: chart ids (n_eps, P),
    coordinates (n_eps, P, d), then any further part.  The one insertion
    check: each point as inserting it into each ManifoldNet of ``nets``
    checks it, point by point (c-boundedness on ``grid`` first, with
    ``witnesses``), then eps by eps and net by net: the source chart's box,
    then the chart."""
    cids, *parts = zip(*(p.on_grid(grid) for p in points))
    cids = np.array(cids, dtype=object).T
    x, *rest = [np.stack(part, axis=1) for part in parts]
    refused = np.array([(cids != u.src_chart) | ~inside_box(
        u.source.chart(u.src_chart).box, x, 1e-9) for u in nets])
    for j, p in enumerate(points):
        for u in nets if witnesses else ():
            _insertion_witness(u, p.support, grid)
        for i in np.flatnonzero(np.any(refused[:, :, j], axis=0))[:1]:
            u = nets[int(np.argmax(refused[:, i, j]))]
            if not box_contains(u.source.chart(cids[i, j]).box, x[i, j], 1e-9):
                raise OutsideDomain("generalized point leaves the source chart")
            u._own_chart(cids[i, j])  # a refused row in the box is in another chart
    return [cids, x, *rest]


def point_value(
    u: ManifoldNet, p: GeneralizedManifoldPoint, grid: Optional[EpsGrid] = None
) -> GeneralizedManifoldPoint:
    """The generalized point eps -> u_eps(p_eps) in the target, on u's grid handle."""
    grid = grid or EpsGrid.default()
    witness = _insertion_witness(u, p.support, grid)

    def on_grid(g):
        _, x = _checked_stack((u,), [p], g)
        return [u.tgt_chart] * len(g), u.grid_handle(g)[1](x)[:, 0]

    return GeneralizedManifoldPoint(None, witness, f"{u.label or 'u'}({p.label or 'p'})", on_grid)


def point_distance(atlas: Atlas, cp, xp, cq, xq):
    """Chord distance between (cp, xp) and (cq, xq), measured in chart cp,
    row by row: cp and cq are one chart id or one per row of the (..., d)
    points.  One pair of points gives a float.

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
    lead = xp.shape[:-1]
    cp, cq = (np.broadcast_to(np.asarray(c, dtype=object), lead).ravel() for c in (cp, cq))
    xp, xq = xp.reshape(len(cp), -1), xq.reshape(len(cp), -1)
    out = np.zeros(len(cp))
    for a, b in set(zip(cp, cq)):
        rows = np.flatnonzero((cp == a) & (cq == b))
        p, q = xp[rows], atlas.to_chart(xq[rows], b, a)
        scale = np.fmax.reduce([np.max(np.abs(y), axis=-1) for y in (p, xq[rows], q)])
        gap = np.max(np.abs(p - q), axis=-1)
        far = ~(np.isfinite(gap) & (gap <= _DIFF_NOISE_C * np.finfo(float).eps * scale))
        if far.any():
            out[rows[far]] = chord_distance(atlas, a, p[far], q[far])
    return out.reshape(lead) if lead else float(out[0])


def gpoint_distance_curve(
    atlas: Atlas, p: GeneralizedManifoldPoint, q: GeneralizedManifoldPoint,
    grid: EpsGrid,
):
    """Per eps of ``grid``, the point distance of p and q's grid forms."""
    return point_distance(atlas, *p.on_grid(grid), *q.on_grid(grid)).tolist()


def gpoints_equivalent(
    atlas: Atlas, p: GeneralizedManifoldPoint, q: GeneralizedManifoldPoint,
    grid: Optional[EpsGrid] = None,
) -> bool:
    grid = grid or EpsGrid.default()
    return negligible_to_resolution(gpoint_distance_curve(atlas, p, q, grid), grid)


def _argmax_point(gaps, grid, pts, K: CompactSet) -> GeneralizedManifoldPoint:
    """Piecewise-constant point at the per-eps argmax of ``gaps`` (one row
    of gaps per eps of ``grid``, one gap per sample point), ties to the
    lowest sample index, held from each grid eps up to the next one."""
    eps = grid.as_array()[::-1]  # increasing
    chosen = pts[np.argmax(gaps, axis=-1)][::-1]

    def on_grid(g):
        i = np.maximum(np.searchsorted(eps, list(g), side="right") - 1, 0)
        return [K.chart_id] * len(i), chosen[i]

    return GeneralizedManifoldPoint(None, K, "adversarial", on_grid)


def _base_gap(u: ManifoldNet, v: ManifoldNet, pts, src: str, grid):
    """Per eps and point, the max-norm difference of the images, both in
    u's target chart."""
    _, yu, yv = _images(u, v, pts, src, grid)
    return np.max(np.abs(yu - yv), axis=-1)


def adversarial_gpoint(
    u: ManifoldNet, v: ManifoldNet, K: CompactSet, grid: EpsGrid
) -> GeneralizedManifoldPoint:
    """Piecewise-constant point tracking the per-eps argmax of the chart
    difference over sampled K."""
    pts = _check_points(K)
    return _argmax_point(_base_gap(u, v, pts, K.chart_id, grid), grid, pts, K)


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
    _one_target(u, v)
    grid = grid or EpsGrid.default()
    points = list(sample_points)
    if K is not None:
        points.append(adversarial_gpoint(u, v, K, grid))
    failures = [
        p.label or "unnamed"
        for p, curve in zip(points, _pointvalue_curves(u, v, points, grid) if points else ())
        if not negligible_to_resolution(curve, grid)
    ]
    return not failures, {"failed_points": failures, "tested": len(points)}


def _pointvalue_curves(u: ManifoldNet, v: ManifoldNet, points, grid):
    """Per point, the distance curve of u's and v's values there: one
    evaluation of each net's grid handle on all the points, one column each."""
    _, x = _checked_stack((u, v), points, grid, witnesses=True)
    yu, yv = u.grid_handle(grid)[1](x), v.grid_handle(grid)[1](x)
    return point_distance(u.target, u.tgt_chart, yu, v.tgt_chart, yv).T.tolist()


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
