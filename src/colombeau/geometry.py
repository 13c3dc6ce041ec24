"""Chart-based manifolds, vector bundles, and the test-object toolbox.

Manifolds here are finite atlases of open boxes in R^n glued by smooth
transition maps (affine ones are built in).  That keeps every geometric
question concrete: points are (chart id, coordinates), compact sets are
boxes strictly inside a chart, and distances are midpoint-metric chords,
bi-Lipschitz to the Riemannian distance on compact sets.

The module also builds the finite test objects that every characterization
check quantifies over: radial bump functions (the cutoffs of the
fiber-linear bundle test maps among them), box bumps and partitions of
unity subordinate to a box cover, and compactly supported one-densities.
They are values only, as the characterizations read test functions through
their values, and every bump takes its values from one radial rule,
``_radial_value``; jets, when asked for, are finite differences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AtlasMismatch,
    BallEscapesChart,
    ConfigError,
    CoverGap,
    DimensionMismatch,
    NoMetric,
    OutsideDomain,
)
from .nets import SmoothMapHandle, identity_handle, make_handle

_INVARIANT_TOL = 1e-9

# ---------------------------------------------------------------------------
# charts and compact sets


def _as_box(box, dim=None):
    b = np.asarray(box, dtype=float)
    if b.ndim != 2 or b.shape[1] != 2:
        raise DimensionMismatch(f"box must have shape (n, 2), got {b.shape}")
    if dim is not None and b.shape[0] != dim:
        raise DimensionMismatch(f"box has dim {b.shape[0]}, expected {dim}")
    if np.any(b[:, 0] >= b[:, 1]):
        raise DimensionMismatch("box must have lo < hi on every axis")
    return b


def inside_box(box, y, slack):
    """Mask over the points ``y`` (..., n) that lie in ``box`` widened by ``slack``."""
    y = np.asarray(y, dtype=float)
    return np.all((y >= box[:, 0] - slack) & (y <= box[:, 1] + slack), axis=-1)


def box_contains(box, x, slack=1e-12):
    return bool(np.all(inside_box(box, x, slack)))


def sample_box(box, per_axis):
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class Chart:
    id: str
    box: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "box", _as_box(self.box))

    @property
    def dim(self):
        return self.box.shape[0]


@dataclass(frozen=True)
class CompactSet:
    """A closed box strictly inside a chart domain, with a sample resolution."""

    chart_id: str
    box: np.ndarray
    resolution: int = 9

    def __post_init__(self):
        object.__setattr__(self, "box", _as_box(self.box))
        if self.resolution < 2:
            raise DimensionMismatch("resolution must be at least 2")

    def sample_points(self):
        return sample_box(self.box, self.resolution)

    def validate_inside(self, chart: Chart):
        margin = min(
            float(np.min(self.box[:, 0] - chart.box[:, 0])),
            float(np.min(chart.box[:, 1] - self.box[:, 1])),
        )
        if margin <= 0:
            raise OutsideDomain(
                f"compact box must sit strictly inside chart {chart.id!r}"
            )
        return margin


# ---------------------------------------------------------------------------
# transitions


def affine_transition(matrix, offset=None):
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigError("affine transition needs a square matrix")
    n = A.shape[0]
    b = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)

    def ev(x):
        return x @ A.T + b

    def jf(x, alpha):
        out = np.zeros(x.shape[:-1] + (n,))
        if sum(alpha) == 1:
            out[...] = A[:, alpha.index(1)]
        return out

    return make_handle(ev, n, n, jet_fn=jf, name="affine")


# ---------------------------------------------------------------------------
# atlases


class Atlas:
    """Finite atlas of box charts with optional per-chart Riemannian metric.

    ``transitions`` maps (from_id, to_id) to a SmoothMapHandle defined on
    the overlap; declared transitions must be mutually inverse at sampled
    points (checked at construction).  ``metric`` maps chart id to a
    callable returning symmetric positive-definite matrices, shape
    (..., n, n) for points (..., n).
    """

    def __init__(self, charts, transitions=None, metric=None, name=""):
        self.charts = {c.id: c for c in charts}
        if not self.charts:
            raise AtlasMismatch("atlas needs at least one chart")
        dims = {c.dim for c in self.charts.values()}
        if len(dims) != 1:
            raise AtlasMismatch(f"charts disagree in dimension: {sorted(dims)}")
        self.dim = dims.pop()
        self.transitions = dict(transitions or {})
        self.metric = dict(metric or {})
        self.name = name
        self._validate()

    def _validate(self):
        per_axis = {1: 9, 2: 7, 3: 4, 4: 3}.get(self.dim, 3)
        for (a, b), fwd in self.transitions.items():
            if a not in self.charts or b not in self.charts:
                raise AtlasMismatch(f"transition {a}->{b} references unknown chart")
            back = self.transitions.get((b, a))
            if back is None:
                raise AtlasMismatch(f"transition {a}->{b} lacks an inverse pair")
            pts = sample_box(self.charts[a].box, per_axis)
            ys = fwd(pts)
            inside = inside_box(self.charts[b].box, ys, 1e-12)
            if not np.any(inside):
                raise AtlasMismatch(f"transition {a}->{b} has empty sampled overlap")
            round_trip = back(ys[inside])
            err = float(np.max(np.abs(round_trip - pts[inside])))
            if err > _INVARIANT_TOL:
                raise AtlasMismatch(
                    f"transition pair {a}<->{b} not mutually inverse: error {err:.2e}"
                )
        for cid, g in self.metric.items():
            if cid not in self.charts:
                raise AtlasMismatch(f"metric references unknown chart {cid!r}")
            pts = sample_box(self.charts[cid].box, per_axis)
            mats = np.asarray(g(pts))
            if mats.shape[-2:] != (self.dim, self.dim):
                raise AtlasMismatch(f"metric on {cid!r} has wrong shape {mats.shape}")
            sym = float(np.max(np.abs(mats - np.swapaxes(mats, -1, -2))))
            if sym > _INVARIANT_TOL * (1.0 + float(np.max(np.abs(mats)))):
                raise AtlasMismatch(f"metric on {cid!r} not symmetric: {sym:.2e}")
            eigs = np.linalg.eigvalsh(mats)
            if np.min(eigs) <= 0:
                raise AtlasMismatch(
                    f"metric on {cid!r} not positive definite: min eig {np.min(eigs):.2e}"
                )

    # -- point plumbing ----------------------------------------------------

    def chart(self, chart_id) -> Chart:
        try:
            return self.charts[chart_id]
        except KeyError:
            raise AtlasMismatch(f"no chart {chart_id!r} in atlas") from None

    def to_chart(self, x, from_id, to_id):
        if from_id == to_id:
            return np.asarray(x, dtype=float)
        t = self.transitions.get((from_id, to_id))
        if t is None:
            raise AtlasMismatch(f"no transition {from_id}->{to_id} declared")
        return t(x)

    def transition_handle(self, from_id, to_id) -> SmoothMapHandle:
        if from_id == to_id:
            return identity_handle(self.dim)
        t = self.transitions.get((from_id, to_id))
        if t is None:
            raise AtlasMismatch(f"no transition {from_id}->{to_id} declared")
        return t

    def metric_at(self, chart_id, x):
        g = self.metric.get(chart_id)
        if g is None:
            raise NoMetric(f"chart {chart_id!r} carries no metric")
        return np.asarray(g(np.asarray(x, dtype=float)))

    @property
    def has_metric(self):
        return bool(self.metric)


def constant_metric(matrix):
    m = np.asarray(matrix, dtype=float)

    def g(x):
        return np.broadcast_to(m, x.shape[:-1] + m.shape).copy()

    return g


def euclidean_atlas(dim, half_width=10.0, name="euclidean"):
    box = [(-half_width, half_width)] * dim
    return Atlas([Chart("main", box)], metric={"main": constant_metric(np.eye(dim))},
                 name=name)


class VBAtlas:
    """Vector bundle atlas: base atlas, fiber dimension, fiber transitions.

    ``fiber_transitions`` maps (from_chart, to_chart) to a callable
    x -> invertible (fiber_dim x fiber_dim) matrices at base points x in
    the *from* chart's coordinates.  The cocycle identity is checked at
    sampled overlap points.
    """

    def __init__(self, base: Atlas, fiber_dim: int, vb_chart_ids=None,
                 fiber_transitions=None):
        self.base = base
        self.fiber_dim = int(fiber_dim)
        self.vb_chart_ids = list(vb_chart_ids or base.charts.keys())
        for cid in self.vb_chart_ids:
            base.chart(cid)
        self.fiber_transitions = dict(fiber_transitions or {})
        self._validate()

    def _validate(self):
        per_axis = {1: 9, 2: 7, 3: 4, 4: 3}.get(self.base.dim, 3)
        ids = self.vb_chart_ids
        for (a, b), phi in self.fiber_transitions.items():
            back = self.fiber_transitions.get((b, a))
            if back is None:
                raise AtlasMismatch(f"fiber transition {a}->{b} lacks an inverse pair")
            pts = self._overlap_samples(a, b, per_axis)
            if pts is None:
                continue
            mats = np.asarray(phi(pts))
            ys = self.base.to_chart(pts, a, b)
            inv = np.asarray(back(ys))
            err = float(np.max(np.abs(inv @ mats - np.eye(self.fiber_dim))))
            if err > _INVARIANT_TOL:
                raise AtlasMismatch(
                    f"fiber transitions {a}<->{b} not mutually inverse: {err:.2e}"
                )
        for a, b, c in itertools.permutations(ids, 3):
            if ((a, b) in self.fiber_transitions
                    and (b, c) in self.fiber_transitions
                    and (a, c) in self.fiber_transitions):
                pts = self._overlap_samples(a, b, per_axis, also=c)
                if pts is None:
                    continue
                ab = np.asarray(self.fiber_transitions[(a, b)](pts))
                bc = np.asarray(
                    self.fiber_transitions[(b, c)](self.base.to_chart(pts, a, b))
                )
                ac = np.asarray(self.fiber_transitions[(a, c)](pts))
                err = float(np.max(np.abs(bc @ ab - ac)))
                if err > _INVARIANT_TOL:
                    raise AtlasMismatch(
                        f"cocycle identity fails on {a},{b},{c}: error {err:.2e}"
                    )

    def _overlap_samples(self, a, b, per_axis, also=None):
        pts = sample_box(self.base.chart(a).box, per_axis)
        try:
            ys = self.base.to_chart(pts, a, b)
        except AtlasMismatch:
            return None
        inside = inside_box(self.base.chart(b).box, ys, 1e-12)
        if also is not None:
            try:
                zs = self.base.to_chart(pts, a, also)
            except AtlasMismatch:
                return None
            inside &= inside_box(self.base.chart(also).box, zs, 1e-12)
        if not np.any(inside):
            return None
        return pts[inside]

    def fiber_transition(self, from_id, to_id, x):
        if from_id == to_id:
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(
                np.eye(self.fiber_dim), x.shape[:-1] + (self.fiber_dim,) * 2
            ).copy()
        phi = self.fiber_transitions.get((from_id, to_id))
        if phi is None:
            raise AtlasMismatch(f"no fiber transition {from_id}->{to_id} declared")
        return np.asarray(phi(np.asarray(x, dtype=float)))


def trivial_bundle(atlas: Atlas, fiber_dim: int) -> VBAtlas:
    return VBAtlas(atlas, fiber_dim)


# ---------------------------------------------------------------------------
# distance


def chord_distance(atlas: Atlas, chart_id, xp, xq):
    """Midpoint-metric chord length; bi-Lipschitz to the Riemannian distance
    on compact sets (equivalent rates, not equal values).

    Broadcasts over leading point axes: one pair of points gives a float,
    stacked points ``(..., n)`` give an array of shape ``(...)``.
    """
    xp = np.asarray(xp, dtype=float)
    xq = np.asarray(xq, dtype=float)
    v = xq - xp
    g = atlas.metric_at(chart_id, 0.5 * (xp + xq))
    # v^T g v summed term by term in a fixed order, so a batch gives the
    # per-pair values bitwise (einsum's reduction order depends on shape)
    n = v.shape[-1]
    vgv = sum(v[..., i] * g[..., i, j] * v[..., j] for i in range(n) for j in range(n))
    d = np.sqrt(np.maximum(vgv, 0.0))
    return float(d) if d.ndim == 0 else d


# ---------------------------------------------------------------------------
# bump functions

_PSI_CUTOFF = 1e-30


def _psi(s):
    """exp(-1/s) for s > 0, 0 otherwise."""
    s = np.asarray(s, dtype=float)
    live = s > _PSI_CUTOFF
    with np.errstate(over="ignore", under="ignore"):
        return np.where(live, np.exp(-1.0 / np.where(live, s, 1.0)), 0.0)


def _profile_denominator(a0, b0):
    """W = a0 + b0 and where it underflowed; dead points divide by 1."""
    W = a0 + b0
    dead = W <= 1e-280
    return dead, np.where(dead, 1.0, W)


def _dead_step(q, r0_sq, r1_sq):
    """Limiting step value where the band is below float resolution."""
    return np.where(q < 0.5 * (r0_sq + r1_sq), 1.0, 0.0)


def _profile_value(q, r0_sq, r1_sq):
    """Smooth step in q = r^2: 1 for q <= r0_sq, 0 for q >= r1_sq.

    The denominator W = a + b is bounded below by psi of half the band
    width, which for hairline bands can underflow to zero; those points get
    the limiting step values (the transition is below float resolution
    there).
    """
    q = np.asarray(q, dtype=float)
    a0 = _psi(r1_sq - q)
    dead, Ws = _profile_denominator(a0, _psi(q - r0_sq))
    with np.errstate(invalid="ignore", divide="ignore", under="ignore"):
        beta0 = a0 / Ws
    if np.any(dead):
        beta0 = np.where(dead, _dead_step(q, r0_sq, r1_sq), beta0)
    return beta0


def _radial_value(y, center, r0_sq, r1_sq):
    """The bump profile of |y - center|^2 at the points ``y`` (..., n): one
    center, a stack of centers on leading axes, or one axis of a box bump."""
    return _profile_value(np.sum((y - center) ** 2, axis=-1), r0_sq, r1_sq)


def make_bump(center, inner_radius, outer_radius, box=None) -> SmoothMapHandle:
    """Radial C^inf bump: 1 on the inner ball, 0 outside the outer ball.

    Values only: jets are finite differences of the values.  When ``box``
    is given, the outer ball must fit inside it.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if not 0.0 < inner_radius < outer_radius:
        raise BallEscapesChart("need 0 < inner_radius < outer_radius")
    if box is not None:
        box = _as_box(box, center.shape[0])
        if np.any(center - outer_radius < box[:, 0]) or np.any(
            center + outer_radius > box[:, 1]
        ):
            raise BallEscapesChart("outer ball does not fit inside the chart box")
    r0_sq, r1_sq = float(inner_radius) ** 2, float(outer_radius) ** 2
    h = make_handle(
        lambda x: _radial_value(x, center, r0_sq, r1_sq)[..., None],
        center.shape[0], 1, name="bump",
    )
    h.support_box = np.stack([center - outer_radius, center + outer_radius], axis=-1)
    return h


def make_box_bump(inner_box, outer_box) -> SmoothMapHandle:
    """Product of per-axis bumps: 1 on inner_box, 0 outside outer_box.

    Values only: jets are finite differences of the values."""
    inner = _as_box(inner_box)
    outer = _as_box(outer_box, inner.shape[0])
    if np.any(inner[:, 0] <= outer[:, 0]) or np.any(inner[:, 1] >= outer[:, 1]):
        raise BallEscapesChart("inner box must sit strictly inside outer box")
    axes = []
    for i in range(inner.shape[0]):
        c = 0.5 * (inner[i, 0] + inner[i, 1])
        r_in = 0.5 * (inner[i, 1] - inner[i, 0])
        r_out = min(c - outer[i, 0], outer[i, 1] - c)
        # Python's float pow, as the radial bumps square their radii
        axes.append((c, float(r_in) ** 2, float(r_out) ** 2))

    def ev(x):
        h = None
        for i, (c, r0_sq, r1_sq) in enumerate(axes):
            f = _radial_value(x[..., i : i + 1], c, r0_sq, r1_sq)[..., None]
            h = f if h is None else h * f
        return h

    h = make_handle(ev, inner.shape[0], 1, name="box-bump")
    h.support_box = outer
    return h


# ---------------------------------------------------------------------------
# partitions of unity


@dataclass
class PartitionMember:
    chart_id: str
    handle: SmoothMapHandle
    support_box: np.ndarray


def partition_of_unity(atlas: Atlas, cores: Sequence[CompactSet]):
    """Bump-based partition subordinate to the cores' charts.

    Each member is ``b_j * (1 / sum_k b_k)``, values only, where b_j is a
    box bump equal to 1 on core j and padded by half the core's width
    (less near the chart edge), and 0 where every bump vanishes.  The
    normalized sum is exactly 1 wherever some b_k > 0; a sampled point of
    some core where all bumps vanish raises cover-gap.  Members of a
    multi-chart cover are normalized through the declared transitions.
    """
    if not cores:
        raise CoverGap("empty cover")
    bumps = []
    for core in cores:
        chart = atlas.chart(core.chart_id)
        gap = core.validate_inside(chart)
        widths = core.box[:, 1] - core.box[:, 0]
        pad = np.minimum(0.5 * widths, 0.9 * gap)
        outer = np.stack([core.box[:, 0] - pad, core.box[:, 1] + pad], axis=-1)
        bumps.append((core.chart_id, make_box_bump(core.box, outer)))

    def total(eval_chart, x):
        acc = None
        for cid, b in bumps:
            y = x
            if cid != eval_chart:
                y = atlas.transition_handle(eval_chart, cid).eval_fn(x)
            acc = b.eval_fn(y) if acc is None else acc + b.eval_fn(y)
        return acc

    def member_value(b, cid, x):
        value, t = b.eval_fn(x), total(cid, x)
        # where every bump is 0 the member is 0, not 0 * (1/0)
        return value * np.divide(1.0, t, out=np.zeros_like(t), where=t > 0.0)

    members = []
    for cid, b in bumps:
        member = make_handle(
            lambda x, b=b, cid=cid: member_value(b, cid, x),
            atlas.dim, 1, name="partition-member",
        )
        members.append(PartitionMember(cid, member, b.support_box))

    # cover check: every sampled core point must see positive bump mass
    for core in cores:
        pts = core.sample_points()
        if np.any(total(core.chart_id, pts) <= 1e-12):
            raise CoverGap("sampled core point not covered by any bump")
        s = sum(
            (m.handle(pts) if m.chart_id == core.chart_id else
             m.handle(atlas.to_chart(pts, core.chart_id, m.chart_id)))
            for m in members
        )
        if float(np.max(np.abs(s - 1.0))) > _INVARIANT_TOL:
            raise CoverGap("partition does not sum to 1 on the covered region")
    return members


# ---------------------------------------------------------------------------
# test banks


@dataclass
class DensityTest:
    """Compactly supported one-density in a fixed chart: a smooth
    coefficient function against which nets are integrated."""

    chart_id: str
    handle: SmoothMapHandle
    support_box: np.ndarray
    id: str = ""


def default_densities():
    """The two densities of the built-in association checks on the line
    chart ``main``: bumps centred at 0 and 0.15, ids ``nu0`` and ``nu1``."""
    return [
        DensityTest("main", make_bump(np.zeros(1), 0.05, 0.5),
                    np.array([[-0.5, 0.5]]), "nu0"),
        DensityTest("main", make_bump(np.array([0.15]), 0.1, 0.4),
                    np.array([[-0.25, 0.55]]), "nu1"),
    ]


@dataclass
class TestBank:
    """The scalar tests of a bank, held as values, not handles.

    ``labels`` names the tests in row order: ``cutoff`` (the ``plateau``
    box bump), ``x{i}*cutoff`` per chart coordinate i, then the radial
    bumps ``bump-big-*`` and ``bump-small-*``, one row of ``centers`` and
    of the squared radii columns ``r0_sq`` (inner) and ``r1_sq`` (outer)
    each.  ``eval(y)`` returns all tests at the points ``y`` (..., n) as
    one (n_tests, ...) array: one plateau evaluation, its products with
    the coordinates, and one ``_radial_value`` call for all bumps.
    """

    labels: list
    plateau: SmoothMapHandle
    centers: np.ndarray
    r0_sq: np.ndarray
    r1_sq: np.ndarray

    def __len__(self):
        return len(self.labels)

    def eval(self, y):
        cut = self.plateau.eval_fn(y)
        lead = (len(self.centers),) + (1,) * (y.ndim - 1)
        bumps = _radial_value(
            y, self.centers.reshape(lead + y.shape[-1:]),
            self.r0_sq.reshape(lead), self.r1_sq.reshape(lead),
        )
        return np.concatenate(
            [np.moveaxis(cut, -1, 0), np.moveaxis(cut * y, -1, 0), bumps]
        )


_BANK_SIZE = 16


def _lattice(box, count):
    """Up to ``count`` well-separated points inside the box."""
    n = box.shape[0]
    per_axis = max(2, math.ceil(count ** (1.0 / n)))
    axes = [
        np.linspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), per_axis)
        for lo, hi in box
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    stride = max(1, len(pts) // count)
    return pts[::stride][:count]


def default_test_bank(atlas: Atlas, region: CompactSet) -> TestBank:
    """Finite stand-in for "all compactly supported smooth functions" near
    ``region``, a compact box inside one chart of ``atlas``.

    Contents: per-coordinate cutoff-times-coordinate functions whose cutoff
    is 1 on the whole region (so differences of nets pass through raw), and
    bumps at two scales with separated centers; _BANK_SIZE tests in low
    dimension.  The bank size is reported by callers in every verdict that
    quantifies over it.
    """
    chart = atlas.chart(region.chart_id)
    gap = region.validate_inside(chart)
    box = region.box
    scale = float(np.max(box[:, 1] - box[:, 0]))
    pad = min(0.45 * gap, 0.25 * scale)
    plateau = make_box_bump(
        np.stack([box[:, 0] - pad * 0.5, box[:, 1] + pad * 0.5], axis=-1),
        np.stack([box[:, 0] - pad, box[:, 1] + pad], axis=-1),
    )
    labels = ["cutoff"] + [f"x{i}*cutoff" for i in range(atlas.dim)]

    remaining = max(_BANK_SIZE - len(labels), 2)
    sizes = (("big", math.ceil(remaining / 2)), ("small", remaining // 2))
    labels += [f"bump-{size}-{j}" for size, count in sizes for j in range(count)]
    centers = np.vstack([_lattice(box, count) for _, count in sizes])
    r_big = min(0.35 * scale, 0.9 * gap)
    radii = [r_big] * sizes[0][1] + [r_big / 3.0] * sizes[1][1]
    r1 = np.array(radii)[:, None]
    if np.any(centers - r1 < chart.box[:, 0]) or np.any(centers + r1 > chart.box[:, 1]):
        raise BallEscapesChart("outer ball does not fit inside the chart box")
    # Python's float pow, as the bump handles square their radii
    r0_sq = np.array([[float(0.5 * r) ** 2] for r in radii])
    r1_sq = np.array([[float(r) ** 2] for r in radii])
    return TestBank(labels, plateau, centers, r0_sq, r1_sq)
