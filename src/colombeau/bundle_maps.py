"""Generalized bundle homomorphisms, hybrid nets, and their checkers.

Both kinds are one :class:`FiberNet` stored in local form: one base net
between the base manifolds plus one net of fiber values, written over the
base net's source chart in one target vb-chart.
A homomorphism maps a vector bundle into a vector bundle and carries fiber
matrices of shape ``(m_out, m_in)``; a hybrid net maps a manifold into a
vector bundle and carries fiber vectors of shape ``(m_out,)``.  Generalized
sections are hybrid nets whose base is the identity.  The projection
identity (bundle projection after the net equals the base map after the
projection) then holds by construction and is never tested numerically.

Fiber norms use the operator norm induced by the max norm (largest
absolute row sum), a fiber vector counting as a one-column matrix;
derivative curves of fiber entries use the entrywise max, an equivalent
norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .asymptotics import (
    MODERATE,
    NEGLIGIBLE,
    NEITHER,
    AsymptoticVerdict,
    EpsGrid,
    estimate_growth_order,
    negligible_to_resolution,
)
from .errors import (
    AlignmentError,
    AtlasMismatch,
    ConfigError,
    DimensionMismatch,
    InconsistentRoutes,
    NotCBounded,
    NotModerate,
    OutsideDomain,
)
from . import geometry
from .geometry import (
    CompactSet,
    VBAtlas,
    box_contains,
    partition_of_unity,
    sample_box,
    trivial_bundle,
)
from .manifold_maps import (
    GeneralizedManifoldPoint,
    ManifoldNet,
    _argmax_point,
    _base_gap,
    _check_points,
    _colocated_masks,
    _combine_verdicts,
    _distance_curve,
    _sup_abs,
    _sup_curve,
    _sup_diff,
    _witness_union,
    check_cbounded,
    check_equivalent,
    check_moderate,
    compose,
    identity_map,
    point_distance,
)
from .nets import Net, fd_step, net_from_function


def opnorm_max(M) -> np.ndarray:
    """Operator norm induced by the max norm: largest absolute row sum."""
    M = np.asarray(M, dtype=float)
    return np.max(np.sum(np.abs(M), axis=-1), axis=-1)


def matrix_net(fn, dim_in, shape, box=None, label="") -> Net:
    """Net of fiber matrices (or vectors) from ``fn(eps, x) -> (..., *shape)``.

    Stored flattened so the scalar net machinery applies; ``fiber_shape``
    on the result records how to fold values back.
    """
    shape = tuple(int(s) for s in shape)
    size = int(np.prod(shape))

    def flat_fn(eps, x):
        vals = np.asarray(fn(eps, x), dtype=float)
        return vals.reshape(x.shape[:-1] + (size,))

    net = net_from_function(flat_fn, dim_in, size, box=box, label=label)
    net.fiber_shape = shape
    return net


def fiber_values(net: Net, eps, x) -> np.ndarray:
    """Evaluate a matrix net and fold the flat output back to fiber shape."""
    x = np.asarray(x, dtype=float)
    flat = net.at(eps)(x)
    return flat.reshape(x.shape[:-1] + net.fiber_shape)


def _as_matrix(vals, shape) -> np.ndarray:
    """Fiber values as matrices: a fiber vector becomes one column."""
    return vals if len(shape) == 2 else vals[..., None]


# ---------------------------------------------------------------------------
# fiber nets: homomorphisms and hybrids


@dataclass
class FiberNet:
    """Net into a vector bundle in local form: base net plus fiber net.

    ``fiber`` is a :func:`matrix_net` over the base net's source chart,
    with values in the target vb-chart ``chart``.  With a :class:`VBAtlas`
    as ``source`` the net is a bundle homomorphism and its fibers are
    ``(m_out, m_in)`` matrices; with a manifold atlas as ``source`` it is a
    hybrid net and its fibers are ``(m_out,)`` vectors.
    """

    source: object
    target: VBAtlas
    base_net: ManifoldNet
    chart: str
    fiber: Net
    label: str = ""

    def __post_init__(self):
        m_out = self.target.fiber_dim
        if isinstance(self.source, VBAtlas):
            manifold, shape = self.source.base, (m_out, self.source.fiber_dim)
        else:
            manifold, shape = self.source, (m_out,)
        base = self.base_net
        if base.source is not manifold or base.target is not self.target.base:
            raise AtlasMismatch("base net does not map between the bundles' base atlases")
        if self.chart not in self.target.vb_chart_ids:
            raise AtlasMismatch(f"fiber net written in unknown vb-chart {self.chart!r}")
        if self.fiber.fiber_shape != shape:
            raise DimensionMismatch(
                f"fiber net has shape {self.fiber.fiber_shape}, bundle expects {shape}"
            )
        if self.fiber.dim_in != manifold.dim:
            raise DimensionMismatch("fiber net domain dim != base dim")

    def fiber_for(self, src_chart: str):
        """(target vb-chart, fiber net) for coordinates in ``src_chart``."""
        self.base_net._own_chart(src_chart)
        return self.chart, self.fiber

    def fiber_matrix(self, eps: float, x, src_chart: Optional[str] = None):
        """(target vb-chart, fiber values at x): matrices or vectors."""
        self.base_net._own_chart(src_chart)
        return self.chart, fiber_values(self.fiber, eps, x)

    def apply(self, eps: float, x, xi=None, src_chart: Optional[str] = None):
        """Full map at x: (target chart, base image, fiber value), the
        fiber matrix applied to ``xi`` when one is given."""
        y = self.base_net.image_in(eps, x, self.chart, src_chart)
        _, F = self.fiber_matrix(eps, np.asarray(x, dtype=float))
        if xi is not None:
            F = np.einsum("...ij,...j->...i", F, np.asarray(xi, dtype=float))
        return self.chart, y, F


def single_chart_hom(
    source: VBAtlas,
    target: VBAtlas,
    base: ManifoldNet,
    matrix_fn,
    tgt_chart="main",
    label="",
) -> FiberNet:
    """Hom over ``base`` whose fiber matrices ``matrix_fn(eps, x)`` are
    written over the base's source chart, in the vb-chart ``tgt_chart``."""
    m = matrix_net(
        matrix_fn,
        source.base.dim,
        (target.fiber_dim, source.fiber_dim),
        box=base.source.chart(base.src_chart).box,
        label=label,
    )
    return FiberNet(source, target, base, tgt_chart, m, label)


def identity_hom(vb: VBAtlas, chart="main", label="id") -> FiberNet:
    base = identity_map(vb.base, chart, label=label)
    eye = np.eye(vb.fiber_dim)

    def mat(e, x):
        return np.broadcast_to(eye, x.shape[:-1] + eye.shape)

    return single_chart_hom(vb, vb, base, mat, chart, label=label)


def tangent_map(u: ManifoldNet, label="") -> FiberNet:
    """The hom net of Jacobians of u's chart representation."""
    source = trivial_bundle(u.source, u.source.dim)
    target = trivial_bundle(u.target, u.target.dim)

    def mat(e, x):
        return u.net.at(e).jacobian(x, step=fd_step(e))

    fiber = matrix_net(
        mat, u.source.dim, (u.target.dim, u.source.dim),
        box=u.net.box, label=f"D({u.net.label or 'net'})",
    )
    return FiberNet(source, target, u, u.tgt_chart, fiber, label or f"T({u.label})")


def single_chart_hybrid(
    source,
    target: VBAtlas,
    base: ManifoldNet,
    vector_fn,
    tgt_chart="main",
    label="",
) -> FiberNet:
    """Hybrid over ``base`` whose fiber vectors ``vector_fn(eps, x)`` are
    written over the base's source chart, in the vb-chart ``tgt_chart``."""
    v = matrix_net(
        vector_fn,
        source.dim,
        (target.fiber_dim,),
        box=base.source.chart(base.src_chart).box,
        label=label,
    )
    return FiberNet(source, target, base, tgt_chart, v, label)


def section_net(vb: VBAtlas, vector_fn, chart="main", label="") -> FiberNet:
    """Generalized section: hybrid net over the identity base."""
    base = identity_map(vb.base, chart, label=f"id[{label}]")
    return single_chart_hybrid(vb.base, vb, base, vector_fn, chart, label)


# ---------------------------------------------------------------------------
# vb generalized points


@dataclass
class VBGeneralizedPoint:
    """eps-parametrized bundle point: base point plus fiber vector."""

    at_fn: Callable
    support: CompactSet
    label: str = ""

    def at(self, eps: float):
        out = self.at_fn(eps)
        if len(out) == 3:
            cid, x, xi = out
        else:
            x, xi = out
            cid = self.support.chart_id
        return cid, np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(
            np.asarray(xi, dtype=float)
        )

    def check(self, grid: Optional[EpsGrid] = None) -> AsymptoticVerdict:
        """Base stays in its support; fiber norm classifies moderate."""
        grid = grid or EpsGrid.default()
        curve = []
        for eps in grid:
            cid, x, xi = self.at(eps)
            if cid == self.support.chart_id and not box_contains(
                self.support.box, x, slack=1e-9
            ):
                raise OutsideDomain(
                    f"vb point base leaves its support at eps={eps}"
                )
            curve.append(float(np.max(np.abs(xi))))
        verdict = estimate_growth_order(curve, grid)
        if verdict.classification == NEITHER:
            raise NotModerate("fiber norm of the vb point is not moderate")
        return verdict


def constant_vb_point(support: CompactSet, x, xi, label="") -> VBGeneralizedPoint:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return VBGeneralizedPoint(lambda eps: (x, xi), support, label)


def vb_points_equivalent(
    vb: VBAtlas,
    p: VBGeneralizedPoint,
    q: VBGeneralizedPoint,
    grid: Optional[EpsGrid] = None,
) -> bool:
    """Base distance negligible and, where the bases co-locate, fiber
    difference negligible."""
    grid = grid or EpsGrid.default()
    base_curve, fiber_curve = [], []
    for eps in grid:
        cp, xp, fp = p.at(eps)
        cq, xq, fq = q.at(eps)
        if cp != cq:
            fq = vb.fiber_transition(cq, cp, xq) @ fq
        base_curve.append(point_distance(vb.base, cp, xp, cq, xq))
        fiber_curve.append(_sup_diff(fp, fq))
    return negligible_to_resolution(base_curve, grid) and negligible_to_resolution(
        fiber_curve, grid
    )


def vb_point_insert(u: FiberNet, e: VBGeneralizedPoint) -> VBGeneralizedPoint:
    """Apply the hom slicewise to a bundle point."""
    cb = check_cbounded(u.base_net, e.support)
    if not cb.ok:
        raise NotCBounded("point insertion needs a c-bounded base net")

    def at(eps):
        cid, x, xi = e.at(eps)
        tgt, y, eta = u.apply(eps, x[None, :], xi[None, :], cid)
        return tgt, y[0], eta[0]

    return VBGeneralizedPoint(at, cb.witness, label=f"{u.label}({e.label})")


# ---------------------------------------------------------------------------
# moderateness and equivalence


@dataclass
class VBModerateReport:
    verdict: AsymptoticVerdict
    base_report: object
    fiber_verdicts: list
    bank_verdict: AsymptoticVerdict
    witness: Optional[CompactSet]

    def __bool__(self):
        return self.verdict.classification in (MODERATE, NEGLIGIBLE)


def _fiber_step(eps, k):
    # k-th central differences of O(1) fiber entries drown in roundoff
    # once the step drops below eps_mach^(1/(k+2)); the eps-scaled step
    # stays in charge above that line
    h = fd_step(eps)
    if k >= 2:
        h = max(h, float(np.finfo(float).eps) ** (1.0 / (k + 2)))
    return h


def _fiber_cutoff(atlas, witness: CompactSet, pts, src):
    """Cutoff of the compactly supported test homs, a test hom being the
    cutoff at the base image times the chart trivialization.

    The cutoff is a bump centred on the witness box, 1 on a ball around it
    and supported inside the witness chart of ``atlas``.  Returns
    ``(base_net, eps) -> cutoff`` at the base images of ``pts``."""
    chart = atlas.chart(witness.chart_id)
    gap = witness.validate_inside(chart)
    box = witness.box
    scale = float(np.max(box[:, 1] - box[:, 0]))
    pad = min(0.45 * gap, 0.25 * scale)
    r_out = min(0.5 * scale + pad, 0.9 * gap + 0.5 * scale)
    center = 0.5 * (box[:, 0] + box[:, 1])
    bump = geometry.make_bump(center, 0.6 * r_out, r_out, box=chart.box)

    def at_base(base_net, eps):
        return bump(base_net.image_in(eps, pts, witness.chart_id, src))[..., 0]

    return at_base


def _fiber_moderate(u: FiberNet, L, k_max, grid) -> VBModerateReport:
    """Base moderateness plus fiber classification.

    The fiber runs two routes: jets of the raw chart fibers, and the
    order-0 norm of the fiber localized by the compactly supported test
    homs (cutoff at the base image times the fiber).  The combined verdict
    is the worst of base and fiber.
    """
    grid = grid or EpsGrid.default()
    base_report = check_moderate(u.base_net, L, k_max=k_max, grid=grid)
    witness = base_report.witness
    pts = _check_points(L)
    src = L.chart_id
    net = u.fiber

    # chart route: per order k, sup over sampled L of entrywise fiber jets
    fiber_verdicts = []
    for k in range(k_max + 1):
        curve = _sup_curve(
            grid, k, pts, lambda eps: (net.at(eps),),
            step=lambda eps: _fiber_step(eps, k),
        )
        fiber_verdicts.append((k, estimate_growth_order(curve, grid)))

    cutoff = _fiber_cutoff(u.target.base, witness, pts, src)
    curve = []
    for eps in grid:
        chi = cutoff(u.base_net, eps)
        M = _as_matrix(fiber_values(net, eps, pts), net.fiber_shape)
        curve.append(_sup_abs(chi * opnorm_max(M)))
    bank_verdict = estimate_growth_order(curve, grid)

    verdict = _combine_verdicts(
        [base_report.verdict]
        + [v for _, v in fiber_verdicts]
        + [bank_verdict]
    )
    return VBModerateReport(verdict, base_report, fiber_verdicts, bank_verdict, witness)


def check_vb_moderate(
    u: FiberNet,
    L: CompactSet,
    k_max: int = 2,
    grid: Optional[EpsGrid] = None,
) -> VBModerateReport:
    """Moderateness of a bundle hom: base plus fiber matrices."""
    return _fiber_moderate(u, L, k_max, grid)


def check_hybrid_moderate(
    u: FiberNet,
    L: CompactSet,
    k_max: int = 2,
    grid: Optional[EpsGrid] = None,
) -> VBModerateReport:
    """Moderateness of a hybrid net: base plus fiber vectors."""
    return _fiber_moderate(u, L, k_max, grid)


@dataclass
class VBEquivalenceReport:
    equivalent: bool
    base_report: object
    route_chart: bool
    route_bank: bool
    fiber_vacuous: bool = False
    diagnostics: dict = field(default_factory=dict)

    def __bool__(self):
        return self.equivalent


def _fiber_equivalent(
    u: FiberNet, v: FiberNet, L, grid, derivative_order
) -> VBEquivalenceReport:
    """Base equivalence plus order-0 fiber difference negligibility.

    The fiber difference runs a chart route (fiber differences where both
    base images sit in the shared witness) and a test-hom route (cutoff
    times fiber differences); the routes must agree.  Fiber jets up to
    ``derivative_order`` extend the chart route; the verdict must not
    depend on it.
    """
    if derivative_order < 0:
        raise ConfigError(f"derivative_order must be >= 0, got {derivative_order}")
    grid = grid or EpsGrid.default()
    mu = _fiber_moderate(u, L, k_max=2, grid=grid)
    mv = _fiber_moderate(v, L, k_max=2, grid=grid)
    if not (bool(mu) and bool(mv)):
        raise NotModerate("fiber equivalence needs both nets moderate")

    base_report = check_equivalent(u.base_net, v.base_net, L, grid=grid)
    witness = _witness_union(mu.witness, mv.witness)
    pts = _check_points(L)
    src = L.chart_id
    net_u, net_v = u.fiber, v.fiber

    # chart route: fiber differences masked to co-located base images
    masks = _colocated_masks(u.base_net, v.base_net, pts, src, witness.box, grid)
    vacuous = not any(np.any(m) for m in masks.values())
    route_chart = all([
        negligible_to_resolution(_sup_curve(
            grid, k, pts, lambda eps: (net_u.at(eps), net_v.at(eps)),
            mask=masks.get, step=lambda eps: _fiber_step(eps, k), diff=_sup_diff,
        ), grid)
        for k in range(derivative_order + 1)
    ])

    cutoff = _fiber_cutoff(u.target.base, witness, pts, src)
    fiber_axes = (1,) * len(net_u.fiber_shape)
    curve = []
    for eps in grid:
        chi_u = cutoff(u.base_net, eps)
        chi_v = cutoff(v.base_net, eps)
        Fu = fiber_values(net_u, eps, pts)
        Fv = fiber_values(net_v, eps, pts)
        curve.append(_sup_diff(
            chi_u.reshape(chi_u.shape + fiber_axes) * Fu,
            chi_v.reshape(chi_v.shape + fiber_axes) * Fv,
        ))
    route_bank = negligible_to_resolution(curve, grid)

    diagnostics = {"grid": grid, "derivative_order": derivative_order}
    if vacuous:
        # bases never co-locate on the witness; only the base verdict is
        # meaningful and the fiber test is flagged, not failed
        return VBEquivalenceReport(
            base_report.equivalent, base_report, True, route_bank, True, diagnostics
        )
    if route_chart != route_bank:
        raise InconsistentRoutes(
            f"fiber routes disagree: chart={route_chart}, bank={route_bank} "
            f"for ({u.label!r}, {v.label!r})"
        )
    equivalent = base_report.equivalent and route_chart
    return VBEquivalenceReport(
        equivalent, base_report, route_chart, route_bank, False, diagnostics
    )


def check_vb_equivalent(
    u: FiberNet,
    v: FiberNet,
    L: CompactSet,
    grid: Optional[EpsGrid] = None,
    derivative_order: int = 0,
) -> VBEquivalenceReport:
    """Equivalence of two bundle homs: base plus fiber matrices."""
    return _fiber_equivalent(u, v, L, grid, derivative_order)


def check_hybrid_equivalent(
    u: FiberNet,
    v: FiberNet,
    L: CompactSet,
    grid: Optional[EpsGrid] = None,
    derivative_order: int = 0,
) -> VBEquivalenceReport:
    """Equivalence of two hybrid nets: base plus fiber vectors."""
    return _fiber_equivalent(u, v, L, grid, derivative_order)


# ---------------------------------------------------------------------------
# composition


def _quick_moderate_guard(net: Net, box, label: str):
    """Coarse order-0 check that a freshly composed fiber net is usable."""
    if box is None:
        return
    box = np.asarray(box, dtype=float)
    mid = 0.5 * (box[:, :1] + box[:, 1:])
    pts = sample_box(mid + 0.8 * (box - mid), 4)
    grid = EpsGrid.dyadic(4, 9)
    curve = _sup_curve(grid, 0, pts, lambda eps: (net.at(eps),))
    verdict = estimate_growth_order(curve, grid)
    if verdict.classification == NEITHER:
        raise NotModerate(f"composed fiber net {label!r} fails moderateness")


def compose_homs(u: FiberNet, w: FiberNet, label="") -> FiberNet:
    """u (a hom or a hybrid) followed by the hom w: u's fiber matrices or
    vectors multiply through w's matrices at u's base image."""
    if u.target is not w.source and u.target.fiber_dim != w.source.fiber_dim:
        raise AtlasMismatch("composition needs matching middle bundle")
    base = compose(u.base_net, w.base_net, label=label)
    if u.chart != w.base_net.src_chart:
        raise AtlasMismatch("no chart pair chains through the middle bundle")
    net_u, net_w = u.fiber, w.fiber

    def fib(e, x):
        F = _as_matrix(fiber_values(net_u, e, x), net_u.fiber_shape)
        return fiber_values(net_w, e, u.base_net.image_in(e, x, u.chart)) @ F

    fiber = matrix_net(
        fib,
        net_u.dim_in,
        (w.target.fiber_dim,) + net_u.fiber_shape[1:],
        box=net_u.box,
        label=f"{net_w.label}*{net_u.label}",
    )
    out = FiberNet(
        u.source, w.target, base, w.chart, fiber, label or f"{w.label}o{u.label}"
    )
    _quick_moderate_guard(fiber, fiber.box, fiber.label)
    return out


def compose_hybrid(u: ManifoldNet, v: FiberNet, label="") -> FiberNet:
    """Hybrid after a manifold net: fiber part pulled back along u.  The
    base composition rejects a middle atlas other than ``v.source``."""
    base = compose(u, v.base_net, label=label)
    net_v = v.fiber

    def vec(e, x):
        return fiber_values(net_v, e, u.image_in(e, x, v.base_net.src_chart))

    fiber = matrix_net(
        vec, u.source.dim, (v.target.fiber_dim,),
        box=u.net.box, label=f"{net_v.label}o{u.label}",
    )
    return FiberNet(
        u.source, v.target, base, v.chart, fiber, label or f"{v.label}o{u.label}"
    )


# ---------------------------------------------------------------------------
# hybrid point values


def hybrid_point_value(
    u: FiberNet, p: GeneralizedManifoldPoint
) -> VBGeneralizedPoint:
    cb = check_cbounded(u.base_net, p.support)
    if not cb.ok:
        raise NotCBounded("hybrid point value needs a c-bounded base net")

    def at(eps):
        cid, x = p.at(eps)
        tgt, y, vec = u.apply(eps, x[None, :], src_chart=cid)
        return tgt, y[0], vec[0]

    return VBGeneralizedPoint(at, cb.witness, label=f"{u.label}({p.label})")


def check_hybrid_pointvalues(
    u: FiberNet,
    v: FiberNet,
    sample_points: Sequence[GeneralizedManifoldPoint],
    L: Optional[CompactSet] = None,
    grid: Optional[EpsGrid] = None,
) -> tuple[bool, dict]:
    """Values-at-points characterization of hybrid equality.

    When L is given, a point chasing the worst base-plus-fiber gap per eps
    is appended to the sample."""
    grid = grid or EpsGrid.default()
    points = list(sample_points)
    if L is not None:
        points.append(_adversarial_hybrid_point(u, v, L, grid))
    failed = []
    for p in points:
        pu = hybrid_point_value(u, p)
        pv = hybrid_point_value(v, p)
        if not vb_points_equivalent(u.target, pu, pv, grid):
            failed.append(p)
    return not failed, {"failed_points": failed, "tested": len(points)}


def _adversarial_hybrid_point(u, v, L, grid) -> GeneralizedManifoldPoint:
    """Point chasing the per-eps worst base-plus-fiber gap over sampled L."""
    pts = _check_points(L)
    src = L.chart_id
    net_u, net_v = u.fiber, v.fiber
    gaps = {}
    for eps in grid:
        su = fiber_values(net_u, eps, pts)
        sv = fiber_values(net_v, eps, pts)
        gap = _base_gap(u.base_net, v.base_net, pts, src, eps) + np.max(
            np.abs(su - sv).reshape(len(pts), -1), axis=-1
        )
        gaps[eps] = np.where(np.isfinite(gap), gap, np.inf)
    return _argmax_point(gaps, pts, L)


# ---------------------------------------------------------------------------
# representative alignment


@dataclass
class AlignmentInfo:
    eps_threshold: float
    radius: float
    region: CompactSet
    passthrough: bool = False


def _alignment_radius(atlas, witness: CompactSet) -> float:
    """Default ball radius: half the minimal chart-overlap width when the
    atlas declares transitions, else half the smallest gap between the
    witness box and its chart boundary."""
    widths = []
    for (a, b) in getattr(atlas, "transitions", {}):
        pts = sample_box(atlas.chart(a).box, 33 if atlas.dim == 1 else 9)
        try:
            ys = atlas.to_chart(pts, a, b)
        except AtlasMismatch:
            continue
        bbox = atlas.chart(b).box
        inside = np.all((ys >= bbox[:, 0]) & (ys <= bbox[:, 1]), axis=-1)
        if np.count_nonzero(inside) < 2:
            continue
        span = pts[inside]
        widths.append(float(np.min(span.max(axis=0) - span.min(axis=0))))
    if widths:
        r = 0.5 * min(widths)
        if r <= 0:
            raise AlignmentError("chart overlaps are too thin for a ball cover")
        return r
    chart = atlas.chart(witness.chart_id)
    gaps = np.minimum(
        witness.box[:, 0] - chart.box[:, 0], chart.box[:, 1] - witness.box[:, 1]
    )
    r = 0.5 * float(np.min(gaps))
    if r <= 0:
        raise AlignmentError("witness region touches the chart boundary")
    return r


def align_representative(
    v: FiberNet,
    u_rep: ManifoldNet,
    L: CompactSet,
    grid: Optional[EpsGrid] = None,
    radius: Optional[float] = None,
    cores: Optional[Sequence[CompactSet]] = None,
) -> FiberNet:
    """Rebase a hom or hybrid net so its induced base map IS ``u_rep``.

    Each fiber value is transported from the old base image to the new one
    through the vb-chart cover of the working region (``cores`` overrides
    the default single-piece cover), weighted by a partition of unity.
    Below the recorded eps threshold the output's base evaluations are
    bitwise those of ``u_rep``; above it the original fiber values pass
    through unchanged and the report says so.
    """
    grid = grid or EpsGrid.default()
    target = v.target
    atlas = target.base

    cb_v = check_cbounded(v.base_net, L, grid)
    cb_u = check_cbounded(u_rep, L, grid)
    if not (cb_v.ok and cb_u.ok):
        raise NotCBounded("alignment needs both base nets c-bounded on L")
    region = _witness_union(cb_v.witness, cb_u.witness)
    r = radius if radius is not None else _alignment_radius(atlas, region)

    # threshold: all smaller grid eps keep the two base images r-close
    pts = _check_points(L)
    src = L.chart_id
    ok_from = None
    for i, d in enumerate(_distance_curve(u_rep, v.base_net, pts, src, grid)):
        if d < r:
            if ok_from is None:
                ok_from = i
        else:
            ok_from = None
    if ok_from is None:
        raise AlignmentError(
            f"sup distance never drops below the alignment radius {r:.3g} "
            "on the tested grid"
        )
    eps_threshold = grid.values[ok_from]

    members = partition_of_unity(atlas, list(cores) if cores else [region])
    t_in, old_net = v.chart, v.fiber
    shape = old_net.fiber_shape
    trivial = (
        len(members) == 1
        and members[0].chart_id == t_in
        and len(target.vb_chart_ids) == 1
    )

    def new_fiber(eps, x):
        old = fiber_values(old_net, eps, x)
        if trivial or eps > eps_threshold:
            # one trivialization covers everything: transport between the
            # old and new base points is the identity, fiber passes through
            return old
        y_new = u_rep.image_in(eps, x, t_in, src)
        y_old = v.base_net.image_in(eps, x, t_in, src)
        old = _as_matrix(old, shape)
        acc = np.zeros_like(old)
        for member in members:
            y_new_j = (
                y_new if member.chart_id == t_in
                else atlas.to_chart(y_new, t_in, member.chart_id)
            )
            chi = member.handle(y_new_j)[..., 0]
            into = target.fiber_transition(t_in, member.chart_id, y_old)
            back = target.fiber_transition(member.chart_id, t_in, y_new_j)
            moved = np.einsum("...ij,...jk,...kl->...il", back, into, old)
            acc = acc + chi[..., None, None] * moved
        return acc

    aligned = matrix_net(
        new_fiber, old_net.dim_in, shape, box=old_net.box,
        label=f"aligned({old_net.label})",
    )
    info = AlignmentInfo(
        eps_threshold, r, region, passthrough=eps_threshold < grid.values[0]
    )
    out = FiberNet(v.source, target, u_rep, t_in, aligned,
                   label=f"aligned({v.label})")
    out.alignment = info
    return out


def hom_u_add(v1: FiberNet, v2: FiberNet, u_rep: ManifoldNet, L: CompactSet,
              grid: Optional[EpsGrid] = None) -> FiberNet:
    """Fiberwise sum after aligning both homs to the shared base."""
    a1 = align_representative(v1, u_rep, L, grid)
    a2 = align_representative(v2, u_rep, L, grid)
    n1, n2 = a1.fiber, a2.fiber
    if a1.chart != a2.chart:
        raise AlignmentError("aligned homs land in different vb charts")

    def mat(e, x):
        return fiber_values(n1, e, x) + fiber_values(n2, e, x)

    summed = matrix_net(mat, n1.dim_in, n1.fiber_shape, box=n1.box,
                        label=f"{v1.label}+{v2.label}")
    out = FiberNet(v1.source, v1.target, u_rep, a1.chart, summed,
                   label=f"{v1.label}+{v2.label}")
    out.alignment = a1.alignment
    return out


def hom_u_scale(c: float, v: FiberNet, u_rep: Optional[ManifoldNet] = None,
                L: Optional[CompactSet] = None,
                grid: Optional[EpsGrid] = None) -> FiberNet:
    """Fiberwise scaling; aligns first when a shared base is requested."""
    if u_rep is not None:
        if L is None:
            raise AlignmentError("scaling with alignment needs the working region")
        v = align_representative(v, u_rep, L, grid)
    c = float(c)
    net = v.fiber

    def mat(e, x):
        return c * fiber_values(net, e, x)

    fiber = matrix_net(mat, net.dim_in, net.fiber_shape, box=net.box,
                       label=f"{c}*{net.label}")
    out = FiberNet(v.source, v.target, v.base_net, v.chart, fiber, label=f"{c}*{v.label}")
    if hasattr(v, "alignment"):
        out.alignment = v.alignment
    return out
