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

Fiber values and their jets are measured in the entrywise max norm,
which is equivalent to every operator norm on matrices of a fixed shape.
Equivalence decides the base first: the fiber comparison presumes that the
two base nets agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

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
    NotModerate,
)
from . import geometry
from .geometry import (
    CompactSet,
    VBAtlas,
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
    _combine_verdicts,
    _checked_stack,
    _insertion_witness,
    _memo,
    _one_target,
    _pair_curves,
    _pair_witness,
    _partner_memo,
    _stack_points,
    _sup_curve,
    _sup_diff,
    check_equivalent,
    check_moderate,
    compose,
    identity_map,
    point_distance,
)
from .nets import Net, fd_step, make_handle, net_from_function


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
    return net.at(eps)(x).reshape(np.shape(x)[:-1] + net.fiber_shape)


def _as_matrix(vals, shape) -> np.ndarray:
    """Fiber values as matrices: a fiber vector becomes one column."""
    return vals if len(shape) == 2 else vals[..., None]


def _fibers_on(net: Net, rows, x) -> np.ndarray:
    """A matrix net's fiber values at stacked points, one row per eps of ``rows``."""
    return net.at_grid(rows)(x).reshape(x.shape[:-1] + net.fiber_shape)


def _stacked_fiber_net(body, dim_in, shape, box, label) -> Net:
    """Matrix net of a fiber combinator.  ``body(rows, x)`` gives the fiber
    values at points x (..., n_eps, N, d), one row per eps of ``rows``, from
    the operands' grid handles; the grid handle is the body on the grid, the
    slice at eps its one-row case, and jets are finite differences."""
    net = matrix_net(lambda e, x: body((e,), np.atleast_2d(x)[..., None, :, :]),
                     dim_in, shape, box, label)
    size = net.dim_out  # the closure below must not hold the net
    net.grid_fn = lambda rows: make_handle(
        lambda x: body(rows, x).reshape(x.shape[:-1] + (size,)), dim_in, size)
    return net


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
    # _fiber_moderate reports (see manifold_maps._memo) and the last
    # alignment of align_representative
    _reports: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
    """The hom net of Jacobians of u's chart representation, in one stacked body."""
    source = trivial_bundle(u.source, u.source.dim)
    target = trivial_bundle(u.target, u.target.dim)

    def mat(rows, x):
        steps = np.array([fd_step(e) for e in rows]).reshape(-1, 1, 1)
        return u.net.at_grid(rows).jacobian(x, step=steps)

    fiber = _stacked_fiber_net(mat, u.source.dim, (u.target.dim, u.source.dim),
                               u.net.box, f"D({u.net.label or 'net'})")
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


class VBGeneralizedPoint(GeneralizedManifoldPoint):
    """eps-parametrized bundle point: base point plus fiber vector.  Its
    grid form adds the fiber vectors (n_eps, m) after the base coordinates;
    ``at_fn(eps)`` gives (x, xi) or (chart id, x, xi)."""

    def _row(self, v):
        return v if len(v) == 3 else (self.support.chart_id, *v)

    def check(self, grid: Optional[EpsGrid] = None) -> AsymptoticVerdict:
        """Base stays in its support; fiber norm classifies moderate."""
        grid = grid or EpsGrid.default()
        _, _, xi = self._supported_form(grid, "vb point base")
        verdict = estimate_growth_order(np.max(np.abs(xi), axis=-1).tolist(), grid)
        if verdict.classification == NEITHER:
            raise NotModerate("fiber norm of the vb point is not moderate")
        return verdict


def constant_vb_point(support: CompactSet, x, xi, label="") -> VBGeneralizedPoint:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return VBGeneralizedPoint(lambda eps: (x, xi), support, label)


def _vb_curves(vb: VBAtlas, cp, xp, fp, cq, xq, fq):
    """Row by row, the base distance and fiber difference (``_sup_diff``)
    of stacked bundle points, q's fibers moved into p's vb-charts."""
    cp, cq = (np.broadcast_to(np.asarray(c, dtype=object), xp.shape[:-1]) for c in (cp, cq))
    fq = np.array(fq, dtype=float)
    for a, b in set(zip(cp.flat, cq.flat)) - {(c, c) for c in cp.flat}:
        rows = (cp == a) & (cq == b)
        fq[rows] = (vb.fiber_transition(b, a, xq[rows]) @ fq[rows][..., None])[..., 0]
    fiber = _sup_diff(*(f.reshape(-1, f.shape[-1]) for f in (fp, fq))).reshape(fp.shape[:-1])
    return point_distance(vb.base, cp, xp, cq, xq), fiber


def vb_points_equivalent(
    vb: VBAtlas,
    p: VBGeneralizedPoint,
    q: VBGeneralizedPoint,
    grid: Optional[EpsGrid] = None,
) -> bool:
    """Base distance negligible and, where the bases co-locate, fiber
    difference negligible: both curves in one classifier stack."""
    grid = grid or EpsGrid.default()
    base, fiber = _vb_curves(vb, *p.on_grid(grid), *q.on_grid(grid))
    return all(negligible_to_resolution([base.tolist(), fiber.tolist()], grid))


def _applied(u: FiberNet, grid, x, xi=None):
    """u's base images (in its vb-chart) and fibers at stacked points x
    (n_eps, P, d), the fiber matrices applied to the vectors xi if given."""
    F = _fibers_on(u.fiber, grid, x)
    if xi is not None:
        F = np.einsum("...ij,...j->...i", F, xi)
    return u.base_net.images_in(grid, x, u.chart), F


def vb_point_insert(u: FiberNet, e: GeneralizedManifoldPoint) -> VBGeneralizedPoint:
    """Apply u slicewise to a point: a hom to a bundle point, its matrices
    applied to the fiber, or a hybrid to a manifold point.  The point goes
    into u's base net as ``point_value`` puts it (``_checked_stack``), and
    the grid form is one evaluation of u's base and fiber grid handles."""
    witness = _insertion_witness(u.base_net, e.support, EpsGrid.default())

    def on_grid(g):
        _, *parts = _checked_stack((u.base_net,), [e], g)
        y, F = _applied(u, g, *parts)
        return [u.chart] * len(g), y[:, 0], F[:, 0]

    return VBGeneralizedPoint(None, witness, f"{u.label}({e.label})", on_grid)


hybrid_point_value = vb_point_insert


# ---------------------------------------------------------------------------
# moderateness and equivalence


@dataclass
class VBModerateReport:
    verdict: AsymptoticVerdict
    base_report: object
    fiber_verdicts: list
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


def _fiber_cutoff(atlas, witness: CompactSet):
    """Cutoff of the compactly supported test homs, a test hom being the
    cutoff at the base image times the chart trivialization.

    The cutoff is a bump centred on the witness box, 1 on a ball around it
    and supported inside the witness chart of ``atlas``; it is returned as
    a handle on that chart's coordinates."""
    chart = atlas.chart(witness.chart_id)
    gap = witness.validate_inside(chart)
    box = witness.box
    scale = float(np.max(box[:, 1] - box[:, 0]))
    pad = min(0.45 * gap, 0.25 * scale)
    r_out = min(0.5 * scale + pad, 0.9 * gap + 0.5 * scale)
    center = 0.5 * (box[:, 0] + box[:, 1])
    return geometry.make_bump(center, 0.6 * r_out, r_out, box=chart.box)


def _fiber_moderate(u: FiberNet, L, k_max, grid) -> VBModerateReport:
    """Base moderateness plus fiber classification, memoized on ``u`` per
    (L, grid, k_max) as ``check_moderate`` is.

    The fiber has one row ``(k, verdict)`` per order k <= ``k_max``, from
    the sup over L of the entrywise jets of the chart fibers; the combined
    verdict is the worst of base and fiber.  The compactly supported test
    homs add nothing: a cutoff <= 1 at the base image times the fiber's
    operator norm is bounded by a constant times the order-0 row, and on
    the base's c-boundedness witness, where the cutoff is 1, it is that row
    in an equivalent norm.
    """
    return _memo(u, _fiber_moderate_report, L, grid or EpsGrid.default(), k_max)


def _fiber_moderate_report(u: FiberNet, L, grid, k_max) -> VBModerateReport:
    base_report = check_moderate(u.base_net, L, k_max=k_max, grid=grid)
    pts = _check_points(L)
    fiber = (u.fiber.at_grid(grid),)

    fiber_verdicts = list(enumerate(estimate_growth_order([
        _sup_curve(grid, k, pts, fiber, step=lambda eps: _fiber_step(eps, k))
        for k in range(k_max + 1)
    ], grid)))

    verdict = _combine_verdicts(
        [base_report.verdict] + [v for _, v in fiber_verdicts]
    )
    return VBModerateReport(verdict, base_report, fiber_verdicts, base_report.witness)


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
    """``route_chart`` and ``route_bank`` are None when the fiber routes
    did not run, because the bases are not equivalent; ``fiber_vacuous`` is
    always False."""

    equivalent: bool
    base_report: object
    route_chart: Optional[bool]
    route_bank: Optional[bool]
    fiber_vacuous: bool = False
    diagnostics: dict = field(default_factory=dict)

    def __bool__(self):
        return self.equivalent


def _fiber_equivalent(
    u: FiberNet, v: FiberNet, L, grid, derivative_order
) -> VBEquivalenceReport:
    """Base equivalence, then order-0 fiber difference negligibility.

    The base nets pass the pair gate first, and both nets must be
    moderate.  The paper's equivalence is base equivalence plus a fiber
    condition, and comparing fibers presumes that the bases agree: a pair
    over bases that are not equivalent is not equivalent, and its fiber
    routes are not run.  Over equivalent bases
    the fiber difference runs a chart route (fiber differences at every
    sample point of L) and a test-hom route (cutoff at each base image
    times the fiber differences); the routes must agree.  Fiber jets up to
    ``derivative_order`` extend the chart route; the verdict must not
    depend on it.
    """
    if derivative_order < 0:
        raise ConfigError(f"derivative_order must be >= 0, got {derivative_order}")
    grid = grid or EpsGrid.default()
    witness = _pair_witness(u.base_net, v.base_net, L, grid, "fiber equivalence")
    mu = _fiber_moderate(u, L, k_max=2, grid=grid)
    mv = _fiber_moderate(v, L, k_max=2, grid=grid)
    if not (bool(mu) and bool(mv)):
        raise NotModerate("fiber equivalence needs both nets moderate")

    base_report = check_equivalent(u.base_net, v.base_net, L, grid=grid)
    diagnostics = {"grid": grid, "derivative_order": derivative_order}
    if not base_report.equivalent:
        return VBEquivalenceReport(False, base_report, None, None, diagnostics=diagnostics)

    pts = _check_points(L)
    src = L.chart_id
    fibers = (u.fiber.at_grid(grid), v.fiber.at_grid(grid))

    *chart, route_bank = negligible_to_resolution([
        _sup_curve(grid, k, pts, fibers, step=lambda eps: _fiber_step(eps, k), diff=_sup_diff)
        for k in range(derivative_order + 1)
    ] + [_test_hom_curve(u, v, witness, pts, src, grid)], grid)
    route_chart = all(chart)

    if route_chart != route_bank:
        raise InconsistentRoutes(
            f"fiber routes disagree: chart={route_chart}, bank={route_bank} "
            f"for ({u.label!r}, {v.label!r})"
        )
    return VBEquivalenceReport(
        route_chart, base_report, route_chart, route_bank, diagnostics=diagnostics
    )


def _test_hom_curve(u: FiberNet, v: FiberNet, witness, pts, src, grid):
    """Per eps, the sup over the points of the difference of the two test
    homs: the cutoff on ``witness`` at each net's base image times its
    fiber, measured by :func:`_sup_diff`."""
    cutoff = _fiber_cutoff(u.target.base, witness)
    x = _stack_points(grid, pts)
    fiber_axes = (1,) * len(u.fiber.fiber_shape)
    tested = []
    for w in (u, v):
        chi = cutoff(w.base_net.images_in(grid, x, witness.chart_id, src))[..., 0]
        F = _fibers_on(w.fiber, grid, x)
        tested.append(chi.reshape(chi.shape + fiber_axes) * F)
    return _sup_diff(*tested).tolist()


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
    curve = _sup_curve(grid, 0, pts, (net.at_grid(grid),))
    verdict = estimate_growth_order(curve, grid)
    if verdict.classification == NEITHER:
        raise NotModerate(f"composed fiber net {label!r} fails moderateness")


def compose_homs(u: FiberNet, w: FiberNet, label="") -> FiberNet:
    """u (a hom or a hybrid) followed by the hom w, in one stacked body: u's
    fibers multiply through w's matrices at u's base image.  The middle
    bundles must be one object, or trivial bundles alike over one base."""
    a, b = u.target, w.source
    if a is not b and not (
        a.base is b.base and (a.fiber_dim, a.vb_chart_ids) == (b.fiber_dim, b.vb_chart_ids)
        and not a.fiber_transitions and not b.fiber_transitions
    ):
        raise AtlasMismatch("composition needs matching middle bundle")
    base = compose(u.base_net, w.base_net, label=label)
    if u.chart != w.base_net.src_chart:
        raise AtlasMismatch("no chart pair chains through the middle bundle")
    net_u, net_w = u.fiber, w.fiber

    def fib(rows, x):
        F = _as_matrix(_fibers_on(net_u, rows, x), net_u.fiber_shape)
        return _fibers_on(net_w, rows, u.base_net.images_in(rows, x, u.chart)) @ F

    fiber = _stacked_fiber_net(
        fib, net_u.dim_in, (w.target.fiber_dim,) + net_u.fiber_shape[1:],
        net_u.box, f"{net_w.label}*{net_u.label}",
    )
    out = FiberNet(
        u.source, w.target, base, w.chart, fiber, label or f"{w.label}o{u.label}"
    )
    _quick_moderate_guard(fiber, fiber.box, fiber.label)
    return out


def compose_hybrid(u: ManifoldNet, v: FiberNet, label="") -> FiberNet:
    """Hybrid after a manifold net, in one stacked body: fiber part pulled back
    along u.  The base composition rejects a middle atlas other than ``v.source``."""
    base = compose(u, v.base_net, label=label)
    net_v = v.fiber

    def vec(rows, x):
        return _fibers_on(net_v, rows, u.images_in(rows, x, v.base_net.src_chart))

    fiber = _stacked_fiber_net(vec, u.source.dim, (v.target.fiber_dim,), u.net.box,
                               f"{net_v.label}o{u.label}")
    return FiberNet(
        u.source, v.target, base, v.chart, fiber, label or f"{v.label}o{u.label}"
    )


# ---------------------------------------------------------------------------
# hybrid point values


def check_hybrid_pointvalues(
    u: FiberNet,
    v: FiberNet,
    sample_points: Sequence[GeneralizedManifoldPoint],
    L: Optional[CompactSet] = None,
    grid: Optional[EpsGrid] = None,
) -> tuple[bool, dict]:
    """Values-at-points characterization of hybrid equality: the base nets
    pass the pair gate's atlas check, and each point is inserted as
    ``_checked_stack`` checks it.  When L is given, a point chasing the
    worst base-plus-fiber gap per eps is appended to the sample."""
    _one_target(u.base_net, v.base_net)
    grid = grid or EpsGrid.default()
    points = list(sample_points)
    if L is not None:
        points.append(_adversarial_hybrid_point(u, v, L, grid))
    ok = negligible_to_resolution([
        c for pair in _hybrid_pointvalue_curves(u, v, points, grid) for c in pair
    ], grid) if points else ()
    failed = [p for p, base, fiber in zip(points, ok[::2], ok[1::2]) if not (base and fiber)]
    return not failed, {"failed_points": failed, "tested": len(points)}


def _hybrid_pointvalue_curves(u: FiberNet, v: FiberNet, points, grid):
    """Per point, the base distance and fiber difference curves of u's and
    v's values there, all the points through each net's grid handles once."""
    _, x = _checked_stack((u.base_net, v.base_net), points, grid, witnesses=True)
    base, fiber = _vb_curves(u.target, u.chart, *_applied(u, grid, x),
                             v.chart, *_applied(v, grid, x))
    return list(zip(base.T.tolist(), fiber.T.tolist()))


def _adversarial_hybrid_point(u, v, L, grid) -> GeneralizedManifoldPoint:
    """Point chasing the per-eps worst base-plus-fiber gap over sampled L."""
    pts = _check_points(L)
    x = _stack_points(grid, pts)
    fiber_gap = np.abs(u.fiber.at_grid(grid)(x) - v.fiber.at_grid(grid)(x))
    gap = _base_gap(u.base_net, v.base_net, pts, L.chart_id, grid) + fiber_gap.max(axis=-1)
    return _argmax_point(np.where(np.isfinite(gap), gap, np.inf), grid, pts, L)


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
    through unchanged and the report says so.  The stacked body transports
    the rows at or below the threshold, a suffix of the decreasing grid; with
    a one-piece cover in one vb-chart the old fiber passes through as it is.
    v keeps its last alignment (:func:`_partner_memo`, u_rep the partner):
    a repeated call returns the same net.
    """
    grid = grid or EpsGrid.default()
    key = (L.chart_id, L.box.tobytes(), L.resolution, grid.values, radius,
           tuple((c.chart_id, c.box.tobytes(), c.resolution) for c in cores or ()))
    return _partner_memo(v, u_rep, key, lambda: _aligned(v, u_rep, L, grid, radius, cores),
                         slot="aligned")


def _aligned(v: FiberNet, u_rep: ManifoldNet, L, grid, radius, cores) -> FiberNet:
    target = v.target
    atlas = target.base

    region = _pair_witness(v.base_net, u_rep, L, grid, "alignment")
    r = radius if radius is not None else _alignment_radius(atlas, region)

    # threshold: all smaller grid eps keep the two base images r-close
    src = L.chart_id
    x = _stack_points(grid, _check_points(L))
    ok_from = None
    for i, d in enumerate(_pair_curves(u_rep, v.base_net, src, grid, x)):
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
    # the body must not hold v, which keeps the result in its memo
    t_in, old_net, old_base = v.chart, v.fiber, v.base_net
    shape = old_net.fiber_shape
    trivial = (len(members) == 1 and members[0].chart_id == t_in
               and len(target.vb_chart_ids) == 1)

    def new_fiber(rows, x):
        # rows above the threshold pass through; the grid decreases, so the
        # transported rows are a suffix
        cut = sum(e > eps_threshold for e in rows)
        kept = _as_matrix(_fibers_on(old_net, rows, x), shape)
        if cut == len(rows):
            return kept
        low, x, old = tuple(rows)[cut:], x[..., cut:, :, :], kept[..., cut:, :, :, :]
        y_new = u_rep.images_in(low, x, t_in, src)
        y_old = old_base.images_in(low, x, t_in, src)
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
        return np.concatenate([kept[..., :cut, :, :, :], acc], axis=-4)

    label = f"aligned({old_net.label})"
    aligned = replace(old_net, label=label) if trivial else _stacked_fiber_net(
        new_fiber, old_net.dim_in, shape, old_net.box, label)
    aligned.fiber_shape = shape
    info = AlignmentInfo(
        eps_threshold, r, region, passthrough=eps_threshold < grid.values[0]
    )
    out = FiberNet(v.source, target, u_rep, t_in, aligned,
                   label=f"aligned({v.label})")
    out.alignment = info
    return out


def hom_u_add(v1: FiberNet, v2: FiberNet, u_rep: ManifoldNet, L: CompactSet,
              grid: Optional[EpsGrid] = None) -> FiberNet:
    """Fiberwise sum, in one stacked body, after aligning both homs to the shared base."""
    a1 = align_representative(v1, u_rep, L, grid)
    a2 = align_representative(v2, u_rep, L, grid)
    n1, n2 = a1.fiber, a2.fiber
    if a1.chart != a2.chart:
        raise AlignmentError("aligned homs land in different vb charts")

    def mat(rows, x):
        return _fibers_on(n1, rows, x) + _fibers_on(n2, rows, x)

    summed = _stacked_fiber_net(mat, n1.dim_in, n1.fiber_shape, n1.box,
                                f"{v1.label}+{v2.label}")
    out = FiberNet(v1.source, v1.target, u_rep, a1.chart, summed,
                   label=f"{v1.label}+{v2.label}")
    out.alignment = a1.alignment
    return out


def hom_u_scale(c: float, v: FiberNet, u_rep: Optional[ManifoldNet] = None,
                L: Optional[CompactSet] = None,
                grid: Optional[EpsGrid] = None) -> FiberNet:
    """Fiberwise scaling in one stacked body; aligns first for a shared base."""
    if u_rep is not None:
        if L is None:
            raise AlignmentError("scaling with alignment needs the working region")
        v = align_representative(v, u_rep, L, grid)
    c = float(c)
    net = v.fiber

    def mat(rows, x):
        return c * _fibers_on(net, rows, x)

    fiber = _stacked_fiber_net(mat, net.dim_in, net.fiber_shape, net.box,
                               f"{c}*{net.label}")
    out = FiberNet(v.source, v.target, v.base_net, v.chart, fiber, label=f"{c}*{v.label}")
    if hasattr(v, "alignment"):
        out.alignment = v.alignment
    return out
