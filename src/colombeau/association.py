"""Weak limits, distributional shadows, association, and mollifier embedding.

Association compares nets through integrals against compactly supported
densities, a strictly coarser lens than equivalence: negligible nets are
always associated to zero, but associated nets can differ by order one in
the sup norm.  All "tends to zero" verdicts use a quantitative proxy:
magnitudes non-increasing over the asymptotic half of the grid and a final
value under ``ASSOC_TOL``.  Borderline curves are flagged, never passed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from .asymptotics import EpsGrid
from .errors import (
    BallEscapesChart,
    ConfigError,
    DimensionMismatch,
    InconsistentRoutes,
    NonFiniteValue,
    NotCBounded,
    NotModerate,
    QuadratureError,
)
from .geometry import CompactSet, DensityTest, default_test_bank
from .manifold_maps import (
    ManifoldNet,
    _bank_difference_curves,
    _check_points,
    _coordinate_curves,
    _distance_curve,
    _witness_union,
    check_cbounded,
    check_moderate,
)
from .nets import (
    Net,
    SmoothMapHandle,
    make_handle,
    net_from_function,
)

ASSOC_TOL = 1e-3
_QUAD_TOL = 1e-10
_STAB_TOL = 1e-9


def association_grid() -> EpsGrid:
    """Default grid for association verdicts; coarser than the asymptotic
    default because every point costs a quadrature per density."""
    return EpsGrid.dyadic(2, 12)


# ---------------------------------------------------------------------------
# quadrature


def adaptive_simpson(
    fn,
    a: float,
    b: float,
    tol: float = _QUAD_TOL,
    min_width: Optional[float] = None,
    pre_split: Sequence[float] = (),
) -> float:
    """Adaptive Simpson quadrature of a vectorized scalar integrand.

    ``fn`` maps (N, 1) arrays to (N, 1) values.  Refinement stops once a
    segment's Richardson error estimate fits its share of ``tol`` or the
    segment is narrower than ``min_width``; if unresolved error remains at
    the floor the quadrature has not converged and raises.
    """
    a, b = float(a), float(b)
    if not b > a:
        return 0.0
    if min_width is None:
        min_width = (b - a) * 1e-12
    edges = [a] + sorted(float(e) for e in pre_split if a < e < b) + [b]
    lo = np.asarray(edges[:-1])
    hi = np.asarray(edges[1:])

    def feval(x):
        return np.asarray(fn(x[:, None]), dtype=float).reshape(-1)

    total = 0.0
    leftover = 0.0
    width_all = b - a
    for _ in range(64):
        if lo.size == 0:
            break
        mid = 0.5 * (lo + hi)
        lq = 0.5 * (lo + mid)
        rq = 0.5 * (mid + hi)
        vals = feval(np.concatenate([lo, lq, mid, rq, hi]))
        n = lo.size
        f0, f1, f2, f3, f4 = (vals[i * n : (i + 1) * n] for i in range(5))
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue("integrand is not finite on the support")
        h = hi - lo
        coarse = h / 6.0 * (f0 + 4.0 * f2 + f4)
        fine = h / 12.0 * (f0 + 4.0 * f1 + 2.0 * f2 + 4.0 * f3 + f4)
        err = np.abs(fine - coarse) / 15.0
        budget = tol * (h / width_all)
        done = err <= budget
        floor = h < 2.0 * min_width
        accept = done | floor
        total += float(np.sum((fine + (fine - coarse) / 15.0)[accept]))
        leftover += float(np.sum(err[floor & ~done]))
        keep = ~accept
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
    else:
        raise QuadratureError("adaptive quadrature exceeded its depth limit")
    if leftover > tol:
        raise QuadratureError(
            f"quadrature left {leftover:.2e} unresolved error at the "
            f"subdivision floor {min_width:.2e}"
        )
    return total


def weak_integral(u: Net, nu: DensityTest, eps: float) -> float:
    """Pairing of the eps-slice of ``u`` with a compactly supported density.

    The subdivision floor scales with eps so eps-width features of the
    slice stay resolvable; the net's declared feature windows pre-split
    the support so narrow spikes cannot hide between coarse samples.
    """
    if u.dim_in != 1 or u.dim_out != 1:
        raise DimensionMismatch("weak integrals are for scalar nets on a line")
    box = np.asarray(nu.support_box, dtype=float).reshape(-1, 2)
    a, b = float(box[0, 0]), float(box[0, 1])
    splits = []
    if u.feature_scale is not None:
        for w_lo, w_hi in u.feature_scale(eps):
            splits.extend((float(w_lo), float(w_hi)))
    handle = u.at(eps)

    def integrand(x):
        return handle(x) * nu.handle(x)

    # the floor sits far below eps/8 so eps-scale features always stay
    # refinable; it only guards against runaway subdivision
    return adaptive_simpson(
        integrand,
        a,
        b,
        tol=_QUAD_TOL,
        min_width=min(eps / 8.0, b - a) * 2.0**-30,
        pre_split=splits,
    )


# ---------------------------------------------------------------------------
# the "tends to zero" proxy


def _tends_to_zero(values, grid: EpsGrid, tol: float):
    """(ok, decreasing, final): magnitudes non-increasing over the small-eps
    half and final magnitude under tol."""
    mags = [abs(float(v)) for v in values]
    idx = list(grid.small_half())
    dec = all(
        mags[j + 1] <= mags[j] * (1.0 + 1e-9) + 1e-14
        for j in idx
        if j + 1 < len(mags)
    )
    return dec and mags[-1] < tol, dec, mags[-1]


@dataclass
class AssociationRow:
    density_id: str
    values: list
    final: float
    decreasing: bool
    ok: bool
    flag: str = ""


@dataclass
class AssociationReport:
    ok: bool
    rows: list
    grid: EpsGrid

    def __bool__(self):
        return self.ok


def check_associated_zero(
    u: Net,
    densities: Sequence[DensityTest],
    grid: Optional[EpsGrid] = None,
    assoc_tol: float = ASSOC_TOL,
) -> AssociationReport:
    """Do the pairings with every bank density tend to zero?"""
    grid = grid or association_grid()
    rows = []
    for nu in densities:
        values = [weak_integral(u, nu, eps) for eps in grid]
        ok, dec, final = _tends_to_zero(values, grid, assoc_tol)
        flag = ""
        if not ok and final < assoc_tol and not dec:
            flag = "borderline: small final value but not decreasing"
        rows.append(AssociationRow(nu.id, values, final, dec, ok, flag))
    return AssociationReport(all(r.ok for r in rows), rows, grid)


# ---------------------------------------------------------------------------
# shadows


@dataclass
class ShadowRow:
    density_id: str
    pairings: list
    extrapolated: float
    order: float
    candidate: Optional[float] = None
    residual: Optional[float] = None
    flag: str = ""


@dataclass
class ShadowReport:
    rows: list
    grid: EpsGrid
    converged: bool
    max_residual: Optional[float] = None

    def __bool__(self):
        return self.converged


def _extrapolate_limit(pairings):
    """Limit of a sequence sampled on a dyadic eps grid.

    Clean power-law convergence (stable positive difference ratios) gets a
    Richardson correction; already-flat tails return the last value; any
    other pattern reports no detectable limit.
    """
    p = [float(v) for v in pairings]
    if not all(math.isfinite(v) for v in p):
        raise NonFiniteValue("pairing diverges: non-finite values on the grid")
    d = [b - a for a, b in zip(p, p[1:])]
    scale = max(max(abs(v) for v in p), 1.0)
    if all(abs(x) <= _STAB_TOL * scale for x in d[-3:]):
        return p[-1], float("nan"), ""
    ratios = []
    for x, y in zip(d[-4:], d[-3:]):
        if abs(y) > 0:
            ratios.append(x / y)
    if (
        len(ratios) >= 2
        and all(r > 1.3 for r in ratios)
        and max(ratios) < 2.5 * min(ratios)
    ):
        r = float(np.exp(np.mean(np.log(ratios))))
        q = math.log2(r)
        limit = p[-1] + d[-1] / (r - 1.0)
        return limit, q, ""
    mags = [abs(v) for v in p]
    runaway = all(b > 1.5 * a for a, b in zip(mags[-5:], mags[-4:])) and mags[
        -1
    ] > 100.0 * (min(mags) + 1e-300)
    if runaway:
        raise NonFiniteValue("pairing diverges: sustained growth along the grid")
    growing = mags[-1] > 10.0 * min(m + 1e-300 for m in mags)
    flag = "no shadow detected" + (" (pairings grow)" if growing else "")
    return float("nan"), float("nan"), flag


def shadow(
    u: Net,
    densities: Sequence[DensityTest],
    candidate: Optional[Callable[[DensityTest], float]] = None,
    grid: Optional[EpsGrid] = None,
) -> ShadowReport:
    """Distributional limit estimates of ``u`` against each density.

    ``candidate`` evaluates a proposed shadow on a density; residuals of
    the extrapolated limits against it are reported when supplied.
    """
    grid = grid or association_grid()
    rows = []
    for nu in densities:
        pairings = [weak_integral(u, nu, eps) for eps in grid]
        limit, order, flag = _extrapolate_limit(pairings)
        cand = res = None
        if candidate is not None:
            cand = float(candidate(nu))
            res = abs(limit - cand) if math.isfinite(limit) else float("inf")
        rows.append(ShadowRow(nu.id, pairings, limit, order, cand, res, flag))
    converged = all(not r.flag for r in rows)
    residuals = [r.residual for r in rows if r.residual is not None]
    return ShadowReport(rows, grid, converged, max(residuals) if residuals else None)


def shadow_report_to_csv(report: ShadowReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["density_id", "eps", "pairing", "extrapolated_limit", "candidate", "residual"]
        )
        for row in report.rows:
            for eps, pairing in zip(report.grid, row.pairings):
                writer.writerow(
                    [
                        row.density_id,
                        f"{eps:.12g}",
                        f"{pairing:.17g}",
                        f"{row.extrapolated:.17g}",
                        "" if row.candidate is None else f"{row.candidate:.17g}",
                        "" if row.residual is None else f"{row.residual:.17g}",
                    ]
                )


# ---------------------------------------------------------------------------
# k-association of manifold nets


@dataclass
class KAssociationReport:
    associated: bool
    k: int
    route_distance: Optional[bool]
    route_bank: bool
    rows: list = field(default_factory=list)

    def __bool__(self):
        return self.associated


def check_k_associated(
    u: ManifoldNet,
    v: ManifoldNet,
    k: int,
    K: CompactSet,
    grid: Optional[EpsGrid] = None,
    assoc_tol: float = ASSOC_TOL,
) -> KAssociationReport:
    """Do all jets of f(u_eps) - f(v_eps) up to order k converge to zero
    locally uniformly?

    Order 0 has a row per bank test f, orders 1..k a row ``f"x{i}"`` per
    target chart coordinate i: there the bank's ``x_i*cutoff`` composites
    have the coordinates' jets bit for bit, and ``cutoff``'s are 0.  At
    k = 0 the sup-distance route characterizes the same property and both
    routes must agree; a split is a numerics bug, not a verdict.
    """
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    grid = grid or association_grid()
    for net, who in ((u, "first"), (v, "second")):
        try:
            ok = check_moderate(net, K, k_max=min(k, 2), grid=grid)
        except NotCBounded as exc:
            raise NotModerate(
                f"{net.label or who + ' net'} escapes every compact on K"
            ) from exc
        if not ok:
            raise NotModerate(f"{net.label or who + ' net'} is not moderate on K")

    base_pts = _check_points(K)
    src = K.chart_id
    rows = []

    # features that concentrate as eps shrinks slip between fixed sample
    # points; each net's declared feature windows are sampled per eps
    lo_K, hi_K = K.box[:, 0], K.box[:, 1]

    def pts_at(eps):
        chunks = [base_pts]
        for rep in (u.net, v.net):
            if rep.feature_scale is None or rep.dim_in != 1:
                continue
            for w_lo, w_hi in rep.feature_scale(eps):
                a = max(float(w_lo), lo_K[0])
                b = min(float(w_hi), hi_K[0])
                if b > a:
                    chunks.append(np.linspace(a, b, 33)[:, None])
        return np.concatenate(chunks, axis=0)

    cbu, cbv = check_cbounded(u, K, grid), check_cbounded(v, K, grid)
    bank = default_test_bank(u.target, _witness_union(cbu.witness, cbv.witness))

    for label, order, curve in _bank_difference_curves(
        u, v, bank, src, grid, pts_at
    ) + _coordinate_curves((u, v), range(1, k + 1), src, grid, pts_at):
        ok, _, final = _tends_to_zero(curve, grid, assoc_tol)
        rows.append((label, order, ok, final))
    route_bank = all(ok for _, _, ok, _ in rows)

    route_distance = None
    if k == 0:
        curve = _distance_curve(u, v, pts_at, src, grid)
        route_distance = _tends_to_zero(curve, grid, assoc_tol)[0]
        if route_distance != route_bank:
            raise InconsistentRoutes(
                f"0-association routes disagree: distance={route_distance}, "
                f"bank={route_bank} for ({u.label!r}, {v.label!r})"
            )
    return KAssociationReport(route_bank, k, route_distance, route_bank, rows)


# ---------------------------------------------------------------------------
# mollifiers and embedding


def _bump_profile(sharpness: float):
    """exp(-sharpness/(1-x^2)) on (-1, 1), 0 outside."""

    def raw(x):
        x = np.asarray(x, dtype=float)
        s = 1.0 - x * x
        live = s > 1e-12
        ss = np.where(live, s, 1.0)
        return np.where(live, np.exp(-sharpness / ss), 0.0)

    return raw


@dataclass
class Mollifier:
    """Unit-mass bump exp(-sharpness/(1-(x/r)^2)) on [-r, r], r the support
    radius, with its scaling rule rho_eps(x) = rho(x/eps)/eps.  ``profile``
    is values only; :meth:`pulse_at` gives rho and rho' in closed form."""

    sharpness: float
    support_radius: float = 1.0
    id: str = ""
    profile: SmoothMapHandle = field(init=False, repr=False)

    def __post_init__(self):
        if not self.sharpness > 0:
            raise ConfigError(f"mollifier {self.id!r} needs a positive sharpness")
        r = self.support_radius
        raw = _bump_profile(self.sharpness)
        norm = adaptive_simpson(lambda x: raw(x[..., 0])[..., None], -1.0, 1.0, tol=1e-12)
        self._norm = norm

        def ev(x):
            return raw(x[..., 0] / r)[..., None] / norm / r

        self.profile = make_handle(ev, 1, 1, name=self.id)
        mass = adaptive_simpson(self.profile, -r, r, tol=1e-12)
        if abs(mass - 1.0) > 1e-10:
            raise ConfigError(
                f"mollifier {self.id!r} integrates to {mass!r}, not 1"
            )

    def pulse_at(self, s: float):
        """(rho(s), rho'(s)) at one float s, by the operations of the array
        path in their order (np.exp included, so the bits agree).  In the
        pulse variable s = u/eps the scaled pulse rho(u/eps)/eps is
        rho(s)/eps, and its u-derivative rho'(s)/eps^2."""
        a, r = self.sharpness, self.support_radius
        t = s / r
        q = 1.0 - t * t
        if not q > 1e-12:
            return 0.0, 0.0
        val = np.exp(-a / q)
        return val / self._norm / r, val * (-2.0 * a * t / (q * q)) / self._norm / r**2

    def squared_mass(self) -> float:
        """Integral of the squared profile; the shape fingerprint that
        composition with x -> x^2 exposes."""
        return adaptive_simpson(
            lambda x: self.profile(x) ** 2,
            -self.support_radius,
            self.support_radius,
            tol=1e-12,
        )


def standard_mollifier() -> Mollifier:
    """Normalized exp(-1/(1-x^2)) bump on [-1, 1]."""
    return Mollifier(1.0, id="rho1")


def sharp_mollifier() -> Mollifier:
    """Normalized exp(-2/(1-x^2)) bump: same support, visibly different
    squared mass (the suggested polynomial reweighting separated the
    squared masses by under five percent, so this shape replaces it)."""
    return Mollifier(2.0, id="rho2")


def embed_distribution(
    kind: str,
    rho: Mollifier,
    atlas,
    label: str = "",
) -> Net:
    """Regularization of a classical distribution as a net on the line chart
    ``main`` of ``atlas``: delta embeds as the scaled profile, heaviside as
    its cumulative integral."""
    ch = atlas.chart("main")
    if ch.dim != 1:
        raise DimensionMismatch("built-in embeddings need a line chart")
    box = np.asarray(ch.box, dtype=float).reshape(1, 2)
    r = rho.support_radius
    if box[0, 0] > -r or box[0, 1] < r:
        raise BallEscapesChart(
            f"mollifier support [-{r}, {r}] escapes the chart box at eps=1"
        )
    features = lambda eps: [(-r * eps, r * eps)]

    if kind == "delta":
        def ev(e, x):
            return rho.profile(x / e) / e

        return net_from_function(
            ev, 1, 1, box=box, label=label or f"delta[{rho.id}]",
            feature_scale=features,
        )

    if kind == "heaviside":
        ts = np.linspace(-r, r, 4097)
        dens = rho.profile(ts[:, None])[:, 0]
        cdf = cumulative_simpson(dens, x=ts, initial=0.0)
        cdf = cdf / cdf[-1]
        spline = CubicSpline(ts, cdf)

        def ev(e, x):
            t = x / e
            inside = spline(np.clip(t, -r, r))
            return np.where(t <= -r, 0.0, np.where(t >= r, 1.0, inside))

        return net_from_function(
            ev, 1, 1, box=box, label=label or f"heaviside[{rho.id}]",
            feature_scale=features,
        )

    raise ConfigError(f"unknown embedding kind {kind!r}")
