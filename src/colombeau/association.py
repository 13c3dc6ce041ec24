"""Weak limits, distributional shadows, association, and mollifier embedding.

Association compares nets through integrals against compactly supported
densities, a strictly coarser lens than equivalence: negligible nets are
always associated to zero, but associated nets can differ by order one in
the sup norm.  All "tends to zero" verdicts use one proxy, the tail rule:
magnitudes non-increasing over the asymptotic half of the grid, and a final
value under ``ASSOC_TOL`` or a Negligible(m >= 1) fit, which no scaling of
the test function moves.  Borderline curves are flagged, never passed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from .asymptotics import NEGLIGIBLE, EpsGrid, estimate_growth_order
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
from .geometry import CompactSet, DensityTest
from .manifold_maps import (
    ManifoldNet,
    _check_points,
    _coordinate_curves,
    _one_target,
    _pair_curves,
    _pair_witness,
    _stack_points,
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
    default because every point adds a weak integral per density to the
    verdict's quadrature, and a slice call to each of its levels."""
    return EpsGrid.dyadic(2, 12)


# ---------------------------------------------------------------------------
# quadrature

def _add_runs(acc, values, owner):
    """``acc[k] += np.sum(values[owner == k])``, bit for bit, for every
    owner k; ``owner`` is sorted.  ``np.add.reduceat`` keeps a run's first
    term and adds the rest by np.sum's pairwise rule, so every run is led
    by -0.0, which adds nothing: value i sits at ``i + owner[i] + 1``, after
    one -0.0 per owner up to its own, and an owner with no values adds its
    -0.0 alone."""
    if owner.size == 0:
        return
    count = np.bincount(owner)
    led = np.full(owner.size + count.size, -0.0)
    led[np.arange(owner.size) + owner + 1] = values
    acc[:count.size] += np.add.reduceat(
        led, np.cumsum(count) - count + np.arange(count.size)
    )


def _simpson_level(lo, hi, owner, known, feval, width, tol, min_width, total, leftover):
    """One level of :func:`_simpson_runs`, in a frame of its own so that its
    temporaries are gone before the next level's integrand call.

    ``known`` holds the (3, n) integrands at each segment's (lo, mid, hi),
    or is None on the first level.  Adds the accepted segments' sums to
    ``total`` and ``leftover`` and returns ``(lo, hi, known, alive, owner,
    bad)``: the halves of the other segments with their known values, the
    owners this level refined, the halves' owners, and the first owner
    whose integrand was not finite (it and all after it, a suffix of the
    sorted owners, are cut off), or None.  Owner k's halves take the slots
    after those of the owners before it, found from per-owner counts;
    ``at`` holds each slot's segment column, plus n for a right half, so
    one gather from (lo | mid | hi) and from (f0 | f2 | f4) and (f1 | f3)
    gives a half its ends and its (f0, f1, f2) or (f2, f3, f4).
    """
    mid = 0.5 * (lo + hi)
    q1, q3 = 0.5 * (lo + mid), 0.5 * (mid + hi)
    if known is None:
        new = feval(np.stack([lo, q1, mid, q3, hi]), owner)
    else:
        new = feval(np.stack([q1, q3]), owner)
    # known values passed this check on the level that computed them
    finite = np.isfinite(new).all(axis=0)
    if known is None:
        known, new = new[0::2], new[1::2]
    bad = None
    if not finite.all():
        bad = int(owner[np.argmin(finite)])
        n = np.searchsorted(owner, bad)
        lo, hi, mid, owner = lo[:n], hi[:n], mid[:n], owner[:n]
        known, new = known[:, :n], new[:, :n]
    (f0, f2, f4), (f1, f3) = known, new
    h = hi - lo
    coarse = h / 6.0 * (f0 + 4.0 * f2 + f4)
    fine = h / 12.0 * (f0 + 4.0 * f1 + 2.0 * f2 + 4.0 * f3 + f4)
    gap = fine - coarse
    err = np.abs(gap) / 15.0
    budget = tol[owner] * (h / width[owner])
    done = err <= budget
    floor = h < 2.0 * min_width[owner]
    accept = done | floor
    _add_runs(total, (fine + gap / 15.0)[accept], owner[accept])
    unresolved = floor & ~done
    _add_runs(leftover, err[unresolved], owner[unresolved])
    cols = np.flatnonzero(~accept)
    kept = owner[cols]
    count = np.bincount(kept)
    left = np.arange(cols.size) + (np.cumsum(count) - count)[kept]
    at = np.empty(2 * cols.size, dtype=np.intp)
    at[left], at[left + count[kept]] = cols, cols + lo.size
    ends, values, after = np.concatenate([lo, mid, hi]), known.reshape(-1), at + lo.size
    return (
        ends[at], ends[after], np.stack([values[at], new.reshape(-1)[at], values[after]]),
        owner, np.repeat(np.arange(count.size), 2 * count), bad,
    )


def _simpson_runs(lo, hi, owner, width, tol, min_width, feval):
    """Adaptive Simpson of many integrals, refined together.

    Integral k spans ``width[k]`` and starts as the segments ``(lo, hi)``
    of owner k; segments are sorted by owner, each integral's in its own
    order.  ``feval(x, owner)`` returns the integrands at the (r, n)
    abscissae ``x``, a column per segment and ``owner`` its owners, so each
    level is one ``feval`` call for all integrals.  On the first level a
    column holds a segment's five points in order, lo to hi (r = 5); after
    it only the two quarter points (r = 2), since a half's ends and
    midpoint are points its parent evaluated, whose values are carried
    from level to level (the left half's are the parent's (f0, f1, f2),
    the right half's its (f2, f3, f4)).  So the integrand's value at a
    point must not depend on the other points of the same call.  Every
    abscissa is evaluated once, except that first-level segments sharing
    an edge (an integral that starts as several segments) each evaluate
    it.  Each integral is refined as if it were alone: its segments keep
    their order (its kept segments' left halves, then their right halves),
    its level sums are ``np.sum`` over its own accepted segments, and it
    stops on its own ``tol``, ``min_width``, depth cap and unresolved error
    at the floor.  A level is a fixed number of linear passes: no sort.

    Returns ``(totals, failure)``.  ``failure`` is ``(k, exc)`` for the
    first integral k that would raise on its own, or None; the integrals
    after k are dropped once k fails, so only ``totals[:k]`` hold values.
    """
    m = width.size
    total = np.zeros(m)
    leftover = np.zeros(m)
    failed, error = m, None
    known = None
    for _ in range(64):
        if lo.size == 0:
            break
        lo, hi, known, alive, owner, bad = _simpson_level(
            lo, hi, owner, known, feval, width, tol, min_width, total, leftover
        )
        if bad is not None:
            failed = bad
            error = NonFiniteValue("integrand is not finite on the support")
        over = np.flatnonzero(leftover[:failed] > tol[:failed])
        if over.size:
            # leftover never shrinks, so integral k is bound to raise and
            # the integrals after it are not needed; once k has no segments
            # left, its error at the floor is final
            k = int(over[0])
            live = owner <= k
            lo, hi, owner, known = lo[live], hi[live], owner[live], known[:, live]
            if not owner.size or owner[-1] < k:
                failed = k
                error = QuadratureError(
                    f"quadrature left {leftover[k]:.2e} unresolved error "
                    f"at the subdivision floor {min_width[k]:.2e}"
                )
    else:
        # refining at the last level: the depth cap comes before the floor
        if alive.size:
            failed = int(alive[0])
            error = QuadratureError("adaptive quadrature exceeded its depth limit")
    return total, (None if error is None else (failed, error))


def _first_edges(a: float, b: float, splits) -> list:
    """First-level edges over [a, b]: a, the splits inside (a, b) in order, b."""
    return [a] + sorted(float(e) for e in splits if a < e < b) + [b]


def adaptive_simpson(
    fn,
    a: float,
    b: float,
    tol: float = _QUAD_TOL,
    min_width: Optional[float] = None,
    pre_split: Sequence[float] = (),
) -> float:
    """Adaptive Simpson quadrature of a vectorized scalar integrand.

    ``fn`` maps (N, 1) arrays to (N, 1) values, and its value at a point
    must not depend on the other points of the same call.  Refinement stops once a segment's Richardson error estimate fits its
    share of ``tol`` or the segment is narrower than ``min_width``; if
    unresolved error remains at the floor the quadrature has not converged
    and raises.  This is the one-integral case of the shared kernel that
    refines all weak integrals of an association verdict together.
    """
    a, b = float(a), float(b)
    if not b > a:
        return 0.0
    if min_width is None:
        min_width = (b - a) * 1e-12
    edges = np.asarray(_first_edges(a, b, pre_split))
    total, failure = _simpson_runs(
        edges[:-1], edges[1:], np.zeros(edges.size - 1, dtype=np.intp),
        np.array([b - a]), np.array([float(tol)]), np.array([float(min_width)]),
        lambda x, owner: np.asarray(fn(x.reshape(-1, 1)), dtype=float).reshape(x.shape),
    )
    if failure is not None:
        raise failure[1]
    return float(total[0])


def _call_on_columns(handle, x):
    """A scalar handle at the (r, k) abscissae ``x``, as (r, k) values."""
    flat = x.reshape(-1, 1)
    v = handle(flat)
    return (v if np.size(v) == flat.size else np.broadcast_to(v, flat.shape)).reshape(x.shape)


def _pairings(u: Net, densities: Sequence[DensityTest], eps_values):
    """Weak integrals of ``u``'s slices at ``eps_values`` against every
    density, refined together: at each level every live slice is called
    once, on the abscissae of all densities, and every live density once,
    on the abscissae of all eps.  Each pairing's first level is
    :func:`_first_edges` of its density's support at the feature windows.

    Returns ``(values, failure)``: values has shape (densities, eps), and
    failure is as for :func:`_simpson_runs`, with integral
    ``j * len(eps_values) + i`` the pairing of density j at eps i.
    """
    n_d, n_e = len(densities), len(eps_values)
    if not n_d:
        return np.zeros((0, n_e)), None
    if u.dim_in != 1 or u.dim_out != 1:
        raise DimensionMismatch("weak integrals are for scalar nets on a line")
    eps = np.asarray(eps_values, dtype=float)
    box = np.array([
        np.asarray(nu.support_box, dtype=float).reshape(-1, 2)[0] for nu in densities
    ])
    a, b = box[:, 0], box[:, 1]
    scale = u.feature_scale or (lambda e: ())
    windows = [[w for pair in scale(e) for w in pair] for e in eps_values]
    slices = [u.at(e) for e in eps_values]
    # segments per (density, eps), owner by owner
    lo, hi, owner = [], [], []
    for j, (a_j, b_j) in enumerate(box.tolist()):
        for i, w in enumerate(windows) if b_j > a_j else ():
            edges = _first_edges(a_j, b_j, w)
            lo += edges[:-1]
            hi += edges[1:]
            owner += [j * n_e + i] * (len(edges) - 1)
    # the floor sits far below eps/8 so eps-scale features always stay
    # refinable; it only guards against runaway subdivision
    floor = np.minimum(eps / 8.0, (b - a)[:, None]) * 2.0**-30
    handles = [nu.handle for nu in densities]

    def feval(x, own):
        out = np.empty_like(x)
        # owner k = j * n_e + i is density j at eps i: eps i's columns are
        # its owners' runs in density order, density j's one block
        bounds = np.searchsorted(own, np.arange(n_d * n_e + 1)).tolist()
        for i, slice_ in enumerate(slices):
            runs = [(a, b) for a, b in zip(bounds[i:-1:n_e], bounds[i + 1::n_e]) if b > a]
            if runs:
                cols = np.concatenate([x[:, a:b] for a, b in runs], axis=1)
                vals, at = _call_on_columns(slice_, cols), 0
                for a, b in runs:
                    out[:, a:b], at = vals[:, at:at + b - a], at + b - a
        for j, handle in enumerate(handles):
            a, b = bounds[j * n_e], bounds[(j + 1) * n_e]
            if b > a:
                out[:, a:b] *= _call_on_columns(handle, x[:, a:b])
        return out

    total, failure = _simpson_runs(
        np.array(lo), np.array(hi), np.array(owner, dtype=np.intp),
        np.repeat(b - a, n_e), np.full(n_d * n_e, _QUAD_TOL), floor.reshape(-1),
        feval,
    )
    return total.reshape(n_d, n_e), failure


def weak_integral(u: Net, nu: DensityTest, eps: float) -> float:
    """Pairing of the eps-slice of ``u`` with a compactly supported density.

    The subdivision floor scales with eps so eps-width features of the
    slice stay resolvable; the net's declared feature windows pre-split
    the support so narrow spikes cannot hide between coarse samples.
    """
    values, failure = _pairings(u, [nu], [eps])
    if failure is not None:
        raise failure[1]
    return float(values[0, 0])


# ---------------------------------------------------------------------------
# the "tends to zero" proxy


def _non_increasing(values) -> bool:
    """The tail rule: each value is at most the one before it, within roundoff."""
    return all(b <= a * (1.0 + 1e-9) + 1e-14 for a, b in zip(values, values[1:]))


def _tends_to_zero(curves, grid: EpsGrid, tol: float):
    """The tail rule, (ok, decreasing, final) per row of an (n_curves, n_eps)
    stack: non-increasing magnitudes over the small-eps half, and a final one
    under tol or a finite row that classifies Negligible(m >= 1), as one
    stack, so a tail decaying at least like eps passes at any scale."""
    mags = np.abs(np.asarray(curves, dtype=float).reshape(-1, len(grid)))
    dec = [_non_increasing(row[grid.small_half().start:].tolist()) for row in mags]
    finals = mags[:, -1].tolist()
    ok = [d and f < tol for d, f in zip(dec, finals)]
    rate = [i for i, row in enumerate(mags)
            if dec[i] and not ok[i] and np.isfinite(row).all()]
    for i, v in zip(rate, estimate_growth_order(mags[rate], grid) if rate else ()):
        ok[i] = v.classification == NEGLIGIBLE and v.order >= 1
    return list(zip(ok, dec, finals))


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
    pairings, failure = _pairings(u, densities, list(grid))
    if failure is not None:
        raise failure[1]
    rows = []
    for nu, values, (ok, dec, final) in zip(
        densities, pairings.tolist(), _tends_to_zero(pairings, grid, assoc_tol)
    ):
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
    values, failure = _pairings(u, densities, list(grid))
    # densities before the first failing pairing keep their own errors first
    n_ok = len(densities) if failure is None else failure[0] // len(grid)
    rows = []
    for nu, pairings in zip(densities, values.tolist()[:n_ok]):
        limit, order, flag = _extrapolate_limit(pairings)
        cand = res = None
        if candidate is not None:
            cand = float(candidate(nu))
            res = abs(limit - cand) if math.isfinite(limit) else float("inf")
        rows.append(ShadowRow(nu.id, pairings, limit, order, cand, res, flag))
    if failure is not None:
        raise failure[1]
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
    routes must agree; a split is a numerics bug, not a verdict.  The pair
    gate's atlas check runs first; the bank is built on its witness union.
    """
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    _one_target(u, v)
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

    # features that concentrate as eps shrinks slip between fixed sample
    # points; each net's declared feature windows are sampled per eps, and
    # the point sets stacked over the grid
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

    region = _pair_witness(u, v, K, grid, "association")

    pts = _stack_points(grid, pts_at)
    labelled = [
        *_pair_curves(u, v, src, grid, pts, region),
        *_coordinate_curves((u, v), range(1, k + 1), src, grid, pts),
    ]
    distance = [_pair_curves(u, v, src, grid, pts)] if k == 0 else []
    tails = _tends_to_zero([c for _, _, c in labelled] + distance, grid, assoc_tol)
    rows = [(label, order, ok, final)
            for (label, order, _), (ok, _, final) in zip(labelled, tails)]
    route_bank = all(ok for _, _, ok, _ in rows)
    route_distance = tails[-1][0] if distance else None
    if distance and route_distance != route_bank:
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
