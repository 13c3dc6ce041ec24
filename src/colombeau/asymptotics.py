"""Classify eps-sample curves as moderate, negligible, or neither.

Every asymptotic estimate in the package reduces to one question: given
sup-values s(eps) on a decreasing eps grid, does s behave like a power of
eps, and which one?  The decision procedure is a least-squares fit of
log(s + floor) against log eps on the smallest-eps half of the grid,
guarded by a drift test that detects super-polynomial behavior (where the
fitted slope keeps changing as the window shrinks toward eps = 0).

The universal quantifiers of the theory are truncated: negligibility is
tested up to order ``m_max`` and moderateness up to ``N_max``.  Verdicts
always carry the parameters used so that "negligible" reads as "negligible
up to the tested order".
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GridTooShort, NonFiniteValue

MODERATE = "moderate"
NEGLIGIBLE = "negligible"
NEITHER = "neither"

#: default classification parameters; every verdict records the ones used
DEFAULT_N_MAX = 12
DEFAULT_M_MAX = 8
DEFAULT_M_MIN = 0.5
DEFAULT_FLOOR = 1e-300
DEFAULT_FIT_TOLERANCE = 0.25
DEFAULT_RATIO_BOUND = 1e3
DRIFT_THRESHOLD = 1.0


@dataclass(frozen=True)
class EpsGrid:
    """Strictly decreasing finite sequence of eps values in (0, 1]."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 6:
            raise GridTooShort(f"grid has {len(vals)} points, need at least 6")
        if any(not 0.0 < v <= 1.0 for v in vals):
            raise GridTooShort("grid values must lie in (0, 1]")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise GridTooShort("grid must be strictly decreasing")
        object.__setattr__(self, "values", vals)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def as_array(self):
        return np.asarray(self.values)

    def small_half(self):
        """Indices of the smallest-eps half (the asymptotic regime)."""
        n = len(self.values)
        return range(n // 2, n)

    @classmethod
    def default(cls):
        return cls.dyadic(4, 20)

    @classmethod
    def dyadic(cls, k_min: int, k_max: int):
        return cls(tuple(2.0**-k for k in range(k_min, k_max + 1)))

    @classmethod
    def geometric(cls, eps_max: float, eps_min: float, points: int):
        if points < 6:
            raise GridTooShort(f"{points} points requested, need at least 6")
        return cls(tuple(np.geomspace(eps_max, eps_min, points)))


@dataclass
class AsymptoticVerdict:
    """Outcome of a growth-order fit.

    ``classification`` is one of the module constants MODERATE, NEGLIGIBLE,
    NEITHER; ``order`` is N for moderate and m for negligible (None for
    neither).  ``slope`` is the fitted exponent s in samples ~ C * eps^s.
    """

    classification: str
    order: Optional[int]
    slope: float
    r_squared: float
    tested_order_cap: int
    params: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def __str__(self):
        tag = {MODERATE: "Moderate(N={})", NEGLIGIBLE: "Negligible(m={})"}.get(
            self.classification, "Neither{}"
        )
        body = tag.format(self.order if self.order is not None else "")
        return f"{body} slope={self.slope:+.3f} r2={self.r_squared:.4f}"


def _sample_array(samples, grid: EpsGrid) -> np.ndarray:
    s = np.asarray(samples, dtype=float)
    if s.shape != (len(grid),):
        raise GridTooShort(
            f"sample array has shape {s.shape}, grid has {len(grid)} points"
        )
    if np.any(np.isnan(s)):
        raise NonFiniteValue("sample curve contains NaN")
    if np.any(s[np.isfinite(s)] < 0):
        raise NonFiniteValue("sample curve contains negative values")
    return s


def _fit_line(logx, logy):
    """Least-squares slope/intercept/r^2 with a zero-variance guard; every
    fit has at least 3 points."""
    A = np.vstack([logx, np.ones_like(logx)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, logy, rcond=None)
    total = float(np.sum((logy - logy.mean()) ** 2))
    if total < 1e-20:
        return 0.0, float(logy.mean()), 1.0
    ss_res = float(res[0]) if len(res) else float(np.sum((A @ [slope, intercept] - logy) ** 2))
    return float(slope), float(intercept), max(0.0, 1.0 - ss_res / total)


def estimate_growth_order(
    samples,
    grid: EpsGrid,
    m_max: int = DEFAULT_M_MAX,
    fit_tolerance: float = DEFAULT_FIT_TOLERANCE,
) -> AsymptoticVerdict:
    """Fit samples ~ C * eps^s on the small-eps half and classify.

    ``samples`` is an array (or sequence) aligned with the grid.  Values
    must be >= 0 and non-NaN; infinities classify as neither (overflow on
    the way to eps = 0).  Moderateness is tested up to order DEFAULT_N_MAX
    and negligibility up to ``m_max``.
    """
    s = _sample_array(samples, grid)
    eps = grid.as_array()
    n_max, m_min, floor = DEFAULT_N_MAX, DEFAULT_M_MIN, DEFAULT_FLOOR
    params = dict(
        n_max=n_max, m_max=m_max, m_min=m_min, floor=floor,
        fit_tolerance=fit_tolerance,
    )

    small = list(grid.small_half())
    if np.any(np.isinf(s)):
        return AsymptoticVerdict(
            NEITHER, None, float("-inf"), 0.0, m_max, params,
            {"overflow": True, "reason": "infinite samples on the grid"},
        )

    s_small, eps_small = s[small], eps[small]
    if np.all(s_small <= floor):
        return AsymptoticVerdict(
            NEGLIGIBLE, m_max, float(m_max), 1.0, m_max, params,
            {"underflow": True, "reason": "samples at or below the value floor"},
        )

    logx = np.log(eps_small)
    logy = np.log(s_small + floor)
    slope, intercept, r2 = _fit_line(logx, logy)

    # drift guard: compare slopes on the larger-eps and smaller-eps halves
    # of the fitting window; super-polynomial curves keep steepening
    drift = 0.0
    if len(small) >= 6:
        mid = len(small) // 2
        slope_a, _, _ = _fit_line(logx[:mid], logy[:mid])
        slope_b, _, _ = _fit_line(logx[mid:], logy[mid:])
        drift = slope_b - slope_a
    diagnostics = {"drift": drift, "fit_window": len(small), "intercept": intercept}

    # the drift branches also demand the curve actually moves in the
    # drifted direction overall; a growing curve that saturates (an FD
    # step hitting its resolution ceiling does this) must not pass as
    # super-polynomial decay
    grows = float(np.max(s_small)) > float(np.max(s[: small[0]])) if small[0] else True
    if drift < -DRIFT_THRESHOLD and grows:
        diagnostics["reason"] = "slope drifting down: super-polynomial growth"
        return AsymptoticVerdict(NEITHER, None, slope, r2, m_max, params, diagnostics)
    if drift > DRIFT_THRESHOLD and not grows:
        diagnostics["reason"] = "slope drifting up: faster than any power"
        return AsymptoticVerdict(NEGLIGIBLE, m_max, slope, r2, m_max, params, diagnostics)

    if slope < -(n_max + fit_tolerance):
        diagnostics["reason"] = f"slope below -N_max = -{n_max}"
        return AsymptoticVerdict(NEITHER, None, slope, r2, m_max, params, diagnostics)
    if slope < m_min:
        # rounding guard keeps N stable under fit noise around integer slopes
        n = max(0, math.ceil(-slope - fit_tolerance))
        return AsymptoticVerdict(MODERATE, n, slope, r2, m_max, params, diagnostics)
    m = min(math.floor(slope + fit_tolerance), m_max)
    return AsymptoticVerdict(NEGLIGIBLE, m, slope, r2, m_max, params, diagnostics)


def is_negligible(
    samples,
    grid: EpsGrid,
    m: int,
    ratio_bound: float = DEFAULT_RATIO_BOUND,
) -> tuple[bool, dict]:
    """Ratio test: does samples(eps)/eps^m stay bounded as eps shrinks?

    Returns (verdict, diagnostics).  A curve that passes the bound but whose
    ratios are still growing toward eps = 0 is flagged ``borderline`` (it
    would fail a tighter bound; think eps^m * |log eps|).
    """
    s = _sample_array(samples, grid)
    eps = grid.as_array()
    small = list(grid.small_half())
    ratios = s[small] / eps[small] ** m
    if np.any(np.isinf(ratios)):
        return False, {"ratios_max": float("inf"), "reason": "overflowing ratios"}
    rmax = float(np.max(ratios))
    ok = rmax <= ratio_bound
    diagnostics = {"ratios_max": rmax, "ratio_bound": ratio_bound, "order": m}

    positive = ratios > 0
    if ok and np.sum(positive) >= 3:
        trend, _, _ = _fit_line(
            np.log(eps[small])[positive], np.log(ratios[positive])
        )
        # ratios growing as eps -> 0 show up as a negative log-log trend
        if trend < -0.05:
            diagnostics["borderline"] = True
            diagnostics["ratio_trend"] = trend
    return ok, diagnostics


def negligible_to_resolution(samples, grid: EpsGrid) -> bool:
    """True iff the curve classifies Negligible(DEFAULT_M_MAX), the strongest
    verdict a finite grid supports."""
    verdict = estimate_growth_order(samples, grid)
    return verdict.classification == NEGLIGIBLE and verdict.order == DEFAULT_M_MAX


def dump_fit_csv(samples, grid: EpsGrid, verdict: AsymptoticVerdict, path=None) -> str:
    """Write (eps, value, fitted value) rows; returns the CSV text."""
    s = _sample_array(samples, grid)
    eps = grid.as_array()
    intercept = verdict.diagnostics.get("intercept", 0.0)
    fit = np.exp(intercept) * eps**verdict.slope
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["eps", "value", "fit"])
    for e, v, f in zip(eps, s, fit):
        writer.writerow([f"{e:.12g}", f"{v:.12g}", f"{f:.12g}"])
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
