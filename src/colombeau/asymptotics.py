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
from numpy.linalg._umath_linalg import lstsq as _gelsd

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
_MACH_EPS = float(np.finfo(float).eps)


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


def _sample_array(samples, grid: EpsGrid, stacked=False) -> np.ndarray:
    """The samples as floats: one curve aligned with the grid, or with
    ``stacked`` also an (n_curves, n_eps) stack of them."""
    s = np.asarray(samples, dtype=float)
    if s.shape[-1:] != (len(grid),) or s.ndim > 1 + stacked:
        raise GridTooShort(f"sample array has shape {s.shape}, grid has {len(grid)} points")
    if np.isnan(s).any():
        raise NonFiniteValue("sample curve contains NaN")
    if (s < 0).any():
        raise NonFiniteValue("sample curve contains negative values")
    return s


def _fit_lines(A, logy):
    """Per row of ``logy`` (n_rows, m >= 3): least-squares slope, intercept
    and r^2 on the design matrix ``A`` = [log eps, 1] (m, 2), with a
    zero-variance guard.  Each row is one LAPACK gelsd solve of the gufunc
    that ``np.linalg.lstsq`` calls, at its default rcond, so every row has
    the bits of its own ``lstsq`` call."""
    x, res, _, _ = _gelsd(A, logy[..., None], _MACH_EPS * len(A), signature="ddd->ddid")
    mean = np.add.reduce(logy, -1) / len(A)
    dev = logy - mean[:, None]
    return [
        (0.0, m, 1.0) if total < 1e-20 else (slope, intercept, max(0.0, 1.0 - r / total))
        for (slope, intercept), r, total, m in zip(
            x[..., 0].tolist(), res[:, 0].tolist(),
            np.add.reduce(dev * dev, -1).tolist(), mean.tolist(),
        )
    ]


def estimate_growth_order(
    samples,
    grid: EpsGrid,
    m_max: int = DEFAULT_M_MAX,
    fit_tolerance: float = DEFAULT_FIT_TOLERANCE,
) -> AsymptoticVerdict | list[AsymptoticVerdict]:
    """Fit samples ~ C * eps^s on the small-eps half and classify.

    ``samples`` is one curve aligned with the grid, giving one verdict, or
    an (n_curves, n_eps) stack of curves, giving a list of verdicts in row
    order.  A one-curve call is the one-row case of the stack, and each row
    of a stack gets the verdict of its own one-row call, bit for bit: every
    row is its own least-squares solve.  Values must be >= 0 and non-NaN;
    infinities classify as neither (overflow on the way to eps = 0).
    Moderateness is tested up to order DEFAULT_N_MAX and negligibility up
    to ``m_max``.
    """
    s = _sample_array(samples, grid, stacked=True)
    rows = s.reshape(-1, len(grid))
    lo, window = grid.small_half().start, len(grid.small_half())
    overflow = np.isinf(rows).any(axis=1)
    underflow = (rows[:, lo:] <= DEFAULT_FLOOR).all(axis=1)
    fitted = rows[~(overflow | underflow)]

    A = np.vander(np.log(grid.as_array()[lo:]), 2)
    logy = np.log(fitted[:, lo:] + DEFAULT_FLOOR)
    fits = _fit_lines(A, logy)
    # drift guard: compare slopes on the larger-eps and smaller-eps halves
    # of the fitting window; super-polynomial curves keep steepening
    drifts = [0.0] * len(fits)
    if window >= 6:
        mid = window // 2
        drifts = [b[0] - a[0] for a, b in zip(
            _fit_lines(A[:mid], logy[:, :mid]), _fit_lines(A[mid:], logy[:, mid:])
        )]
    # the drift branches also demand the curve actually moves in the
    # drifted direction overall; a growing curve that saturates (an FD
    # step hitting its resolution ceiling does this) must not pass as
    # super-polynomial decay
    grows = fitted[:, lo:].max(axis=1) > fitted[:, :lo].max(axis=1)
    fitted_rows = zip(fits, drifts, grows.tolist())

    verdicts = []
    for over, under in zip(overflow.tolist(), underflow.tolist()):
        if over:
            fields = (NEITHER, None, float("-inf"), 0.0,
                      {"overflow": True, "reason": "infinite samples on the grid"})
        elif under:
            fields = (NEGLIGIBLE, m_max, float(m_max), 1.0,
                      {"underflow": True, "reason": "samples at or below the value floor"})
        else:
            fields = _classify(*next(fitted_rows), window, m_max, fit_tolerance)
        params = dict(n_max=DEFAULT_N_MAX, m_max=m_max, m_min=DEFAULT_M_MIN,
                      floor=DEFAULT_FLOOR, fit_tolerance=fit_tolerance)
        verdicts.append(AsymptoticVerdict(*fields[:4], m_max, params, fields[4]))
    return verdicts if s.ndim == 2 else verdicts[0]


def _classify(fit, drift, grows, window, m_max, tol):
    """(classification, order, slope, r^2, diagnostics) of one fitted curve."""
    slope, intercept, r2 = fit
    diagnostics = {"drift": drift, "fit_window": window, "intercept": intercept}
    why = None
    if drift < -DRIFT_THRESHOLD and grows:
        cls, order, why = NEITHER, None, "slope drifting down: super-polynomial growth"
    elif drift > DRIFT_THRESHOLD and not grows:
        cls, order, why = NEGLIGIBLE, m_max, "slope drifting up: faster than any power"
    elif slope < -(DEFAULT_N_MAX + tol):
        cls, order, why = NEITHER, None, f"slope below -N_max = -{DEFAULT_N_MAX}"
    elif slope < DEFAULT_M_MIN:
        # rounding guard keeps N stable under fit noise around integer slopes
        cls, order = MODERATE, max(0, math.ceil(-slope - tol))
    else:
        cls, order = NEGLIGIBLE, min(math.floor(slope + tol), m_max)
    if why:
        diagnostics["reason"] = why
    return cls, order, slope, r2, diagnostics


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
        A = np.vander(np.log(eps[small])[positive], 2)
        trend = _fit_lines(A, np.log(ratios[positive])[None])[0][0]
        # ratios growing as eps -> 0 show up as a negative log-log trend
        if trend < -0.05:
            diagnostics["borderline"] = True
            diagnostics["ratio_trend"] = trend
    return ok, diagnostics


def negligible_to_resolution(samples, grid: EpsGrid) -> bool | list[bool]:
    """True iff the curve classifies Negligible(DEFAULT_M_MAX), the strongest
    verdict a finite grid supports; for a stack of curves, as
    :func:`estimate_growth_order` takes them, a list of one bool per row."""
    s = np.asarray(samples, dtype=float)
    verdicts = estimate_growth_order(s, grid)
    ok = [v.classification == NEGLIGIBLE and v.order == DEFAULT_M_MAX
          for v in (verdicts if s.ndim == 2 else [verdicts])]
    return ok if s.ndim == 2 else ok[0]


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
