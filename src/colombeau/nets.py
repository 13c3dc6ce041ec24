"""Epsilon-parametrized nets of smooth maps on boxes in chart coordinates.

A :class:`Net` is a family ``eps -> smooth map`` on a domain box; every map
is a :class:`SmoothMapHandle` that evaluates points and partial-derivative
jets.  Each handle has one jet rule.  :func:`make_handle` builds it from an
analytic rule up to an order ``k_max`` and central finite differences with
two Richardson extrapolation levels above it; composition, the one
combinator, builds it from its operands' jets by the chain rule.  Checkers
take the jets of the eps-slice with ``net.at(eps).jet(x, alpha, fd_step(eps))``:
the finite-difference step shrinks with eps,
``h = max(eps**1.5, 1e-7) * (1 + |x|)``, because interesting nets oscillate
at scale eps.  A finite-difference jet is one evaluation of every stencil
point of every level, stacked on two leading axes.

Points are numpy arrays whose last axis is the input dimension; evaluation
broadcasts over leading axes, and every ``eval_fn`` must.  Multi-indices
are integer tuples of length ``dim_in``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, OutsideDomain

#: composition uses the exact multivariate chain rule up to this jet order,
#: plain finite differences of the composite above it
CHAIN_ORDER_CAP = 3

_RICHARDSON_LEVELS = 2

# multiplier on the eps_mach * sum|coeffs| * max|f| / h^k roundoff scale;
# covers the Richardson combination weights with margin
_FD_NOISE_C = 4.0


def fd_step(eps: float) -> float:
    """Base finite-difference step for the eps-slice of a net."""
    return max(eps**1.5, 1e-7)


# ---------------------------------------------------------------------------
# multi-index utilities


def order(alpha) -> int:
    return int(sum(alpha))


def _unit(n, i):
    e = [0] * n
    e[i] = 1
    return tuple(e)


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        if dim != 1:
            raise DimensionMismatch(f"scalar point given, expected dim {dim}")
        x = x.reshape(1)
    if x.shape[-1] != dim:
        raise DimensionMismatch(f"point has dim {x.shape[-1]}, expected {dim}")
    return x


# ---------------------------------------------------------------------------
# finite differences

@functools.lru_cache(maxsize=None)
def _stencil(alpha):
    """Tensor-product central-difference stencil in h units: read-only
    (offsets, coeffs) and sum|coeffs|."""
    per_dim = []
    for a in alpha:
        if a == 0:
            per_dim.append([(0.0, 1.0)])
        else:
            pts = [((a / 2.0 - j), (-1.0) ** j * math.comb(a, j)) for j in range(a + 1)]
            per_dim.append(pts)
    offsets, coeffs = [], []
    for combo in itertools.product(*per_dim):
        offsets.append([c[0] for c in combo])
        coeffs.append(math.prod(c[1] for c in combo))
    offsets, coeffs = np.asarray(offsets), np.asarray(coeffs)
    offsets.flags.writeable = coeffs.flags.writeable = False
    return offsets, coeffs, np.sum(np.abs(coeffs))


def finite_difference_jet(eval_fn, x, alpha, step):
    """Central-difference jet of ``eval_fn`` at ``x`` with Richardson levels.

    ``step`` is the base step; the actual step per point is
    ``step * (1 + max_i |x_i|)``.  The stencil may probe points slightly
    outside a declared domain box, so evaluators must tolerate an
    O(step)-neighborhood of it.  Every stencil point of every level is
    evaluated in one ``eval_fn`` call on an array with two extra leading
    axes (level, offset), so ``eval_fn`` must broadcast over leading axes.

    Results smaller than the stencil's roundoff resolution at its finest
    level are measured zeros and returned as exact 0.0; without the snap,
    curves of true-zero jets read as roundoff noise growing like a power
    of 1/h and poison growth fits.
    """
    k = order(alpha)
    if k == 0:
        return eval_fn(x)
    offsets, coeffs, coeff_sum = _stencil(tuple(alpha))
    scale = step * (1.0 + np.max(np.abs(x), axis=-1, keepdims=True))
    # stencil points on two new leading axes: (level, offset, *x.shape)
    lead = (1,) * (np.ndim(x) - 1)
    h = scale / (2.0 ** np.arange(_RICHARDSON_LEVELS + 1.0)).reshape((-1,) + lead + (1,))
    pts = x + h[:, None] * offsets.reshape((1, len(coeffs)) + lead + (-1,))
    vals = np.asarray(eval_fn(pts), dtype=float)
    fmax = np.max(np.abs(vals), axis=(0, 1))
    # offset by offset, in stencil order, on all levels at once
    est = coeffs[0] * vals[:, 0]
    for s in range(1, len(coeffs)):
        est = est + coeffs[s] * vals[:, s]
    est = est / (h**k)
    # central differences have an even error expansion: orders 2, 4, ...
    for lvl in range(_RICHARDSON_LEVELS):
        factor = 2.0 ** (2.0 * (lvl + 1))
        est = (factor * est[1:] - est[:-1]) / (factor - 1.0)
    result = est[0]
    floor = _FD_NOISE_C * np.finfo(float).eps * coeff_sum * fmax / (h[-1] ** k)
    snap = np.isfinite(result) & np.isfinite(floor) & (np.abs(result) <= floor)
    return np.where(snap, 0.0, result)


# ---------------------------------------------------------------------------
# smooth map handles


@dataclass
class SmoothMapHandle:
    """A single smooth map with point and jet evaluation.

    ``jet_impl(x, alpha, step)`` is the one jet rule, used for
    ``|alpha| >= 1``; order zero is evaluation.  ``step`` is the base step
    of any finite differences the rule takes.  ``eval_fn`` must accept
    points with extra leading axes, as finite differences stack them.
    """

    dim_in: int
    dim_out: int
    eval_fn: Callable
    jet_impl: Callable
    name: str = ""

    def __call__(self, x):
        x = _as_points(x, self.dim_in)
        return np.asarray(self.eval_fn(x), dtype=float)

    def jet(self, x, alpha, step=1e-6):
        x = _as_points(x, self.dim_in)
        if len(alpha) != self.dim_in:
            raise DimensionMismatch(
                f"multi-index length {len(alpha)} != dim_in {self.dim_in}"
            )
        if order(alpha) == 0:
            return self(x)
        return np.asarray(self.jet_impl(x, tuple(alpha), step), dtype=float)

    def jacobian(self, x, step=1e-6):
        """Matrix of first partials, shape (..., dim_out, dim_in)."""
        cols = [self.jet(x, _unit(self.dim_in, i), step) for i in range(self.dim_in)]
        return np.stack(cols, axis=-1)


def make_handle(eval_fn, dim_in, dim_out, jet_fn=None, k_max=math.inf, name=""):
    """Handle whose jets are ``jet_fn(x, alpha)`` up to order ``k_max`` and
    finite differences of ``eval_fn`` above it, or at every order when
    ``jet_fn`` is None."""

    def ji(x, alpha, step):
        if jet_fn is not None and order(alpha) <= k_max:
            return jet_fn(x, alpha)
        return finite_difference_jet(eval_fn, x, alpha, step)

    return SmoothMapHandle(dim_in, dim_out, eval_fn, ji, name)


def identity_handle(dim):
    def jf(x, alpha):
        k = order(alpha)
        out = np.zeros(x.shape[:-1] + (dim,))
        if k == 1:
            i = next(j for j, a in enumerate(alpha) if a)
            out[..., i] = 1.0
        return out

    return make_handle(lambda x: x.copy(), dim, dim, jet_fn=jf, name="id")


# -- composition, the one combinator ------------------------------------------


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


def _chain_jet(outer, inner, x, alpha, step):
    """Multivariate Faa di Bruno over set partitions of the derivative slots."""
    dirs = [i for i, a in enumerate(alpha) for _ in range(a)]
    y = inner(x)
    m = inner.dim_out
    inner_cache, outer_cache = {}, {}

    def inner_jet(beta):
        if beta not in inner_cache:
            inner_cache[beta] = inner.jet(x, beta, step)
        return inner_cache[beta]

    def outer_jet(gamma):
        if gamma not in outer_cache:
            outer_cache[gamma] = outer.jet(y, gamma, step)
        return outer_cache[gamma]

    total = 0.0
    for part in _set_partitions(dirs):
        block_jets = []
        for block in part:
            beta = [0] * inner.dim_in
            for d in block:
                beta[d] += 1
            block_jets.append(inner_jet(tuple(beta)))
        r = len(part)
        for assign in itertools.product(range(m), repeat=r):
            gamma = [0] * m
            for a in assign:
                gamma[a] += 1
            weight = block_jets[0][..., assign[0]]
            for bj, a in zip(block_jets[1:], assign[1:]):
                weight = weight * bj[..., a]
            total = total + outer_jet(tuple(gamma)) * weight[..., None]
    return total


def handle_compose(outer: SmoothMapHandle, inner: SmoothMapHandle):
    if inner.dim_out != outer.dim_in:
        raise DimensionMismatch(
            f"inner dim_out {inner.dim_out} != outer dim_in {outer.dim_in}"
        )

    def ev(x):
        return outer.eval_fn(inner.eval_fn(x))

    def ji(x, alpha, step):
        if order(alpha) <= CHAIN_ORDER_CAP:
            return _chain_jet(outer, inner, x, alpha, step)
        return finite_difference_jet(ev, x, alpha, step)

    return SmoothMapHandle(inner.dim_in, outer.dim_out, ev, ji, "compose")


# ---------------------------------------------------------------------------
# nets


@dataclass
class Net:
    """An eps-indexed family of smooth maps on a fixed domain box.

    ``at(eps)`` must be valid for every eps in (0, 1].  The box is the
    region the net is declared on; slices are not checked against it, and
    finite-difference stencils probe a step beyond its faces.
    ``feature_scale``, when set, maps eps to a list of (lo, hi) windows per
    axis-0 coordinate where the slice has eps-scale features (quadrature
    uses it to place subdivisions).
    """

    dim_in: int
    dim_out: int
    at_fn: Callable[[float], SmoothMapHandle]
    box: Optional[np.ndarray] = None
    label: str = ""
    feature_scale: Optional[Callable] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.box is not None:
            self.box = np.asarray(self.box, dtype=float).reshape(self.dim_in, 2)

    def at(self, eps: float) -> SmoothMapHandle:
        if not 0.0 < eps <= 1.0:
            raise OutsideDomain(f"eps {eps} outside (0, 1]")
        h = self._cache.get(eps)
        if h is None:
            h = self.at_fn(eps)
            if (h.dim_in, h.dim_out) != (self.dim_in, self.dim_out):
                raise DimensionMismatch("slice handle dimensions disagree with net")
            self._cache[eps] = h
        return h

    def __repr__(self):
        return f"Net({self.label or 'unnamed'}, {self.dim_in}->{self.dim_out})"


def net_from_function(
    fn,
    dim_in,
    dim_out,
    box=None,
    jet=None,
    label="",
    feature_scale=None,
):
    """Net from ``fn(eps, x)`` with optional analytic jets ``jet(eps, x, alpha)``."""

    def at(eps):
        jf = None if jet is None else (lambda x, alpha, _e=eps: jet(_e, x, alpha))
        return make_handle(lambda x, _e=eps: fn(_e, x), dim_in, dim_out, jf)

    return Net(dim_in, dim_out, at, box, label, feature_scale)


def constant_net(handle: SmoothMapHandle, box=None, label=""):
    """Net whose slices are all the same smooth map (constant in eps)."""
    return Net(handle.dim_in, handle.dim_out, lambda eps: handle, box, label)


def compose_nets(outer: Net, inner: Net) -> Net:
    """Slicewise composition ``outer.at(eps) o inner.at(eps)``."""
    if inner.dim_out != outer.dim_in:
        raise DimensionMismatch(
            f"inner dim_out {inner.dim_out} != outer dim_in {outer.dim_in}"
        )
    return Net(
        inner.dim_in,
        outer.dim_out,
        lambda eps: handle_compose(outer.at(eps), inner.at(eps)),
        inner.box,
        label=f"({outer.label or 'outer'})o({inner.label or 'inner'})",
        feature_scale=inner.feature_scale,
    )
