"""Reference computations that tests compare library code with: the
polyline Riemannian distance (for ``geometry.chord_distance``), finite-
difference Christoffel symbols of the pp-wave metric (for the right-hand
side of ``ppwave.regularized_geodesic_system``), a polar transition pair
(for the atlas invariant checks), the test bank's tests as separate
handles (for ``geometry.TestBank.eval`` and the bank route), the
per-offset finite-difference loop (for ``nets.finite_difference_jet``),
the test-hom curve of a fiber net (for the order-0 fiber row of
``bundle_maps.check_vb_moderate``), and the per-slice geodesic solver in
the wave's own parameter u (for the stacked ``ppwave.solve_geodesic``)."""

import itertools
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from colombeau.bundle_maps import _as_matrix, _fiber_cutoff, fiber_values
from colombeau.errors import (
    AtlasMismatch,
    ConfigError,
    NoMetric,
    NonFiniteValue,
    OutsideDomain,
)
from colombeau.geometry import (
    _BANK_SIZE,
    _lattice,
    box_contains,
    make_box_bump,
    make_bump,
    make_handle,
    sample_box,
)
from colombeau.manifold_maps import _check_points, _sup_abs, check_cbounded
from colombeau.nets import _FD_NOISE_C, _RICHARDSON_LEVELS, handle_product, order


def locate(atlas, p):
    """Resolve a point to (chart_id, coords); arrays pick the first chart
    whose box contains them."""
    if isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], str):
        cid, x = p
        x = np.asarray(x, dtype=float)
        if not box_contains(atlas.chart(cid).box, x):
            raise OutsideDomain(f"point outside chart {cid!r}")
        return cid, x
    x = np.asarray(p, dtype=float)
    for cid, c in atlas.charts.items():
        if box_contains(c.box, x):
            return cid, x
    raise OutsideDomain("point lies in no chart of the atlas")


def _polyline_length(atlas, chart_id, vertices):
    # per-segment Simpson on sqrt(v g v); vertices shape (V, n)
    total = 0.0
    for a, b in zip(vertices[:-1], vertices[1:]):
        v = b - a
        pts = np.stack([a, 0.5 * (a + b), b])
        g = atlas.metric_at(chart_id, pts)
        speeds = np.sqrt(np.maximum(np.einsum("i,...ij,j->...", v, g, v), 0.0))
        total += (speeds[0] + 4.0 * speeds[1] + speeds[2]) / 6.0
    return total


def _refine_polyline(vertices):
    mids = 0.5 * (vertices[:-1] + vertices[1:])
    out = np.empty((2 * len(vertices) - 1, vertices.shape[1]))
    out[0::2] = vertices
    out[1::2] = mids
    return out


def _optimize_polyline(atlas, chart_id, vertices, box):
    if len(vertices) <= 2:
        return vertices, _polyline_length(atlas, chart_id, vertices)
    p, q = vertices[0], vertices[-1]
    interior_shape = vertices[1:-1].shape

    def objective(flat):
        verts = np.vstack([p, flat.reshape(interior_shape), q])
        return _polyline_length(atlas, chart_id, verts)

    bounds = [(lo, hi) for lo, hi in box] * interior_shape[0]
    res = minimize(
        objective,
        vertices[1:-1].ravel(),
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": 200, "ftol": 1e-12},
    )
    verts = np.vstack([p, res.x.reshape(interior_shape), q])
    return verts, float(res.fun)


_DISTANCE_FLOOR = 1e-11


def _single_chart_distance(atlas, chart_id, xp, xq, rel_tol, max_segments):
    if np.array_equal(xp, xq):
        return 0.0
    box = atlas.chart(chart_id).box
    n_seg = 4
    ts = np.linspace(0.0, 1.0, n_seg + 1)[:, None]
    verts = xp[None, :] * (1 - ts) + xq[None, :] * ts
    verts, length = _optimize_polyline(atlas, chart_id, verts, box)
    while 2 * (len(verts) - 1) <= max_segments:
        verts2 = _refine_polyline(verts)
        verts2, length2 = _optimize_polyline(atlas, chart_id, verts2, box)
        # the absolute floor sits above the optimizer's ~1e-12 noise, which
        # a relative rule cannot get under for nearly coincident points
        done = abs(length2 - length) <= max(rel_tol * length2, _DISTANCE_FLOOR)
        verts, length = verts2, length2
        if done:
            break
    return float(length)


def riemannian_distance(atlas, p, q, rel_tol=1e-3, max_segments=64):
    """Length of the shortest sampled polyline from p to q.

    This is an upper bound on the metric distance that converges under
    refinement; segments are doubled until the optimized length changes by
    less than ``rel_tol`` relatively, or by less than 1e-11.  For constant
    metrics the straight line is optimal, but the optimizer's finite-
    difference gradient steps leave an absolute error of about 1e-12 near
    coincident points.  Points
    in different charts are routed through waypoints on the declared overlap.
    """
    if not atlas.has_metric:
        raise NoMetric("atlas carries no metric")
    cid_p, xp = locate(atlas, p)
    cid_q, xq = locate(atlas, q)
    if cid_p == cid_q:
        return _single_chart_distance(atlas, cid_p, xp, xq, rel_tol, max_segments)
    # route through the overlap: waypoints sampled in the p-chart
    t = atlas.transitions.get((cid_p, cid_q))
    if t is None:
        raise AtlasMismatch(f"no transition {cid_p}->{cid_q} declared")
    box_p = atlas.chart(cid_p).box
    box_q = atlas.chart(cid_q).box
    cand = sample_box(box_p, {1: 17, 2: 9}.get(atlas.dim, 5))
    ys = t(cand)
    inside = np.all((ys >= box_q[:, 0]) & (ys <= box_q[:, 1]), axis=-1)
    if not np.any(inside):
        raise AtlasMismatch(f"empty sampled overlap between {cid_p} and {cid_q}")
    best = math.inf
    for w, wy in zip(cand[inside], ys[inside]):
        d = _single_chart_distance(
            atlas, cid_p, xp, w, rel_tol, max_segments
        ) + _single_chart_distance(atlas, cid_q, wy, xq, rel_tol, max_segments)
        best = min(best, d)
    return best


def christoffel_fd(metric_fn, eps, x, h=1e-5):
    """Gamma^k_ij from fourth-order central differences of the metric.

    The fourth-order stencil lets the step stay large enough that rounding
    in the metric does not swamp the derivative of a narrow pulse.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    g = np.asarray(metric_fn(eps, x), dtype=float)
    dg = np.empty(x.shape[:-1] + (n, n, n))
    for l in range(n):
        step = np.zeros(n)
        step[l] = h

        def at(k):
            return np.asarray(metric_fn(eps, x + k * step), dtype=float)

        dg[..., l, :, :] = (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)
    ginv = np.linalg.inv(g)
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    term = (
        np.einsum("...ilj->...lij", dg)
        + np.einsum("...jli->...lij", dg)
        - np.einsum("...lij->...lij", dg)
    )
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, term)


def pulse(rho, eps, u):
    """The scaled pulse rho(u/eps)/eps, by the mollifier's array path."""
    u = np.asarray(u, dtype=float)
    return rho.profile(u[..., None] / eps)[..., 0] / eps


def ppwave_metric(profile, rho):
    """(eps, states) -> metric matrices of the regularized pp-wave,
    coordinates ordered (u, v, x, y)."""

    def g(eps, X):
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[:-1] + (4, 4))
        out[..., 0, 0] = pulse(rho, eps, X[..., 0]) * profile.value(X[..., 2:4])
        out[..., 0, 1] = out[..., 1, 0] = -0.5
        out[..., 2, 2] = out[..., 3, 3] = 1.0
        return out

    return g


def polar_transition():
    """(r, theta) -> (r cos theta, r sin theta), first-order jets analytic."""

    def ev(x):
        r, t = x[..., 0], x[..., 1]
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def jf(x, alpha):
        r, t = x[..., 0], x[..., 1]
        if alpha == (1, 0):
            return np.stack([np.cos(t), np.sin(t)], axis=-1)
        return np.stack([-r * np.sin(t), r * np.cos(t)], axis=-1)

    return make_handle(ev, 2, 2, jet_fn=jf, k_max=1, name="polar")


def polar_inverse_transition():
    def ev(x):
        a, b = x[..., 0], x[..., 1]
        return np.stack([np.hypot(a, b), np.arctan2(b, a)], axis=-1)

    return make_handle(ev, 2, 2, name="polar-inverse")


def coordinate_handle(dim, index):
    """x -> x[index], with exact jets."""

    def jf(x, alpha):
        out = np.zeros(x.shape[:-1] + (1,))
        if sum(alpha) == 1 and alpha[index] == 1:
            out[...] = 1.0
        return out

    return make_handle(
        lambda x: x[..., index : index + 1], dim, 1, jet_fn=jf, name=f"x{index}"
    )


def bank_tests(atlas, region):
    """(label, handle) per test of ``default_test_bank(atlas, region)``, in
    its row order: each test built on its own by the bank's rule from the
    public ``make_box_bump`` and ``make_bump``, and carrying its
    ``support_box``."""
    chart = atlas.chart(region.chart_id)
    gap = region.validate_inside(chart)
    n = atlas.dim
    box = region.box
    scale = float(np.max(box[:, 1] - box[:, 0]))
    pad = min(0.45 * gap, 0.25 * scale)
    outer = np.stack([box[:, 0] - pad, box[:, 1] + pad], axis=-1)
    plateau = make_box_bump(
        np.stack([box[:, 0] - pad * 0.5, box[:, 1] + pad * 0.5], axis=-1), outer
    )
    tests = [("cutoff", plateau)]
    for i in range(n):
        h = handle_product(plateau, coordinate_handle(n, i))
        h.support_box = outer
        tests.append((f"x{i}*cutoff", h))
    remaining = max(_BANK_SIZE - len(tests), 2)
    big = math.ceil(remaining / 2)
    r_big = min(0.35 * scale, 0.9 * gap)
    for size, r, count in (
        ("big", r_big, big), ("small", r_big / 3.0, remaining - big)
    ):
        for j, c in enumerate(_lattice(box, count)):
            tests.append((f"bump-{size}-{j}", make_bump(c, 0.5 * r, r, box=chart.box)))
    return tests


def _stencil_reference(alpha):
    """Tensor-product central-difference stencil: (offsets, coeffs) in h units."""
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
    return np.asarray(offsets), np.asarray(coeffs)


def fd_jet_reference(eval_fn, x, alpha, step):
    """The central-difference jet with Richardson levels, one ``eval_fn``
    call per stencil offset per level, summed offset by offset."""
    k = order(alpha)
    if k == 0:
        return eval_fn(x)
    offsets, coeffs = _stencil_reference(alpha)
    scale = step * (1.0 + np.max(np.abs(x), axis=-1, keepdims=True))
    fmax = None

    def estimate(h):
        nonlocal fmax
        acc = None
        for off, c in zip(offsets, coeffs):
            val = eval_fn(x + h * off)
            a = np.abs(np.asarray(val, dtype=float))
            fmax = a if fmax is None else np.maximum(fmax, a)
            acc = c * val if acc is None else acc + c * val
        return acc / (h**k)

    estimates = [estimate(scale / (2.0**lvl)) for lvl in range(_RICHARDSON_LEVELS + 1)]
    # central differences have an even error expansion: orders 2, 4, ...
    p = 2.0
    for lvl in range(_RICHARDSON_LEVELS):
        factor = 2.0 ** (p * (lvl + 1))
        estimates = [
            (factor * hi - lo) / (factor - 1.0)
            for lo, hi in zip(estimates[:-1], estimates[1:])
        ]
    result = np.asarray(estimates[0], dtype=float)
    h_min = scale / (2.0**_RICHARDSON_LEVELS)
    floor = (
        _FD_NOISE_C
        * np.finfo(float).eps
        * np.sum(np.abs(coeffs))
        * fmax
        / (h_min**k)
    )
    snap = np.isfinite(result) & np.isfinite(floor) & (np.abs(result) <= floor)
    return np.where(snap, 0.0, result)


def opnorm_max(M):
    """Operator norm induced by the max norm: largest absolute row sum."""
    M = np.asarray(M, dtype=float)
    return np.max(np.sum(np.abs(M), axis=-1), axis=-1)


def fiber_test_hom_curve(u, L, grid):
    """(curve, cutoffs) of the compactly supported test homs of the fiber
    net ``u`` on L: per eps, the sup over L's check points of the cutoff
    at the base image times the fiber's operator norm (a fiber vector
    counting as one column), and the cutoff values it took.  The cutoff
    is the one ``bundle_maps._fiber_cutoff`` builds on the base net's
    c-boundedness witness."""
    witness = check_cbounded(u.base_net, L, grid).witness
    pts = _check_points(L)
    cutoff = _fiber_cutoff(u.target.base, witness, pts, L.chart_id)
    curve, cutoffs = [], []
    for eps in grid:
        chi = cutoff(u.base_net, eps)
        M = _as_matrix(fiber_values(u.fiber, eps, pts), u.fiber.fiber_shape)
        curve.append(_sup_abs(chi * opnorm_max(M)))
        cutoffs.append(chi)
    return curve, cutoffs


# ---------------------------------------------------------------------------
# the geodesic slices solved one by one, in u


# DOP853 tolerances of every slice solve
_GEODESIC_RTOL = 1e-10
_GEODESIC_ATOL = 1e-12


def _pulse_at_u(rho, eps, u):
    """(D, D') of the pulse D(u) = rho(u/eps)/eps at one float u, by the
    operations of the mollifier's array path in their order."""
    a, r = rho.sharpness, rho.support_radius
    t = u / eps / r
    s = 1.0 - t * t
    if not s > 1e-12:
        return 0.0, 0.0
    val = np.exp(-a / s)
    return (
        val / rho._norm / r / eps,
        val * (-2.0 * a * t / (s * s)) / rho._norm / r**2 / eps**2,
    )


def geodesic_rhs_u(profile, rho, eps):
    """Right-hand side d/du of one slice in state (v, x, y, v', x', y'):
    -Gamma^k_ij X'^i X'^j of the regularized pp-wave, with u' = 1."""
    if not eps > 0:
        raise ConfigError("eps must be positive")
    grad = profile.f.jet_impl

    def rhs(u, state):
        v, x, y, vd, xd, yd = state
        D, Dp = _pulse_at_u(rho, eps, u)
        p = np.array([x, y])
        f = profile.f.eval_fn(p)[0]
        fx = grad(p, (1, 0), 1e-6)[0]
        fy = grad(p, (0, 1), 1e-6)[0]
        return [vd, xd, yd, Dp * f + 2.0 * D * (fx * xd + fy * yd),
                0.5 * D * fx, 0.5 * D * fy]

    return rhs


class ReferenceSlice:
    """One eps-slice as a list of pieces (a, b, kind, data): exact straight
    lines off the pulse, a dense DOP853 solution in u across it."""

    def __init__(self, eps, u_span, pieces, energy_drift):
        self.eps = eps
        self.u_span = u_span
        self.pieces = pieces
        self.energy_drift = energy_drift

    def states(self, us):
        us = np.atleast_1d(np.asarray(us, dtype=float))
        lo, hi = sorted(self.u_span)
        if np.any(us < lo - 1e-12) or np.any(us > hi + 1e-12):
            raise OutsideDomain("query outside the integrated u-interval")
        out = np.empty(us.shape + (6,))
        for a, b, kind, data in self.pieces:
            p_lo, p_hi = min(a, b), max(a, b)
            mask = (us >= p_lo - 1e-12) & (us <= p_hi + 1e-12)
            if not np.any(mask):
                continue
            uu = us[mask]
            if kind == "line":
                s0 = data
                vals = np.tile(s0, (uu.size, 1))
                vals[:, 0] += s0[3] * (uu - a)
                vals[:, 1] += s0[4] * (uu - a)
                vals[:, 2] += s0[5] * (uu - a)
                out[mask] = vals
            else:
                out[mask] = data.sol(uu).T
        return out


def solve_geodesic_per_slice(profile, rho, eps, init, u_span):
    """One slice integrated on its own in u, its pulse window split off
    the u-interval; the step cap inside the pulse is R eps / 16."""
    u0, u1 = float(u_span[0]), float(u_span[1])
    if u1 == u0:
        raise ConfigError("u-interval must have nonzero length")
    state = np.asarray(init, dtype=float).copy()
    if state.shape != (6,):
        raise ConfigError("initial data is (v, x, y, v', x', y')")
    r = rho.support_radius * eps
    rhs = geodesic_rhs_u(profile, rho, eps)

    forward = u1 > u0
    inner = [c for c in (-r, r) if min(u0, u1) < c < max(u0, u1)]
    cuts = [u0] + sorted(inner, reverse=not forward) + [u1]
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        p_lo, p_hi = min(a, b), max(a, b)
        outside = p_hi <= -r + 1e-300 or p_lo >= r - 1e-300
        if outside:
            pieces.append((a, b, "line", state.copy()))
            nxt = state.copy()
            nxt[0] += state[3] * (b - a)
            nxt[1] += state[4] * (b - a)
            nxt[2] += state[5] * (b - a)
            state = nxt
        else:
            sol = solve_ivp(
                rhs,
                (a, b),
                state,
                method="DOP853",
                rtol=_GEODESIC_RTOL,
                atol=_GEODESIC_ATOL,
                max_step=max(r / 16.0, 1e-12),
                dense_output=True,
            )
            if not sol.success:
                raise NonFiniteValue(f"integrator failed on [{a}, {b}]: {sol.message}")
            pieces.append((a, b, "ode", sol))
            state = sol.y[:, -1].copy()

    # drift of g(X', X') from its initial value, over probes on the whole
    # interval and across the pulse
    probe = np.linspace(u0, u1, 33)
    lo, hi = min(u0, u1), max(u0, u1)
    if lo < r and hi > -r:
        probe = np.concatenate([probe, np.linspace(max(lo, -r), min(hi, r), 65)])
    slice_ = ReferenceSlice(eps, (u0, u1), pieces, 0.0)
    us = np.concatenate([[u0], probe])
    st = np.concatenate([np.asarray(init, dtype=float)[None], slice_.states(probe)])
    energy = (pulse(rho, eps, us) * profile.value(st[:, 1:3])
              - st[:, 3] + st[:, 4] ** 2 + st[:, 5] ** 2)
    slice_.energy_drift = float(np.max(np.abs(energy[1:] - energy[0])))
    return slice_
