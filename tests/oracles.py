"""Reference computations that tests compare library code with: the
polyline Riemannian distance (for ``geometry.chord_distance``), finite-
difference Christoffel symbols of the pp-wave metric (for the right-hand
side of ``ppwave.regularized_geodesic_system``), a polar transition pair
(for the atlas invariant checks), the test bank's tests as separate
handles (for ``geometry.TestBank.eval`` and the bank route), the box
bump and the partition-of-unity members built from the handle algebra
of sums, Leibniz products and reciprocals (for the value-only
``geometry.make_box_bump`` and ``geometry.partition_of_unity``), the
mollifier profile's analytic derivatives (for the pulse's D' in
``ppwave``), the
per-offset finite-difference loop (for ``nets.finite_difference_jet``),
the test-hom curve of a fiber net (for the order-0 fiber row of
``bundle_maps.check_vb_moderate``), the per-slice geodesic solver in
the wave's own parameter u (for the stacked ``ppwave.solve_geodesic``),
a slice's states read from scipy's dense output of its stack and the
stacked right-hand side built by ``np.stack`` (for the dense-output
kernel of ``ppwave.GeodesicSlice.states`` and the rhs of
``ppwave.regularized_geodesic_system``), and adaptive Simpson refined one integral at a time, with the weak
pairing built on it (for the pairings of
``association.check_associated_zero`` and ``association.shadow``)."""

import itertools
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from colombeau.bundle_maps import _as_matrix, _fiber_cutoff, fiber_values
from colombeau.errors import (
    AtlasMismatch,
    ConfigError,
    DimensionMismatch,
    NoMetric,
    NonFiniteValue,
    OutsideDomain,
    QuadratureError,
)
from colombeau.geometry import (
    _BANK_SIZE,
    _as_box,
    _lattice,
    _radial_profile_handle,
    box_contains,
    make_box_bump,
    make_bump,
    make_handle,
    sample_box,
)
from colombeau.manifold_maps import _check_points, _sup_abs, check_cbounded
from colombeau.nets import (
    _FD_NOISE_C,
    _RICHARDSON_LEVELS,
    SmoothMapHandle,
    handle_compose,
    order,
)


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


# ---------------------------------------------------------------------------
# the handle algebra: sums, Leibniz products and reciprocals with jets


def handle_sum(handles):
    """Pointwise sum; jets term by term."""

    def ev(x):
        acc = handles[0].eval_fn(x)
        for h in handles[1:]:
            acc = acc + h.eval_fn(x)
        return acc

    def ji(x, alpha, step):
        acc = handles[0].jet(x, alpha, step)
        for h in handles[1:]:
            acc = acc + h.jet(x, alpha, step)
        return acc

    return SmoothMapHandle(handles[0].dim_in, handles[0].dim_out, ev, ji, "sum")


def handle_product(f, g):
    """Componentwise product; jets by the Leibniz rule, a binomial sum over
    the multi-indices beta <= alpha."""

    def ev(x):
        return f.eval_fn(x) * g.eval_fn(x)

    def ji(x, alpha, step):
        acc = 0.0
        for beta in itertools.product(*[range(a + 1) for a in alpha]):
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            binom = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
            acc = acc + binom * f.jet(x, beta, step) * g.jet(x, gamma, step)
        return acc

    return SmoothMapHandle(f.dim_in, f.dim_out, ev, ji, "prod")


def reciprocal_handle():
    """y -> 1/y with analytic jets at all orders, for y away from zero."""

    def jf(y, alpha):
        k = alpha[0]
        return (-1.0) ** k * math.factorial(k) * y ** (-(k + 1))

    return make_handle(lambda y: 1.0 / y, 1, 1, jet_fn=jf, name="recip")


def box_bump_reference(inner_box, outer_box):
    """The box bump as the Leibniz product of per-axis radial profiles
    composed with x -> (x_i - c_i)^2, each with its analytic jets."""
    inner = _as_box(inner_box)
    outer = _as_box(outer_box, inner.shape[0])
    n = inner.shape[0]
    factors = []
    for i in range(n):
        c = 0.5 * (inner[i, 0] + inner[i, 1])
        r_in = 0.5 * (inner[i, 1] - inner[i, 0])
        r_out = min(c - outer[i, 0], outer[i, 1] - c)

        def coord_sq(x, _i=i, _c=c):
            return ((x[..., _i] - _c) ** 2)[..., None]

        def coord_sq_jet(x, alpha, _i=i, _c=c):
            k = sum(alpha)
            if k == 1 and alpha[_i] == 1:
                return (2.0 * (x[..., _i] - _c))[..., None]
            if k == 2 and alpha[_i] == 2:
                return np.full(x.shape[:-1] + (1,), 2.0)
            return np.zeros(x.shape[:-1] + (1,))

        qh = make_handle(coord_sq, n, 1, jet_fn=coord_sq_jet, name=f"q{i}")
        factors.append(handle_compose(_radial_profile_handle(r_in, r_out), qh))
    h = factors[0]
    for f in factors[1:]:
        h = handle_product(h, f)
    return h


def partition_reference(atlas, cores):
    """(chart id, member) per core: b_j * reciprocal(sum_k b_k), the bumps
    ``box_bump_reference`` by the padding rule of
    ``geometry.partition_of_unity``, the sum read in chart j through the
    declared transitions."""
    bumps = []
    for core in cores:
        gap = core.validate_inside(atlas.chart(core.chart_id))
        widths = core.box[:, 1] - core.box[:, 0]
        pad = np.minimum(0.5 * widths, 0.9 * gap)
        outer = np.stack([core.box[:, 0] - pad, core.box[:, 1] + pad], axis=-1)
        bumps.append((core.chart_id, box_bump_reference(core.box, outer)))
    members = []
    for cid, b in bumps:
        terms = [
            c if other == cid
            else handle_compose(c, atlas.transition_handle(cid, other))
            for other, c in bumps
        ]
        total = handle_sum(terms) if len(terms) > 1 else terms[0]
        members.append(
            (cid, handle_product(b, handle_compose(reciprocal_handle(), total)))
        )
    return members


def mollifier_profile_jet(rho, x, k):
    """The k-th derivative, k = 1 or 2, of the mollifier profile at the
    points ``x`` (..., 1): the analytic rule of exp(-a/(1 - t^2)), t = x/r,
    scaled by the unit-mass norm and r^(1 + k)."""
    a, r = rho.sharpness, rho.support_radius
    t = np.asarray(x[..., 0] / r, dtype=float)
    s = 1.0 - t * t
    live = s > 1e-12
    ss = np.where(live, s, 1.0)
    val = np.where(live, np.exp(-a / ss), 0.0)
    g1 = -2.0 * a * t / ss**2
    if k == 1:
        raw = np.where(live, val * g1, 0.0)
    elif k == 2:
        g2 = -2.0 * a * (ss + 4.0 * t * t) / ss**3
        raw = np.where(live, val * (g2 + g1 * g1), 0.0)
    else:
        raise ValueError(f"order {k} is not 1 or 2")
    return raw[..., None] / rho._norm / r ** (1 + k)


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


def slice_states_reference(slice_, sol, i, n, us):
    """States of slice ``i`` of a stack of ``n`` slices at ``us``, read as
    ``ppwave.GeodesicSlice.states`` read them from the stack's scipy
    ``OdeSolution`` ``sol``: straight lines off the pulse, ``sol`` at
    s = u/eps across it."""
    us = np.atleast_1d(np.asarray(us, dtype=float))
    u0, u1 = slice_.u_span
    lo, hi = sorted(slice_.u_span)
    if np.any(us < lo - 1e-12) or np.any(us > hi + 1e-12):
        raise OutsideDomain("query outside the integrated u-interval")
    sgn = 1.0 if u1 > u0 else -1.0
    w = sgn * us
    ahead = w < -slice_.radius
    behind = w >= slice_.radius
    inside = ~(ahead | behind)
    out = np.empty(us.shape + (6,))
    for mask, state, anchor in ((ahead, slice_.init, u0),
                                (behind, slice_.exit_state, sgn * slice_.radius)):
        line = np.tile(state, (mask.sum(), 1))
        line[:, :3] += state[3:] * (us[mask] - anchor)[:, None]
        out[mask] = line
    if np.any(inside):
        out[inside] = sol(us[inside] / slice_.eps)[i + n * np.arange(6)].T
    return out


def geodesic_rhs_stacked_reference(profile, rho, eps_values):
    """The stacked right-hand side d/ds of ``ppwave.regularized_geodesic_system``
    with the transverse points built by ``np.stack`` and the three
    position rows scaled one by one."""
    eps = np.atleast_1d(np.asarray(eps_values, dtype=float))
    value = profile.f.eval_fn
    grad = profile.f.jet_impl

    def rhs(s, state):
        v, x, y, vd, xd, yd = np.asarray(state, dtype=float).reshape(6, -1)
        D, Dp = rho.pulse_at(s)
        p = np.stack([x, y], axis=-1)
        f = value(p)[:, 0]
        fx = grad(p, (1, 0), 1e-6)[:, 0]
        fy = grad(p, (0, 1), 1e-6)[:, 0]
        return np.concatenate([
            eps * vd, eps * xd, eps * yd,
            Dp * f / eps + 2.0 * D * (fx * xd + fy * yd), 0.5 * D * fx, 0.5 * D * fy,
        ])

    return rhs


# ---------------------------------------------------------------------------
# adaptive Simpson, one integral at a time


def adaptive_simpson_reference(fn, a, b, tol=1e-10, min_width=None, pre_split=()):
    """Adaptive Simpson of one vectorized integrand, refined on its own:
    ``fn`` maps (N, 1) arrays to (N, 1) values, one call per level."""
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


def weak_integral_reference(u, nu, eps):
    """Pairing of the eps-slice of ``u`` with the density ``nu``, by
    :func:`adaptive_simpson_reference` with the library's tolerance, floor
    and feature pre-splits."""
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

    return adaptive_simpson_reference(
        integrand,
        a,
        b,
        tol=1e-10,
        min_width=min(eps / 8.0, b - a) * 2.0**-30,
        pre_split=splits,
    )
