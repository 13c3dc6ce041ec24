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
``association.check_associated_zero`` and ``association.shadow``), and
the checkers' per-eps loops: the sup curve, the c-boundedness report, the
distance and bank-difference curves and the fiber test-hom route (for the
stacked evaluation over the eps grid in ``manifold_maps`` and
``bundle_maps``), and the generalized points taken one point and one eps
at a time: point values, hybrid point values, the point distance and the
point-value curves (for the stacked grid forms of ``manifold_maps`` and
``bundle_maps`` points and their verdicts)."""

import itertools
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from colombeau import bundle_maps
from colombeau.asymptotics import EpsGrid
from colombeau.bundle_maps import (
    VBGeneralizedPoint,
    _as_matrix,
    _fiber_cutoff,
    fiber_values,
)
from colombeau.errors import (
    AtlasMismatch,
    ConfigError,
    DimensionMismatch,
    ImageEscapesAtlas,
    NoMetric,
    NonFiniteValue,
    NotCBounded,
    OutsideDomain,
    QuadratureError,
)
from colombeau.geometry import (
    _BANK_SIZE,
    _as_box,
    _lattice,
    box_contains,
    chord_distance,
    inside_box,
    make_box_bump,
    make_bump,
    make_handle,
    sample_box,
)
from colombeau.manifold_maps import (
    CBoundedReport,
    GeneralizedManifoldPoint,
    _check_points,
    _witness_region,
    check_cbounded,
)
from colombeau.nets import (
    _FD_NOISE_C,
    _RICHARDSON_LEVELS,
    SmoothMapHandle,
    fd_step,
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
    """The box bump as the product of one-dimensional radial bumps, one per
    axis, each composed with that axis's coordinate."""
    inner = _as_box(inner_box)
    outer = _as_box(outer_box, inner.shape[0])
    n = inner.shape[0]
    factors = []
    for i in range(n):
        c = 0.5 * (inner[i, 0] + inner[i, 1])
        r_in = 0.5 * (inner[i, 1] - inner[i, 0])
        r_out = min(c - outer[i, 0], outer[i, 1] - c)
        bump = make_bump([c], r_in, r_out)
        factors.append(handle_compose(bump, coordinate_handle(n, i)))
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
    cutoff = _fiber_cutoff(u.target.base, witness)
    curve, cutoffs = [], []
    for eps in grid:
        chi = cutoff(u.base_net.image_in(eps, pts, witness.chart_id, L.chart_id))[..., 0]
        M = _as_matrix(fiber_values(u.fiber, eps, pts), u.fiber.fiber_shape)
        curve.append(sup_abs(chi * opnorm_max(M)))
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


# ---------------------------------------------------------------------------
# the checker loops, one small numpy call per eps


def sup_abs(vals) -> float:
    """Sup of |vals|, with any non-finite entry collapsing to inf."""
    a = np.abs(np.asarray(vals, dtype=float))
    if a.size == 0:
        return 0.0
    if not np.all(np.isfinite(a)):
        return float("inf")
    return float(np.max(a))


def sup_diff(a_vals, b_vals) -> float:
    """Sup |a - b|, differences within 4 ulps of the operands' magnitude
    counted as measured zeros; a non-finite entry gives inf."""
    a = np.asarray(a_vals, dtype=float)
    b = np.asarray(b_vals, dtype=float)
    if a.size == 0:
        return 0.0
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return float("inf")
    d = float(np.max(np.abs(a - b)))
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return 0.0 if d <= 4.0 * np.finfo(float).eps * scale else d


def _index_tuples(dim, k):
    if k == 0:
        yield (0,) * dim
        return
    for combo in itertools.combinations_with_replacement(range(dim), k):
        alpha = [0] * dim
        for c in combo:
            alpha[c] += 1
        yield tuple(alpha)


def sup_curve(grid, k, pts, slices, step=fd_step, diff=None):
    """Order-k sup curve, eps by eps: ``slices(eps)`` is a tuple of one or
    two slice handles, ``pts`` an array or a function eps -> points, the
    jet step ``step(eps)``; a pair is measured by ``diff(a, b)`` (scalar)
    when given, else by the sup of |a - b|."""
    curve = []
    for eps in grid:
        x = pts(eps) if callable(pts) else pts
        hs = slices(eps)
        h = step(eps)
        sup = 0.0
        for alpha in _index_tuples(hs[0].dim_in, k):
            j = [s.jet(x, alpha, h) for s in hs]
            if diff is not None:
                sup = max(sup, diff(*j))
            else:
                sup = max(sup, sup_abs(j[0] if len(j) == 1 else j[0] - j[1]))
        curve.append(sup)
    return curve


def cbounded_report(u, K, grid):
    """``check_cbounded``'s report, computed eps by eps."""
    pts = _check_points(K)
    tgt_chart = None
    finite_rows = []
    mags = []
    escape_eps = None
    for eps in grid:
        tgt, y = u.eval(eps, pts, K.chart_id)
        tgt_chart = tgt
        finite = np.all(np.isfinite(y), axis=-1)
        if np.any(finite):
            finite_rows.append(y[finite])
            mags.append(float(np.max(np.abs(y[finite]))))
        else:
            mags.append(math.inf)
        inside = np.all(finite) and np.all(
            inside_box(u.target.chart(tgt).box, y, 1e-9)
        )
        if not inside and escape_eps is None:
            escape_eps = eps

    if not finite_rows:
        raise ImageEscapesAtlas(
            f"{u.label or 'net'} produces no finite images on the grid"
        )

    diagnostics: dict = {"grid": grid, "samples": len(pts)}
    if escape_eps is not None:
        diagnostics["escape_eps"] = escape_eps

    half = len(mags) // 2
    growing = max(mags[half:]) > 100.0 * (max(mags[:half]) + 1.0)
    ok = escape_eps is None and not growing
    if growing:
        diagnostics["growth_ratio"] = max(mags[half:]) / (max(mags[:half]) + 1.0)

    witness = (
        _witness_region(u.target, tgt_chart, np.vstack(finite_rows)) if ok else None
    )
    return CBoundedReport(ok, witness, diagnostics)


def distance_curve(u, v, pts, src, grid):
    """Per eps, the sup over the points (an array, or a function eps ->
    points) of the chord distance between the images of u and v, inf where
    a distance is not finite."""
    curve = []
    for eps in grid:
        x = pts(eps) if callable(pts) else pts
        t_u, yu = u.eval(eps, x, src)
        yv = v.image_in(eps, x, t_u, src)
        curve.append(sup_abs(chord_distance(u.target, t_u, yu, yv)))
    return curve


def bank_difference_curves(u, v, bank, src, grid, pts):
    """(test label, 0, sup curve of |f(u_eps) - f(v_eps)|) per bank test f,
    the bank evaluated on each net's image eps by eps."""
    order0 = []
    for eps in grid:
        x = np.asarray(pts(eps) if callable(pts) else pts, dtype=float)
        yu = u.handle(eps, src)[1].eval_fn(x)
        yv = v.handle(eps, src)[1].eval_fn(x)
        a = np.abs(bank.eval(yu) - bank.eval(yv))
        finite = np.all(np.isfinite(a), axis=1)
        order0.append(np.where(finite, np.max(a, axis=1, initial=0.0), np.inf))
    curves = np.transpose(order0).tolist()
    return [(label, 0, curve) for label, curve in zip(bank.labels, curves)]


def fiber_test_hom_route_curve(u, v, cutoff, pts, src, grid):
    """The test-hom route of fiber equivalence, eps by eps: the sup over
    the points of the cutoff at each net's base image times its fiber,
    differenced (``sup_diff``).  ``cutoff(base_net, eps)`` is the cutoff
    at the base images of ``pts``."""
    net_u, net_v = u.fiber, v.fiber
    fiber_axes = (1,) * len(net_u.fiber_shape)
    curve = []
    for eps in grid:
        chi_u = cutoff(u.base_net, eps)
        chi_v = cutoff(v.base_net, eps)
        Fu = fiber_values(net_u, eps, pts)
        Fv = fiber_values(net_v, eps, pts)
        curve.append(sup_diff(
            chi_u.reshape(chi_u.shape + fiber_axes) * Fu,
            chi_v.reshape(chi_v.shape + fiber_axes) * Fv,
        ))
    return curve


def adversarial_choices(u, v, pts, src, grid, fibers=None):
    """The sample point an adversarial point takes at each eps, eps by
    eps: the argmax over ``pts`` of the max-norm image gap (plus the fiber
    gap of the fiber nets ``fibers`` when given, a non-finite gap reading
    inf), ties to the lowest index."""
    chosen = []
    for eps in grid:
        t_u, yu = u.eval(eps, pts, src)
        yv = v.image_in(eps, pts, t_u, src)
        gap = np.max(np.abs(yu - yv), axis=-1)
        if fibers is not None:
            su, sv = (fiber_values(f, eps, pts) for f in fibers)
            gap = gap + np.max(np.abs(su - sv).reshape(len(pts), -1), axis=-1)
            gap = np.where(np.isfinite(gap), gap, np.inf)
        chosen.append(pts[int(np.argmax(gap))])
    return chosen


# ---------------------------------------------------------------------------
# generalized points, one eps at a time


def point_value(u, p, grid=None):
    """The point eps -> u_eps(p_eps), its value taken eps by eps: p's
    coordinates checked against their chart's box, then u's eps-slice at
    them (``manifold_maps.point_value``)."""
    grid = grid or EpsGrid.default()
    cb = check_cbounded(u, p.support, grid)
    if not cb.ok:
        raise NotCBounded("point insertion needs a c-bounded net on the support")

    def at(eps):
        cid, x = p.at(eps)
        if not box_contains(u.source.chart(cid).box, x, slack=1e-9):
            raise OutsideDomain("generalized point leaves the source chart")
        tgt, y = u.eval(eps, x[None, :], cid)
        return tgt, y[0]

    return GeneralizedManifoldPoint(
        at, cb.witness, label=f"{u.label or 'u'}({p.label or 'p'})"
    )


def point_distance(atlas, cp, xp, cq, xq):
    """Chord distance between one pair of points (cp, xp) and (cq, xq), in
    chart cp; a gap within 4 ulps of the larger coordinate on either side
    of the chart change is a measured zero."""
    xp = np.asarray(xp, dtype=float)
    xq = np.asarray(xq, dtype=float)
    if xp.shape != xq.shape:
        raise DimensionMismatch(f"points of shapes {xp.shape} and {xq.shape}")
    scale = max(float(np.max(np.abs(xp))), float(np.max(np.abs(xq))))
    if cp != cq:
        xq = atlas.to_chart(xq, cq, cp)
        scale = max(scale, float(np.max(np.abs(xq))))
    gap = float(np.max(np.abs(xp - xq)))
    if math.isfinite(gap) and gap <= 4.0 * np.finfo(float).eps * scale:
        return 0.0
    return chord_distance(atlas, cp, xp, xq)


def gpoint_distance_curve(atlas, p, q, grid):
    """Per eps, the point distance between p and q."""
    curve = []
    for eps in grid:
        cp, xp = p.at(eps)
        cq, xq = q.at(eps)
        curve.append(point_distance(atlas, cp, xp, cq, xq))
    return curve


def hybrid_point_value(u, p):
    """The bundle point eps -> u_eps(p_eps) of a hybrid net, eps by eps
    through ``FiberNet.apply`` (``bundle_maps.hybrid_point_value``)."""
    cb = check_cbounded(u.base_net, p.support)
    if not cb.ok:
        raise NotCBounded("hybrid point value needs a c-bounded base net")

    def at(eps):
        cid, x = p.at(eps)
        tgt, y, vec = u.apply(eps, x[None, :], src_chart=cid)
        return tgt, y[0], vec[0]

    return VBGeneralizedPoint(at, cb.witness, label=f"{u.label}({p.label})")


def vb_point_curves(vb, p, q, grid):
    """(base distance curve, fiber difference curve) of two bundle points,
    eps by eps: q's fiber is moved into p's chart where their charts
    differ, and the fiber difference is ``sup_diff``."""
    base_curve, fiber_curve = [], []
    for eps in grid:
        cp, xp, fp = p.at(eps)
        cq, xq, fq = q.at(eps)
        if cp != cq:
            fq = vb.fiber_transition(cq, cp, xq) @ fq
        base_curve.append(point_distance(vb.base, cp, xp, cq, xq))
        fiber_curve.append(sup_diff(fp, fq))
    return base_curve, fiber_curve


def vb_points_equivalent(vb, p, q, grid=None):
    """``bundle_maps.vb_points_equivalent`` on the curves of
    ``vb_point_curves``, classified by ``bundle_maps``' classifier."""
    grid = grid or EpsGrid.default()
    base_curve, fiber_curve = vb_point_curves(vb, p, q, grid)
    tends = bundle_maps.negligible_to_resolution
    return tends(base_curve, grid) and tends(fiber_curve, grid)


def pointvalue_curves(u, v, points, grid):
    """Per point, the distance curve of u's and v's point values, one
    point and one eps at a time."""
    return [
        gpoint_distance_curve(
            u.target, point_value(u, p, grid), point_value(v, p, grid), grid
        )
        for p in points
    ]


def hybrid_pointvalue_curves(u, v, points, grid):
    """Per point, the (base, fiber) curves of u's and v's hybrid point
    values, one point and one eps at a time."""
    return [
        vb_point_curves(u.target, hybrid_point_value(u, p), hybrid_point_value(v, p), grid)
        for p in points
    ]
