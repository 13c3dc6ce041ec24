"""Reference computations that tests compare library code with: the
polyline Riemannian distance (for ``geometry.chord_distance``), finite-
difference Christoffel symbols of the pp-wave metric (for the right-hand
side of ``ppwave.regularized_geodesic_system``), a polar transition pair
(for the atlas invariant checks), and the test bank's tests as separate
handles (for ``geometry.TestBank.eval`` and the bank route)."""

import math

import numpy as np
from scipy.optimize import minimize

from colombeau.errors import AtlasMismatch, NoMetric, OutsideDomain
from colombeau.geometry import (
    _BANK_SIZE,
    _lattice,
    box_contains,
    make_box_bump,
    make_bump,
    make_handle,
    sample_box,
)
from colombeau.nets import handle_product
from colombeau.ppwave import pulse


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
        done = abs(length2 - length) <= rel_tol * max(length2, 1e-300)
        verts, length = verts2, length2
        if done:
            break
    return float(length)


def riemannian_distance(atlas, p, q, rel_tol=1e-3, max_segments=64):
    """Length of the shortest sampled polyline from p to q.

    This is an upper bound on the metric distance that converges under
    refinement; segments are doubled until the optimized length changes by
    less than ``rel_tol`` relatively.  For constant metrics the straight
    line is optimal, but the optimizer's finite-difference gradient steps
    leave an absolute error of about 1e-12 near coincident points.  Points
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
