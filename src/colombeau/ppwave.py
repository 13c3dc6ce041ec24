"""Geodesics of a regularized impulsive plane-fronted wave.

The metric D(u) f(x,y) du^2 - du dv + dx^2 + dy^2 with D a scaled unit-mass
pulse has exactly five nonzero Christoffel symbols, u is affine along the
geodesics of interest, and the system in the remaining components reads

    x'' = D f_x / 2,   y'' = D f_y / 2,
    v'' = D' f + 2 D (f_x x' + f_y y')

with ' = d/du.  Off the pulse support the right-hand side vanishes and the
solutions are straight lines, so slices are integrated only across the
pulse window and extended linearly on both sides.  As the pulse narrows
the transverse components converge to a broken straight line (a kink);
the study below measures that convergence and the velocity jump.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .asymptotics import EpsGrid, estimate_growth_order
from .association import ASSOC_TOL, Mollifier, check_k_associated
from .errors import (
    ConfigError,
    NonFiniteValue,
    NotCBounded,
    OutsideDomain,
)
from .geometry import CompactSet, euclidean_atlas, make_handle, sample_box
from .manifold_maps import check_cbounded, single_chart_map
from .nets import Net, SmoothMapHandle, net_from_function

# DOP853 tolerances of every slice solve
_RTOL = 1e-10
_ATOL = 1e-12


def saddle_profile() -> SmoothMapHandle:
    """f(x, y) = x^2 - y^2 with analytic jets."""

    def ev(p):
        return (p[..., 0] ** 2 - p[..., 1] ** 2)[..., None]

    def jf(p, alpha):
        shape = p.shape[:-1] + (1,)
        if alpha == (1, 0):
            return (2.0 * p[..., 0])[..., None]
        if alpha == (0, 1):
            return (-2.0 * p[..., 1])[..., None]
        if alpha == (2, 0):
            return np.full(shape, 2.0)
        if alpha == (0, 2):
            return np.full(shape, -2.0)
        return np.zeros(shape)

    return make_handle(ev, 2, 1, jet_fn=jf, k_max=4, name="saddle")


@dataclass
class PPWaveProfile:
    """Transverse wave profile with its working box in (x, y)."""

    f: SmoothMapHandle
    box: np.ndarray = field(
        default_factory=lambda: np.array([[-4.0, 4.0], [-4.0, 4.0]])
    )

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float).reshape(2, 2)
        if self.f.dim_in != 2 or self.f.dim_out != 1:
            raise ConfigError("wave profile must map the plane to scalars")
        pts = sample_box(self.box, 5)
        vals = self.f(pts)
        grads = self.gradient(pts)
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(grads))):
            raise NonFiniteValue("profile or its gradient blows up on the box")

    def value(self, xy):
        return self.f(xy)[..., 0]

    def gradient(self, xy):
        fx = self.f.jet(xy, (1, 0))[..., 0]
        fy = self.f.jet(xy, (0, 1))[..., 0]
        return np.stack([fx, fy], axis=-1)


def default_profile() -> PPWaveProfile:
    return PPWaveProfile(saddle_profile())


def pulse(rho: Mollifier, eps: float, u):
    u = np.asarray(u, dtype=float)
    return rho.profile(u[..., None] / eps)[..., 0] / eps


# ---------------------------------------------------------------------------
# geodesic equations


def regularized_geodesic_system(profile: PPWaveProfile, rho: Mollifier, eps: float):
    """Right-hand side in state (v, x, y, v', x', y'), u the parameter:
    -Gamma^k_ij X'^i X'^j of the metric in the module docstring, with u' = 1."""
    if not eps > 0:
        raise ConfigError("eps must be positive")
    # the profile's jet rule, bound once, at the step SmoothMapHandle.jet
    # passes by default
    grad = profile.f.jet_impl

    def rhs(u, state):
        v, x, y, vd, xd, yd = state
        D, Dp = rho.pulse_at(eps, u)
        p = np.array([x, y])
        f = profile.f.eval_fn(p)[0]
        fx = grad(p, (1, 0), 1e-6)[0]
        fy = grad(p, (0, 1), 1e-6)[0]
        return [vd, xd, yd, Dp * f + 2.0 * D * (fx * xd + fy * yd),
                0.5 * D * fx, 0.5 * D * fy]

    return rhs


# ---------------------------------------------------------------------------
# integration


@dataclass
class GeodesicSlice:
    """One eps-slice: exact straight lines off the pulse, an adaptive
    integration across it."""

    eps: float
    u_span: tuple
    pieces: list
    energy_drift: float

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

    def component(self, us, name):
        idx = {"v": 0, "x": 1, "y": 2, "vdot": 3, "xdot": 4, "ydot": 5}[name]
        return self.states(us)[..., idx]


def solve_geodesic(
    profile: PPWaveProfile,
    rho: Mollifier,
    eps: float,
    init: Sequence[float],
    u_span: tuple,
) -> GeodesicSlice:
    """Integrate one slice of the geodesic system across the pulse.

    ``init`` is (v, x, y, v', x', y') at u_span[0].  The step cap inside
    the pulse is its width over sixteen.
    """
    u0, u1 = float(u_span[0]), float(u_span[1])
    if u1 == u0:
        raise ConfigError("u-interval must have nonzero length")
    state = np.asarray(init, dtype=float).copy()
    if state.shape != (6,):
        raise ConfigError("initial data is (v, x, y, v', x', y')")
    r = rho.support_radius * eps
    rhs = regularized_geodesic_system(profile, rho, eps)

    # traversal may run in either u-direction; crossings of the pulse
    # edges split the interval into exact-line and integrated pieces
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
                rtol=_RTOL,
                atol=_ATOL,
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
    slice_ = GeodesicSlice(eps, (u0, u1), pieces, 0.0)
    us = np.concatenate([[u0], probe])
    st = np.concatenate([np.asarray(init, dtype=float)[None], slice_.states(probe)])
    energy = (pulse(rho, eps, us) * profile.value(st[:, 1:3])
              - st[:, 3] + st[:, 4] ** 2 + st[:, 5] ** 2)
    slice_.energy_drift = float(np.max(np.abs(energy[1:] - energy[0])))
    return slice_


@dataclass
class GeodesicNet:
    """eps-parametrized family of geodesic slices for fixed initial data."""

    profile: PPWaveProfile
    rho: Mollifier
    init: tuple
    u_span: tuple
    _slices: dict = field(default_factory=dict, repr=False)

    def slice(self, eps: float) -> GeodesicSlice:
        s = self._slices.get(eps)
        if s is None:
            s = solve_geodesic(
                self.profile, self.rho, eps, self.init, self.u_span,
            )
            self._slices[eps] = s
        return s

    def component_net(self, name: str) -> Net:
        """The named state component as a net over the u-interval; its
        values only, with finite-difference jets."""

        def ev(e, u):
            return self.slice(e).component(u[..., 0], name)[..., None]

        return net_from_function(
            ev, 1, 1, box=[self.u_span], label=f"geodesic-{name}"
        )


# ---------------------------------------------------------------------------
# the kink study


@dataclass
class KinkFit:
    value_at_break: float
    slope_before: float
    slope_after: float

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return self.value_at_break + np.where(
            u < 0.0, self.slope_before * u, self.slope_after * u
        )

    @property
    def jump(self):
        return self.slope_after - self.slope_before


@dataclass
class KinkReport:
    grid: EpsGrid
    cauchy_sups: list
    cauchy_ok: bool
    kink: KinkFit
    jump: float
    jump_stability: float
    x_cbounded: bool
    x_sup: float
    associated: bool
    assoc_routes: tuple
    vdot_growth: str
    flags: list
    net: GeodesicNet

    def __bool__(self):
        return self.cauchy_ok and self.x_cbounded and self.associated

    def lines(self):
        out = [
            f"grid: {len(self.grid.values)} eps values in "
            f"[{self.grid.values[-1]:.3g}, {self.grid.values[0]:.3g}]",
            f"cauchy_decreasing_below_tol: {self.cauchy_ok}",
            f"final_cauchy_sup: {self.cauchy_sups[-1]:.3e}",
            f"velocity_jump: {self.jump:.6f}",
            f"jump_stability: {self.jump_stability:.2%}",
            f"kink_break_value: {self.kink.value_at_break:.6f}",
            f"x_component_c_bounded: {self.x_cbounded} (sup {self.x_sup:.4f})",
            f"zero_associated_to_kink: {self.associated} "
            f"(distance route {self.assoc_routes[0]}, bank route {self.assoc_routes[1]})",
            f"vdot_sup_growth: {self.vdot_growth}",
        ]
        out += [f"flag: {f}" for f in self.flags]
        return out


def _fit_kink(slice_: GeodesicSlice, pulse_radius: float) -> KinkFit:
    r = pulse_radius
    pre = slice_.states(np.array([-r]))[0]
    post = slice_.states(np.array([r]))[0]
    a_minus, a_plus = pre[4], post[4]
    x0_minus = pre[1] + a_minus * r
    x0_plus = post[1] - a_plus * r
    return KinkFit(0.5 * (x0_minus + x0_plus), a_minus, a_plus)


def kink_limit_study(
    profile: PPWaveProfile,
    rho: Mollifier,
    init: Sequence[float],
    grid: EpsGrid,
    u_span: tuple = (-0.5, 0.5),
    window: Optional[tuple] = None,
    assoc_tol: float = ASSOC_TOL,
) -> KinkReport:
    """Convergence of the transverse geodesic component to a broken line.

    Solves every slice on the grid, measures the Cauchy sup-distances
    between consecutive slices on the compact window, fits the limiting
    kink from the smallest slice, and runs the 0-association check of the
    component net against the constant-in-eps kink net.
    """
    window = window or (0.8 * u_span[0], 0.8 * u_span[1])
    eps_values = list(grid)
    if eps_values[0] * rho.support_radius >= min(-u_span[0], u_span[1]):
        raise ConfigError("largest pulse does not fit inside the u-interval")

    gnet = GeodesicNet(profile, rho, tuple(float(s) for s in init), u_span)
    us = np.linspace(window[0], window[1], 801)
    xs = {e: gnet.slice(e).component(us, "x") for e in eps_values}

    cauchy = [
        float(np.max(np.abs(xs[a] - xs[b])))
        for a, b in zip(eps_values[:-1], eps_values[1:])
    ]
    dec = all(b <= a * (1.0 + 1e-9) + 1e-14 for a, b in zip(cauchy, cauchy[1:]))
    cauchy_ok = dec and cauchy[-1] < assoc_tol

    flags = []
    if not cauchy_ok:
        flags.append(
            "cauchy distances do not settle below the association tolerance"
        )

    e_min = eps_values[-1]
    kink = _fit_kink(gnet.slice(e_min), rho.support_radius * e_min)
    kink_prev = _fit_kink(
        gnet.slice(eps_values[-2]), rho.support_radius * eps_values[-2]
    )
    denom = max(abs(kink.jump), 1e-12)
    jump_stability = abs(kink.jump - kink_prev.jump) / denom

    # manifold wrapping for the c-boundedness and association checks
    u_atlas = euclidean_atlas(1)
    K = CompactSet("main", [window])
    x_net = gnet.component_net("x")
    x_map = single_chart_map(
        u_atlas, u_atlas, lambda e, u: x_net.at(e)(u), label="geodesic-x",
        feature_scale=lambda e: [(-rho.support_radius * e, rho.support_radius * e)],
    )
    kink_map = single_chart_map(
        u_atlas, u_atlas, lambda e, u: kink(u[..., 0])[..., None], label="kink"
    )

    try:
        cb = check_cbounded(x_map, K, grid)
        x_cbounded = bool(cb.ok)
    except NotCBounded:
        x_cbounded = False
    x_sup = float(max(np.max(np.abs(xs[e])) for e in eps_values))

    assoc = check_k_associated(x_map, kink_map, 0, K, grid=grid, assoc_tol=assoc_tol)
    if not assoc:
        flags.append("transverse component is not 0-associated to the fitted kink")

    # the longitudinal velocity concentrates at the pulse: its sup grows
    # like an inverse power of eps and the report says so
    vdot_sups = []
    for e in eps_values:
        r = rho.support_radius * e
        uu = np.linspace(-r, r, 129)
        vdot_sups.append(float(np.max(np.abs(gnet.slice(e).component(uu, "vdot")))))
    verdict = estimate_growth_order(vdot_sups, grid)
    if verdict.classification == "moderate" and (verdict.order or 0) >= 1:
        vdot_growth = f"grows like eps^-{verdict.order} (pulse-scale feature)"
        flags.append("longitudinal velocity is not uniformly bounded in eps")
    else:
        vdot_growth = f"{verdict.classification} (order {verdict.order})"

    return KinkReport(
        grid=grid,
        cauchy_sups=cauchy,
        cauchy_ok=cauchy_ok,
        kink=kink,
        jump=kink.jump,
        jump_stability=jump_stability,
        x_cbounded=x_cbounded,
        x_sup=x_sup,
        associated=bool(assoc),
        assoc_routes=(assoc.route_distance, assoc.route_bank),
        vdot_growth=vdot_growth,
        flags=flags,
        net=gnet,
    )


def widened(rho: Mollifier, scale: float, label: str = "") -> Mollifier:
    """Same shape stretched to support radius scale * r, mass preserved."""
    return Mollifier(
        rho.sharpness, rho.support_radius * scale, label or f"{rho.id}-x{scale:g}"
    )


def trajectory_csv(gnet: GeodesicNet, eps_values: Sequence[float], path) -> None:
    """Dense state dump, one block per eps: eps,u,v,x,y,xdot."""
    u0, u1 = gnet.u_span
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "u", "v", "x", "y", "xdot"])
        for e in eps_values:
            r = gnet.rho.support_radius * e
            us = np.linspace(u0, u1, 161)
            if u0 < -r and u1 > r:
                us = np.concatenate([us, np.linspace(-r, r, 81)])
            us = np.unique(us)
            st = gnet.slice(e).states(us)
            for u, row in zip(us, st):
                writer.writerow(
                    [
                        f"{e:.12g}",
                        f"{u:.12g}",
                        f"{row[0]:.17g}",
                        f"{row[1]:.17g}",
                        f"{row[2]:.17g}",
                        f"{row[4]:.17g}",
                    ]
                )
