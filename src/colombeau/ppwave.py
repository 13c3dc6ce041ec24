"""Geodesics of a regularized impulsive plane-fronted wave.

The metric D(u) f(x,y) du^2 - du dv + dx^2 + dy^2 with D a scaled unit-mass
pulse has exactly five nonzero Christoffel symbols, u is affine along the
geodesics of interest, and the system in the remaining components reads

    x'' = D f_x / 2,   y'' = D f_y / 2,
    v'' = D' f + 2 D (f_x x' + f_y y')

with ' = d/du.  Off the pulse support the right-hand side vanishes and the
solutions are straight lines, so slices are integrated only across the
pulse window and extended linearly on both sides.

Across the pulse the solver uses the pulse variable s = u/eps.  With D the
scaled mollifier rho(u/eps)/eps of support radius R, every slice then lives
on the same interval s in [-R, R], the state stays (v, x, y, v', x', y')
with ' = d/du, and

    d(v, x, y)/ds = eps (v', x', y'),
    dx'/ds = rho(s) f_x / 2,   dy'/ds = rho(s) f_y / 2,
    dv'/ds = rho'(s) f / eps + 2 rho(s) (f_x x' + f_y y').

So the slices of a study are integrated together, as one
system with one column per eps.  As the pulse narrows the transverse
components converge to a broken straight line (a kink); the study below
measures that convergence and the velocity jump.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .asymptotics import EpsGrid, estimate_growth_order
from .association import ASSOC_TOL, Mollifier, check_k_associated
from .errors import ConfigError, NonFiniteValue, OutsideDomain
from .geometry import CompactSet, euclidean_atlas, make_handle, sample_box
from .manifold_maps import ManifoldNet, check_cbounded, single_chart_map
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


# ---------------------------------------------------------------------------
# geodesic equations


def regularized_geodesic_system(profile: PPWaveProfile, rho: Mollifier, eps_values):
    """Right-hand side d/ds, in the pulse variable s = u/eps, of the slices
    at ``eps_values`` stacked as one state: eps times -Gamma^k_ij X'^i X'^j
    of the metric in the module docstring, with u' = 1.  The stacked state
    is (v, x, y, v', x', y'), each component an array over the eps values,
    flattened component-major; ' stays d/du."""
    eps = np.atleast_1d(np.asarray(eps_values, dtype=float))
    if eps.ndim != 1 or eps.size == 0 or not np.all(eps > 0):
        raise ConfigError("eps values must be positive")
    # the profile's value and jet rules, bound once; the jet at the step
    # SmoothMapHandle.jet passes by default
    value = profile.f.eval_fn
    grad = profile.f.jet_impl

    def rhs(s, state):
        st = np.asarray(state, dtype=float).reshape(6, -1)
        xd, yd = st[4], st[5]
        D, Dp = rho.pulse_at(s)
        # the transverse points (x, y) as a view, one row per eps
        p = st[1:3].T
        f = value(p)[:, 0]
        fx = grad(p, (1, 0), 1e-6)[:, 0]
        fy = grad(p, (0, 1), 1e-6)[:, 0]
        return np.concatenate([
            (eps * st[3:]).ravel(),
            Dp * f / eps + 2.0 * D * (fx * xd + fy * yd), 0.5 * D * fx, 0.5 * D * fy,
        ])

    return rhs


# ---------------------------------------------------------------------------
# integration


def _line(state, anchor, us):
    """States on the straight line through ``state`` at u = anchor."""
    out = np.tile(state, (us.size, 1))
    out[:, :3] += state[3:] * (us - anchor)[:, None]
    return out


@dataclass(frozen=True)
class StepPolynomials:
    """The DOP853 dense output of one solve as arrays: step points ``ts``,
    the state ``y0`` at the start of each step, the steps ``h`` and the
    7-term interpolant coefficients ``F`` of each step, of shapes
    (n_seg + 1,), (n_seg, m), (n_seg,) and (n_seg, 7, m).

    Called on points t, it evaluates every point in one pass, with the
    segment choice of scipy's ``OdeSolution`` and the operations of
    ``Dop853DenseOutput`` in their order, so the values are scipy's bit
    for bit."""

    ts: np.ndarray
    y0: np.ndarray
    h: np.ndarray
    F: np.ndarray

    def take(self, rows) -> "StepPolynomials":
        """The polynomials of the state components ``rows`` alone."""
        return StepPolynomials(self.ts, self.y0[:, rows], self.h, self.F[:, :, rows])

    def __call__(self, t):
        """States at the points t, shape (t.size, m)."""
        # a step point belongs to the step that ends there; a descending
        # solve is searched on the negated, ascending step points, which is
        # OdeSolution's side="right" search on the reversed ones
        d = 1.0 if self.ts[-1] >= self.ts[0] else -1.0
        seg = np.clip(np.searchsorted(d * self.ts, d * t, side="left") - 1, 0, self.h.size - 1)
        x = ((t - self.ts[seg]) / self.h[seg])[:, None]
        F = self.F[seg]
        y = np.zeros((t.size, F.shape[2]))
        for i in range(F.shape[1]):
            y += F[:, -1 - i]
            y *= x if i % 2 == 0 else 1 - x
        y += self.y0[seg]
        return y


@dataclass
class GeodesicSlice:
    """One eps-slice: exact straight lines off the pulse [-radius, radius],
    through ``init`` at u_span[0] before it and through ``exit_state`` at
    the edge where the traversal leaves it; across it, ``pulse``, the
    slice's six rows of the DOP853 step polynomials in s = u/eps of the
    stack it was solved in."""

    eps: float
    u_span: tuple
    init: np.ndarray
    exit_state: np.ndarray
    radius: float
    pulse: StepPolynomials
    energy_drift: float

    def states(self, us):
        us = np.atleast_1d(np.asarray(us, dtype=float))
        u0, u1 = self.u_span
        lo, hi = sorted(self.u_span)
        if np.any(us < lo - 1e-12) or np.any(us > hi + 1e-12):
            raise OutsideDomain("query outside the integrated u-interval")
        # w runs along the traversal: the incoming line, the pulse, then
        # the outgoing line from the pulse edge where the traversal leaves
        sgn = 1.0 if u1 > u0 else -1.0
        w = sgn * us
        ahead = w < -self.radius
        behind = w >= self.radius
        inside = ~(ahead | behind)
        out = np.empty(us.shape + (6,))
        out[ahead] = _line(self.init, u0, us[ahead])
        out[behind] = _line(self.exit_state, sgn * self.radius, us[behind])
        if np.any(inside):
            out[inside] = self.pulse(us[inside] / self.eps)
        return out

    def component(self, us, name):
        idx = {"v": 0, "x": 1, "y": 2, "vdot": 3, "xdot": 4, "ydot": 5}[name]
        return self.states(us)[..., idx]


def solve_geodesic(
    profile: PPWaveProfile,
    rho: Mollifier,
    eps_values: Sequence[float],
    init: Sequence[float],
    u_span: tuple,
) -> list:
    """Integrate the geodesic system across the pulse for every eps at once,
    and return one slice per eps, in order.

    ``init`` is (v, x, y, v', x', y') at u_span[0], traversal may run in
    either u-direction, and every pulse [-R eps, R eps], R the support
    radius, must lie inside the u-interval.  Each slice's incoming line
    runs from u_span[0] to its pulse edge.  Across the pulse all slices are
    one DOP853 system in s = u/eps on [-R, R], with the step cap R/16.  Its
    rtol is _RTOL/sqrt(6n): scipy's error norm is a root mean square over
    the 6n stacked components, and the factor restores the per-component
    bound.  Each outgoing line starts at the pulse edge from the stack's
    end state.  The stack's dense output is kept as ``StepPolynomials``,
    its coefficients read from scipy's interpolants, and each slice keeps
    its own six rows of them.
    """
    u0, u1 = float(u_span[0]), float(u_span[1])
    if u1 == u0:
        raise ConfigError("u-interval must have nonzero length")
    state = np.asarray(init, dtype=float).copy()
    if state.shape != (6,):
        raise ConfigError("initial data is (v, x, y, v', x', y')")
    rhs = regularized_geodesic_system(profile, rho, eps_values)
    eps = np.atleast_1d(np.asarray(eps_values, dtype=float))
    n = eps.size
    R = rho.support_radius
    r = R * eps
    if not (min(u0, u1) < -r.max() and r.max() < max(u0, u1)):
        raise ConfigError("largest pulse does not fit inside the u-interval")
    sgn = 1.0 if u1 > u0 else -1.0

    # every slice's incoming line, from u_span[0] to its pulse edge
    entry = np.repeat(state[:, None], n, axis=1)
    entry[:3] += state[3:, None] * (-sgn * r - u0)
    sol = solve_ivp(
        rhs,
        (-sgn * R, sgn * R),
        entry.ravel(),
        method="DOP853",
        rtol=_RTOL / np.sqrt(6 * n),
        atol=_ATOL,
        max_step=R / 16.0,
        dense_output=True,
    )
    if not sol.success:
        raise NonFiniteValue(f"integrator failed across the pulse: {sol.message}")
    exit_states = sol.y[:, -1].reshape(6, n)
    polys = StepPolynomials(
        sol.t, sol.y[:, :-1].T, np.diff(sol.t),
        np.stack([step.F for step in sol.sol.interpolants]),
    )

    # drift of g(X', X') on the dense output from its value off the pulse,
    # over probes across it
    ss = np.linspace(-R, R, 65)
    st = polys(ss).T.reshape(6, n, ss.size)
    D = rho.profile(ss[:, None])[:, 0] / eps[:, None]
    energy = (D * profile.value(np.stack([st[1], st[2]], axis=-1))
              - st[3] + st[4] ** 2 + st[5] ** 2)
    e0 = -state[3] + state[4] ** 2 + state[5] ** 2
    drift = np.max(np.abs(energy - e0), axis=1)

    return [
        GeodesicSlice(float(e), (u0, u1), state, exit_states[:, i].copy(), float(r[i]),
                      polys.take(i + n * np.arange(6)), float(drift[i]))
        for i, e in enumerate(eps)
    ]


@dataclass
class GeodesicNet:
    """eps-parametrized family of geodesic slices for fixed initial data;
    a slice, once solved, is kept."""

    profile: PPWaveProfile
    rho: Mollifier
    init: tuple
    u_span: tuple
    _slices: dict = field(default_factory=dict, repr=False)

    def slices(self, eps_values: Sequence[float]) -> list:
        """The slices at ``eps_values``; the missing ones are solved as one
        stack."""
        missing = [e for e in dict.fromkeys(eps_values) if e not in self._slices]
        if missing:
            self._slices.update(zip(missing, solve_geodesic(
                self.profile, self.rho, missing, self.init, self.u_span,
            )))
        return [self._slices[e] for e in eps_values]

    def slice(self, eps: float) -> GeodesicSlice:
        return self.slices([eps])[0]

    def component_net(self, name: str) -> Net:
        """The named state component as a net over the u-interval; its
        values only, with finite-difference jets.  Its feature window at eps
        is the pulse [-R eps, R eps], R the support radius."""
        R = self.rho.support_radius

        def ev(e, u):
            return self.slice(e).component(u[..., 0], name)[..., None]

        return net_from_function(
            ev, 1, 1, box=[self.u_span], label=f"geodesic-{name}",
            feature_scale=lambda e: [(-R * e, R * e)],
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
    energy_drift: float
    """The worst drift of g(X', X') from its value off the pulse over the
    slices, read on the dense-output interpolant at 65 probes across the
    pulse, not at the accepted steps: it measures the interpolant as much
    as the integration."""
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
        out.append(f"energy_drift: {self.energy_drift:.3e}")
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

    Solves every slice on the grid as one stack, measures the Cauchy sup-distances
    between consecutive slices on the compact window, fits the limiting
    kink from the smallest slice, and runs the 0-association check of the
    component net against the constant-in-eps kink net.
    """
    window = window or (0.8 * u_span[0], 0.8 * u_span[1])
    eps_values = list(grid)
    gnet = GeodesicNet(profile, rho, tuple(float(s) for s in init), u_span)
    slices = gnet.slices(eps_values)
    us = np.linspace(window[0], window[1], 801)
    xs = {e: s.component(us, "x") for e, s in zip(eps_values, slices)}

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
    x_map = ManifoldNet(
        u_atlas, u_atlas, "main", "main", gnet.component_net("x"), "geodesic-x"
    )
    kink_map = single_chart_map(
        u_atlas, u_atlas, lambda e, u: kink(u[..., 0])[..., None], label="kink"
    )

    x_cbounded = bool(check_cbounded(x_map, K, grid).ok)
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
        energy_drift=max(s.energy_drift for s in slices),
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
