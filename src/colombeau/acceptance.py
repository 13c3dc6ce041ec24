"""Desk-scale acceptance checks covering the whole library surface.

Each criterion is a self-contained runner returning a pass/fail verdict
with a one-line detail string.  Everything is deterministic: fixed seeds,
fixed grids, fixed tolerances.  ``run_all`` executes the ten criteria in
order; the command-line ``suite`` command and the acceptance test module
both drive it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import EpsGrid, estimate_growth_order
from .association import (
    check_associated_zero,
    check_k_associated,
    embed_distribution,
    shadow,
    sharp_mollifier,
    standard_mollifier,
)
from .bundle_maps import (
    align_representative,
    check_hybrid_equivalent,
    check_vb_equivalent,
    compose_homs,
    compose_hybrid,
    hom_u_add,
    hom_u_scale,
    identity_hom,
    section_net,
    single_chart_hom,
)
from .geometry import CompactSet, default_densities, euclidean_atlas, trivial_bundle
from .manifold_maps import (
    check_equivalent,
    check_pointvalue_equality,
    compose,
    identity_map,
    random_gpoints,
    single_chart_map,
)
from .nets import net_from_function
from .ppwave import default_profile, kink_limit_study

LINE = euclidean_atlas(1)
TX = trivial_bundle(LINE, 1)
K1 = CompactSet("main", [(-1.0, 1.0)])


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.index:2d} {self.name}: {self.detail}"


def _amplitude_curve(amp, grid):
    with np.errstate(over="ignore", invalid="ignore"):
        return [float(amp(e)) for e in grid]


def criterion_order_calibration() -> CriterionResult:
    grid = EpsGrid.default()
    v_pole = estimate_growth_order(_amplitude_curve(lambda e: e**-3, grid), grid)
    v_sq = estimate_growth_order(_amplitude_curve(lambda e: e**2, grid), grid)
    v_flat = estimate_growth_order(
        _amplitude_curve(lambda e: np.exp(-1.0 / e), grid), grid
    )
    v_wild = estimate_growth_order(
        _amplitude_curve(lambda e: np.exp(1.0 / e), grid), grid
    )
    checks = [
        v_pole.classification == "moderate" and v_pole.order == 3,
        abs(v_pole.slope + 3.0) <= 0.1,
        v_sq.classification == "negligible" and v_sq.order == 2,
        abs(v_sq.slope - 2.0) <= 0.1,
        v_flat.classification == "negligible"
        and v_flat.order == v_flat.tested_order_cap,
        v_wild.classification == "neither",
    ]
    detail = (
        f"pole {v_pole.classification}({v_pole.order}) slope {v_pole.slope:+.3f}, "
        f"square {v_sq.classification}({v_sq.order}) slope {v_sq.slope:+.3f}, "
        f"flat {v_flat.classification}({v_flat.order}), "
        f"wild {v_wild.classification}"
    )
    return CriterionResult(1, "order-estimator calibration", all(checks), detail)


def _route_suite():
    """Twelve pairs: equivalent, negligible-perturbed, O(eps)- and
    O(1)-separated, three of each."""
    small = lambda e: np.exp(-1.0 / e)
    pairs = [
        (lambda e, x: np.sin(x), lambda e, x: np.sin(x), True),
        (lambda e, x: e * x, lambda e, x: e * x, True),
        (lambda e, x: x**2, lambda e, x: x**2, True),
        (lambda e, x: np.sin(x), lambda e, x: np.sin(x) + small(e), True),
        (lambda e, x: e * x, lambda e, x: e * x + small(e) * np.cos(x), True),
        (lambda e, x: x, lambda e, x: x + small(e) * x**2, True),
        (lambda e, x: x, lambda e, x: x + e, False),
        (lambda e, x: np.sin(x), lambda e, x: np.sin(x) + e * np.cos(x), False),
        (lambda e, x: e * x**2, lambda e, x: e * x**2 + e * x, False),
        (lambda e, x: x, lambda e, x: x + 1.0, False),
        (lambda e, x: np.sin(x), lambda e, x: np.cos(x), False),
        (lambda e, x: x, lambda e, x: 2.0 * x, False),
    ]
    out = []
    for i, (fu, fv, expect) in enumerate(pairs):
        u = single_chart_map(LINE, LINE, fu, label=f"p{i}a")
        v = single_chart_map(LINE, LINE, fv, label=f"p{i}b")
        out.append((u, v, expect))
    return out


def criterion_route_agreement() -> CriterionResult:
    agree = verdicts_ok = 0
    suite = _route_suite()
    for u, v, expect in suite:
        rep = check_equivalent(u, v, K1)
        routes = (rep.route_distance, rep.route_bank, rep.route_chart)
        if len(set(routes)) == 1:
            agree += 1
        if rep.equivalent == expect:
            verdicts_ok += 1
    n = len(suite)
    passed = agree == n and verdicts_ok == n
    detail = f"routes unanimous on {agree}/{n} pairs, verdicts correct on {verdicts_ok}/{n}"
    return CriterionResult(2, "equivalence route agreement", passed, detail)


def criterion_vanishing_pair() -> CriterionResult:
    u = single_chart_map(LINE, LINE, lambda e, x: e * x, label="eps-x")
    v = single_chart_map(LINE, LINE, lambda e, x: e**2 * x**2, label="eps2-x2")
    equal = bool(check_equivalent(u, v, K1))
    assoc = check_k_associated(u, v, 0, K1)
    passed = (not equal) and bool(assoc)
    detail = f"equivalent: {equal}, 0-associated: {bool(assoc)} (routes {assoc.route_distance}/{assoc.route_bank})"
    return CriterionResult(3, "vanishing pair: associated, not equivalent", passed, detail)


def criterion_step_powers() -> CriterionResult:
    heavi = embed_distribution("heaviside", standard_mollifier(), LINE)
    diff = net_from_function(
        lambda e, x: heavi.at(e)(x) ** 2 - heavi.at(e)(x),
        1,
        1,
        box=[(-10, 10)],
        label="step-defect",
        feature_scale=heavi.feature_scale,
    )
    assoc = check_associated_zero(diff, default_densities())
    finals_ok = all(abs(r.final) < 1e-3 for r in assoc.rows)
    # the defect at the half-way point of the step is order one forever
    sup_diffs = []
    for e in (2.0**-10, 2.0**-12):
        h = heavi.at(e)(np.array([[0.0]]))[0, 0]
        sup_diffs.append(abs(h**2 - h))
    witness_ok = all(abs(s - 0.25) <= 1e-3 for s in sup_diffs)
    passed = bool(assoc) and finals_ok and witness_ok
    detail = (
        f"bank pairings < 1e-3: {finals_ok}, sup-difference witness "
        f"{sup_diffs[-1]:.6f} (target 0.25)"
    )
    return CriterionResult(4, "step powers: associated, not equal", passed, detail)


def criterion_mollifier_sensitivity() -> CriterionResult:
    rho1, rho2 = standard_mollifier(), sharp_mollifier()
    c1, c2 = rho1.squared_mass(), rho2.squared_mass()
    sep = abs(c1 - c2) / c1
    nu = default_densities()[0]
    nu0 = float(nu.handle(np.zeros((1, 1)))[0, 0])
    grid = EpsGrid.dyadic(2, 14)
    d1 = embed_distribution("delta", rho1, LINE)
    d2 = embed_distribution("delta", rho2, LINE)

    rel = []
    for d, c in ((d1, c1), (d2, c2)):
        sq = net_from_function(
            lambda e, x, _d=d: e * _d.at(e)(x) ** 2, 1, 1, box=[(-10, 10)],
            label="sq", feature_scale=d.feature_scale,
        )
        rep = shadow(sq, [nu], candidate=lambda n, _c=c: _c * nu0, grid=grid)
        rel.append(rep.rows[0].residual / abs(c * nu0))
    shadows_ok = all(r < 1e-2 for r in rel)

    spike_gap = net_from_function(
        lambda e, x: d1.at(e)(x) - d2.at(e)(x), 1, 1, box=[(-10, 10)],
        label="spike-gap", feature_scale=d1.feature_scale,
    )
    squares_gap = net_from_function(
        lambda e, x: d1.at(e)(x) ** 2 - d2.at(e)(x) ** 2, 1, 1, box=[(-10, 10)],
        label="square-gap", feature_scale=d1.feature_scale,
    )
    spikes_agree = bool(check_associated_zero(spike_gap, [nu]))
    squares_differ = not check_associated_zero(squares_gap, [nu])
    passed = sep > 0.05 and shadows_ok and spikes_agree and squares_differ
    detail = (
        f"separation {sep:.3f}, shadow residuals rel {max(rel):.2e}, "
        f"spikes associated: {spikes_agree}, squares associated: {not squares_differ}"
    )
    return CriterionResult(5, "mollifier sensitivity of squared spikes", passed, detail)


def criterion_well_definedness() -> CriterionResult:
    small = lambda e: np.exp(-1.0 / e)
    ok = {"map": 0, "vb": 0, "hybrid": 0}

    outer = single_chart_map(LINE, LINE, lambda e, x: 0.5 * x + 0.1, label="post")
    inners = [
        lambda e, x: np.sin(x),
        lambda e, x: e * x,
        lambda e, x: x**2 - 0.5,
        lambda e, x: x + e,
        lambda e, x: np.cos(x),
    ]
    for i, f in enumerate(inners):
        u = single_chart_map(LINE, LINE, f, label=f"in{i}")
        up = single_chart_map(
            LINE, LINE, lambda e, x, _f=f: _f(e, x) + small(e) * np.cos(x),
            label=f"in{i}p",
        )
        if check_equivalent(compose(u, outer), compose(up, outer), K1):
            ok["map"] += 1

    base = identity_map(LINE)
    post_hom = single_chart_hom(
        TX, TX, base, lambda e, x: 1.5 + 0.1 * np.cos(x), label="B"
    )
    mats = [
        lambda e, x: 1.0 + 0.3 * np.sin(x),
        lambda e, x: 2.0 + 0.1 * x**2,
        lambda e, x: 1.0 + e * x,
        lambda e, x: np.cos(x) + 2.0,
        lambda e, x: 1.0 + 0.5 * x,
    ]
    for i, m in enumerate(mats):
        a = single_chart_hom(TX, TX, base, m, label=f"A{i}")
        ap = single_chart_hom(
            TX, TX, base, lambda e, x, _m=m: _m(e, x) + small(e), label=f"A{i}p"
        )
        if check_vb_equivalent(
            compose_homs(a, post_hom), compose_homs(ap, post_hom), K1
        ).equivalent:
            ok["vb"] += 1

    sections = [
        lambda e, x: np.sin(x),
        lambda e, x: x,
        lambda e, x: 1.0 + e * x,
        lambda e, x: x**2 - 1.0,
        lambda e, x: np.cos(2.0 * x),
    ]
    pre = single_chart_map(LINE, LINE, lambda e, x: 0.5 * x, label="pre")
    for i, s in enumerate(sections):
        sec = section_net(TX, s, label=f"s{i}")
        secp = section_net(
            TX, lambda e, x, _s=s: _s(e, x) + small(e), label=f"s{i}p"
        )
        if check_hybrid_equivalent(
            compose_hybrid(pre, sec), compose_hybrid(pre, secp), K1
        ).equivalent:
            ok["hybrid"] += 1

    passed = all(v == 5 for v in ok.values())
    detail = (
        f"maps {ok['map']}/5, bundle homs {ok['vb']}/5, hybrids {ok['hybrid']}/5 "
        "stable under negligible perturbation"
    )
    return CriterionResult(6, "well-definedness of composition", passed, detail)


def criterion_point_separation() -> CriterionResult:
    separated = agreed = 0
    n_sep = n_agree = 0
    for u, v, expect in _route_suite():
        if expect:
            n_agree += 1
            pts = random_gpoints(K1, 20, seed=11)
            same, info = check_pointvalue_equality(u, v, pts)
            if same and info["tested"] == 20:
                agreed += 1
        else:
            n_sep += 1
            same, info = check_pointvalue_equality(u, v, [], K=K1)
            if not same:
                separated += 1
    passed = separated == n_sep and agreed == n_agree
    detail = (
        f"adversarial points separate {separated}/{n_sep} distinct pairs, "
        f"20 random points agree on {agreed}/{n_agree} equivalent pairs"
    )
    return CriterionResult(7, "point-value separation", passed, detail)


def criterion_alignment() -> CriterionResult:
    base = identity_map(LINE, label="target-rep")
    drift = single_chart_map(
        LINE, LINE, lambda e, x: x + np.exp(-1.0 / e), label="drift"
    )
    v = single_chart_hom(TX, TX, drift, lambda e, x: 2.0 + np.sin(x), label="v")
    aligned = align_representative(v, base, K1)
    pts = np.linspace(-1, 1, 9)[:, None]
    machine_equal = aligned.base_net is base and np.array_equal(
        aligned.base_net.eval(2.0**-8, pts, "main")[1],
        base.eval(2.0**-8, pts, "main")[1],
    )
    still_equiv = check_vb_equivalent(aligned, v, K1).equivalent

    rng = np.random.default_rng(5)
    axioms = 0
    for _ in range(5):
        a, b, c = rng.uniform(0.5, 2.0, 3)
        v1 = single_chart_hom(
            TX, TX, base, lambda e, x, _a=a: _a * (1.0 + 0.2 * np.sin(x)), label="v1"
        )
        v2 = single_chart_hom(
            TX, TX, base, lambda e, x, _b=b: _b * (1.0 + 0.1 * x), label="v2"
        )
        lhs = hom_u_add(v1, v2, base, K1)
        rhs = hom_u_add(v2, v1, base, K1)
        comm = check_vb_equivalent(lhs, rhs, K1).equivalent
        sc_l = hom_u_scale(c, hom_u_add(v1, v2, base, K1), base, K1)
        sc_r = hom_u_add(
            hom_u_scale(c, v1, base, K1), hom_u_scale(c, v2, base, K1), base, K1
        )
        dist = check_vb_equivalent(sc_l, sc_r, K1).equivalent
        unit = check_vb_equivalent(hom_u_scale(1.0, v1), v1, K1).equivalent
        if comm and dist and unit:
            axioms += 1
    passed = machine_equal and still_equiv and axioms == 5
    detail = (
        f"base machine-equal: {machine_equal}, equivalent to input: {still_equiv}, "
        f"module axioms on {axioms}/5 random instances"
    )
    return CriterionResult(8, "representative alignment and module axioms", passed, detail)


def criterion_order_collapse() -> CriterionResult:
    base = identity_map(LINE)
    small = lambda e: np.exp(-1.0 / e)
    vb_pairs = [
        (
            identity_hom(TX),
            single_chart_hom(TX, TX, base, lambda e, x: (1.0 + small(e)) * np.ones_like(x)),
        ),
        (identity_hom(TX), single_chart_hom(TX, TX, base, lambda e, x: (1.0 + e) * np.ones_like(x))),
        (
            single_chart_hom(TX, TX, base, lambda e, x: np.sin(x) + 2.0),
            single_chart_hom(TX, TX, base, lambda e, x: np.sin(x) + 2.0 + e * x),
        ),
    ]
    hy_pairs = [
        (section_net(TX, lambda e, x: np.sin(x)), section_net(TX, lambda e, x: np.sin(x) + small(e))),
        (section_net(TX, lambda e, x: x), section_net(TX, lambda e, x: (1.0 + e) * x)),
        (section_net(TX, lambda e, x: np.cos(x)), section_net(TX, lambda e, x: np.cos(x) + e)),
    ]
    stable = 0
    for a, b in vb_pairs:
        v0 = check_vb_equivalent(a, b, K1, derivative_order=0).equivalent
        v2 = check_vb_equivalent(a, b, K1, derivative_order=2).equivalent
        if v0 == v2:
            stable += 1
    for a, b in hy_pairs:
        v0 = check_hybrid_equivalent(a, b, K1, derivative_order=0).equivalent
        v2 = check_hybrid_equivalent(a, b, K1, derivative_order=2).equivalent
        if v0 == v2:
            stable += 1
    n = len(vb_pairs) + len(hy_pairs)
    passed = stable == n
    detail = f"order-0 verdict equals order-2 verdict on {stable}/{n} pairs"
    return CriterionResult(9, "derivative-order collapse", passed, detail)


def criterion_kink() -> CriterionResult:
    rep = kink_limit_study(
        default_profile(),
        standard_mollifier(),
        (0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
        EpsGrid.dyadic(6, 14),
        u_span=(-1.25, 1.25),
        window=(-1.0, 1.0),
    )
    strictly = all(b < a for a, b in zip(rep.cauchy_sups, rep.cauchy_sups[1:]))
    passed = (
        rep.x_cbounded
        and strictly
        and rep.cauchy_sups[-1] < 1e-3
        and rep.associated
        and rep.assoc_routes == (True, True)
        and rep.jump_stability < 0.01
    )
    detail = (
        f"c-bounded: {rep.x_cbounded}, cauchy strictly down to "
        f"{rep.cauchy_sups[-1]:.2e}, kink associated: {rep.associated} "
        f"{rep.assoc_routes}, jump {rep.jump:.4f} stable to {rep.jump_stability:.2%}"
    )
    return CriterionResult(10, "impulsive-wave kink", passed, detail)


CRITERIA = [
    criterion_order_calibration,
    criterion_route_agreement,
    criterion_vanishing_pair,
    criterion_step_powers,
    criterion_mollifier_sensitivity,
    criterion_well_definedness,
    criterion_point_separation,
    criterion_alignment,
    criterion_order_collapse,
    criterion_kink,
]


def run_all():
    return [fn() for fn in CRITERIA]
