"""Seeded verdict catalogs for the three benchmark workloads.

Each workload has three steps:

- ``generate(seed)`` makes the catalog as plain data (INI text, coefficient
  lists) from ``random.Random(seed)``; the same seed gives the same catalog.
- ``build(spec, workdir)`` turns that data into library objects: nets,
  atlases, densities, and the expected values the inputs were built to give.
- ``verdicts(spec)`` lists the verdicts of one pass.  A verdict is one
  top-level check, run on built objects, returning the deterministic
  fields of its outcome; ``expected`` holds the fields its construction
  fixes.  Expected values that take computing are worked out here, once,
  before anything is timed.

``known_defects`` lists the library defects a workload is known to hit at
the time of writing, as (verdict id pattern, exception name) pairs.  The
verdicts they match are the workload's defect probe: run.py runs them
once a run, outside the timed loop, and reports what they do.  Any other
raise makes the run incorrect.

Every catalog has a fixed shape (slot kinds and counts); the seed only
draws coefficients, so run cost barely depends on the seed.  The verdict
order interleaves slot kinds, so a run that stops mid-pass still sees a
representative mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import simpson

from colombeau.asymptotics import EpsGrid
from colombeau.association import (
    check_associated_zero,
    check_k_associated,
    embed_distribution,
    shadow,
    sharp_mollifier,
    standard_mollifier,
)
from colombeau.bundle_maps import (
    align_representative,
    check_hybrid_equivalent,
    check_vb_equivalent,
    compose_homs,
    compose_hybrid,
    fiber_values,
    hom_u_add,
    hom_u_scale,
    section_net,
    single_chart_hom,
)
from colombeau.cli import load_config
from colombeau.geometry import (
    CompactSet,
    DensityTest,
    euclidean_atlas,
    make_bump,
    trivial_bundle,
)
from colombeau.manifold_maps import (
    check_equivalent,
    check_pointvalue_equality,
    random_gpoints,
    single_chart_map,
)
from colombeau.nets import net_from_function
from colombeau.ppwave import default_profile, kink_limit_study, widened


@dataclass
class Verdict:
    vid: str
    kind: str
    run: Callable[[dict], dict]
    expected: dict = field(default_factory=dict)


def _interleave(groups):
    """Merge lists so each is spread evenly over the result; every prefix
    of the merged list then holds each kind in about its overall share."""
    keyed = [
        ((j + 0.5) / len(g), gi, item)
        for gi, g in enumerate(groups)
        for j, item in enumerate(g)
    ]
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


# ---------------------------------------------------------------------------
# maps: 1-D map pairs through the CLI config path


# slot -> (equivalent, 0-associated, same point values)
MAP_EXPECT = {
    "same": (True, True, True),
    "negligible": (True, True, True),
    "eps1": (False, True, False),
    "eps2": (False, True, False),
    "vanishing": (False, True, False),
    "order1": (False, False, False),
}
MAP_SLOTS = (
    "same", "negligible", "eps1", "order1", "eps2", "vanishing",
    "negligible", "eps1", "same", "eps2", "order1", "negligible",
)
MAP_SHAPES = ("1", "cos(x)", "x", "x^2", "sin(x)")
MAP_POINTS = 4


def _map_base(rng):
    kind = rng.choice(("sine", "line", "parabola", "cosine"))
    a, b, c = _u(rng, 0.5, 1.5), _u(rng, 0.5, 2.0), _u(rng, -0.5, 0.5)
    return {
        "sine": f"{a}*sin({b}*x) + {c}",
        "line": f"{a}*x + {c}",
        "parabola": f"{a}*x^2 + {c}",
        "cosine": f"{a}*cos({b}*x)",
    }[kind]


def _map_pair(rng, slot):
    if slot == "vanishing":
        return f"{_u(rng, 0.5, 1.5)}*eps*x", f"{_u(rng, 0.5, 1.5)}*eps^2*x^2"
    base = _map_base(rng)
    g = rng.choice(MAP_SHAPES)
    d = _u(rng, 0.2, 1.0)
    tail = {
        "same": "",
        "negligible": f" + {d}*exp(-{_u(rng, 0.5, 1.5)}/eps)*({g})",
        "eps1": f" + {d}*eps*({g})",
        "eps2": f" + {d}*eps^2*({g})",
        "order1": f" + {d}*({g})",
    }[slot]
    return base, base + tail


class Maps:
    name = "maps"
    # check_k_associated(k=0) on an O(eps) perturbation: the distance route
    # passes assoc_tol, the bump-amplified bank route does not
    known_defects = (("*-eps1.assoc0", "InconsistentRoutes"),)

    def generate(self, seed, slots=MAP_SLOTS):
        rng = random.Random(seed)
        pairs = []
        lines = []
        for i, slot in enumerate(slots):
            u, v = _map_pair(rng, slot)
            name = f"p{i:02d}"
            pairs.append({
                "name": name, "slot": slot,
                "points_seed": rng.randrange(2**31),
            })
            lines += [f"[net:{name}a]", f"expr = {u}", "",
                      f"[net:{name}b]", f"expr = {v}", ""]
        return {"ini": "\n".join(lines), "pairs": pairs}

    def build(self, spec, workdir):
        path = Path(workdir) / "maps.ini"
        path.write_text(spec["ini"])
        cfg = load_config(path)
        objs = {"cfg": cfg}
        for p in spec["pairs"]:
            n = p["name"]
            objs[n] = (
                cfg.map_net(n + "a"),
                cfg.map_net(n + "b"),
                random_gpoints(cfg.region, MAP_POINTS, seed=p["points_seed"]),
            )
        return objs

    def verdicts(self, spec):
        out = []
        for p in spec["pairs"]:
            n = p["name"]
            equiv, assoc, same = MAP_EXPECT[p["slot"]]
            vid = f"{n}-{p['slot']}"

            def run_equiv(o, n=n):
                u, v, _ = o[n]
                cfg = o["cfg"]
                rep = check_equivalent(u, v, cfg.region, grid=cfg.grid)
                return {
                    "equivalent": bool(rep.equivalent),
                    "routes": [bool(rep.route_distance), bool(rep.route_bank),
                               bool(rep.route_chart)],
                }

            def run_assoc(o, n=n):
                u, v, _ = o[n]
                cfg = o["cfg"]
                rep = check_k_associated(
                    u, v, 0, cfg.region, grid=cfg.grid, assoc_tol=cfg.assoc_tol
                )
                return {
                    "associated": bool(rep),
                    "routes": [bool(rep.route_distance), bool(rep.route_bank)],
                }

            def run_points(o, n=n):
                u, v, pts = o[n]
                cfg = o["cfg"]
                ok, info = check_pointvalue_equality(
                    u, v, pts, K=cfg.region, grid=cfg.grid
                )
                return {
                    "same": bool(ok),
                    "tested": info["tested"],
                    "failed_points": len(info["failed_points"]),
                }

            out += [
                Verdict(f"{vid}.equiv", "equiv", run_equiv, {"equivalent": equiv}),
                Verdict(f"{vid}.assoc0", "assoc0", run_assoc, {"associated": assoc}),
                Verdict(f"{vid}.pointvals", "pointvals", run_points, {"same": same}),
            ]
        return out


# ---------------------------------------------------------------------------
# bundles: composed homs and hybrids, alignment, module axioms

LINE = euclidean_atlas(1)
TX = trivial_bundle(LINE, 1)
K1 = CompactSet("main", [(-1.0, 1.0)])

# The catalog keeps the proportions of acceptance criteria 6, 8 and 9:
# five hom and five hybrid pairs under negligible perturbation, checked at
# order 0 (criterion 6); three hom and three hybrid pairs, negligible, O(eps)
# and O(eps) again, checked at orders 0 and 2 (criterion 9); one alignment
# followed by its equivalence check, and five module-axiom instances
# (criterion 8).  Entries are (perturbation slot, derivative orders).
WELL_DEFINED = (("negligible", (0,)),) * 5
COLLAPSE = tuple((s, (0, 2)) for s in ("negligible", "eps1", "eps1"))
VB_CATALOG = WELL_DEFINED + COLLAPSE
# hybrids are pulled back along x -> 0.5 x as in criterion 6.  One of the
# five criterion-6 hybrids, the witness, uses x -> 0.5333 x - 0.0715
# instead: at the time of writing, check_hybrid_moderate calls that affine
# base map not moderate (FD noise in its order-2 jets), so the witness
# raises NotModerate.
PRE = (0.5, 0.0)
WITNESS_PRE = (0.5333, -0.0715)
HYBRID_CATALOG = WELL_DEFINED[:4] + (("witness", (0,)),) + COLLAPSE
AXIOM_INSTANCES = 5


def _identity_jet(e, x, a):
    if a[0] == 0:
        return x
    return np.ones_like(x) if a[0] == 1 else np.zeros_like(x)


def _fiber_family(kind, a, b, c):
    """Smooth eps-independent fiber function of x (shape (..., 1))."""
    if kind == "sine":
        return lambda e, x: a + b * np.sin(c * x)
    if kind == "cosine":
        return lambda e, x: a + b * np.cos(c * x)
    if kind == "parabola":
        return lambda e, x: a + b * x**2
    return lambda e, x: a + b * x


def _perturbed(f, slot, d, k, shape):
    g = {"1": np.ones_like, "x": lambda x: x, "cos": np.cos}[shape]
    if slot == "negligible":
        return lambda e, x: f(e, x) + d * np.exp(-k / e) * g(x)
    if slot == "eps1":
        return lambda e, x: f(e, x) + d * e * g(x)
    if slot == "eps2":
        return lambda e, x: f(e, x) + d * e**2 * g(x)
    return lambda e, x: f(e, x) + d * g(x)


def _fiber_coeffs(rng):
    return {
        "family": rng.choice(("sine", "cosine", "parabola", "line")),
        "a": _u(rng, 1.0, 2.0), "b": _u(rng, 0.1, 0.5), "c": _u(rng, 0.5, 2.0),
        "d": _u(rng, 0.2, 0.8), "k": _u(rng, 0.5, 1.5),
        "shape": rng.choice(("1", "x", "cos")),
    }


def _fiber_pair(c, slot):
    f = _fiber_family(c["family"], c["a"], c["b"], c["c"])
    return f, _perturbed(f, slot, c["d"], c["k"], c["shape"])


class Bundles:
    name = "bundles"
    known_defects = (("hy*-witness.*", "NotModerate"),)

    def generate(self, seed, vb=VB_CATALOG, hybrid=HYBRID_CATALOG, aligns=1,
                 axioms=AXIOM_INSTANCES):
        rng = random.Random(seed)
        return {
            "post": [_u(rng, 1.2, 1.8), _u(rng, 0.05, 0.2)],
            "vb": [dict(_fiber_coeffs(rng), slot=s, orders=list(o)) for s, o in vb],
            "hybrid": [dict(_fiber_coeffs(rng), slot=s, orders=list(o))
                       for s, o in hybrid],
            "align": [_fiber_coeffs(rng) for _ in range(aligns)],
            "axioms": [[_u(rng, 0.5, 2.0) for _ in range(3)] for _ in range(axioms)],
        }

    def build(self, spec, workdir):
        base = single_chart_map(LINE, LINE, lambda e, x: x, jet=_identity_jet,
                                label="id")
        p, q = spec["post"]
        post = single_chart_hom(TX, TX, base, lambda e, x: p + q * np.cos(x),
                                label="post")
        objs = {"base": base}
        for i, c in enumerate(spec["vb"]):
            f, fp = _fiber_pair(c, c["slot"])
            a = single_chart_hom(TX, TX, base, f, label=f"A{i}")
            ap = single_chart_hom(TX, TX, base, fp, label=f"A{i}p")
            objs[f"vb{i}"] = (compose_homs(a, post), compose_homs(ap, post))
        for i, c in enumerate(spec["hybrid"]):
            s, t = WITNESS_PRE if c["slot"] == "witness" else PRE
            pre = single_chart_map(LINE, LINE, lambda e, x, s=s, t=t: s * x + t,
                                   label="pre")
            f, fp = _fiber_pair(c, "negligible" if c["slot"] == "witness" else c["slot"])
            sec = section_net(TX, f, label=f"s{i}")
            secp = section_net(TX, fp, label=f"s{i}p")
            objs[f"hy{i}"] = (compose_hybrid(pre, sec), compose_hybrid(pre, secp))
        for i, c in enumerate(spec["align"]):
            # a negligible drift of the base, as in criterion 8; the fiber is
            # c's family
            f = _fiber_family(c["family"], c["a"], c["b"], c["c"])
            drift = single_chart_map(
                LINE, LINE,
                _perturbed(lambda e, x: x, "negligible", c["d"], c["k"], "1"),
                label=f"drift{i}",
            )
            objs[f"al{i}"] = single_chart_hom(TX, TX, drift, f, label=f"v{i}")
        for i, (a, b, c) in enumerate(spec["axioms"]):
            objs[f"ax{i}"] = (
                single_chart_hom(TX, TX, base,
                                 lambda e, x, a=a: a * (1.0 + 0.2 * np.sin(x)),
                                 label="v1"),
                single_chart_hom(TX, TX, base, lambda e, x, b=b: b * (1.0 + 0.1 * x),
                                 label="v2"),
                c,
            )
        return objs

    def verdicts(self, spec):
        checks = {"vb": [], "hy": []}
        for tag in checks:
            for i, c in enumerate(spec["vb" if tag == "vb" else "hybrid"]):
                for k in c["orders"]:
                    def run(o, key=f"{tag}{i}", k=k, tag=tag):
                        u, v = o[key]
                        check = (check_vb_equivalent if tag == "vb"
                                 else check_hybrid_equivalent)
                        rep = check(u, v, K1, derivative_order=k)
                        return {
                            "equivalent": bool(rep.equivalent),
                            "routes": [bool(rep.route_chart), bool(rep.route_bank)],
                            "base_equivalent": bool(rep.base_report.equivalent),
                            "vacuous": bool(rep.fiber_vacuous),
                        }

                    checks[tag].append(Verdict(
                        f"{tag}{i}-{c['slot']}.order{k}", f"{tag}-order{k}", run,
                        {"equivalent": c["slot"] in ("negligible", "witness")},
                    ))

        aligns = []
        for i in range(len(spec["align"])):
            def run_align(o, key=f"al{i}"):
                v = o[key]
                base = o["base"]
                aligned = align_representative(v, base, K1)
                pts = np.linspace(-1.0, 1.0, 9)[:, None]
                eps = 2.0**-8
                _, fiber_new = aligned.fiber_for("main")
                _, fiber_old = v.fiber_for("main")
                return {
                    "machine_equal": aligned.base_net is base and bool(np.array_equal(
                        aligned.base_net.eval(eps, pts, "main")[1],
                        base.eval(eps, pts, "main")[1],
                    )),
                    "fiber_preserved": bool(np.array_equal(
                        fiber_values(fiber_new, eps, pts),
                        fiber_values(fiber_old, eps, pts),
                    )),
                    "passthrough": bool(aligned.alignment.passthrough),
                    "still_equivalent": bool(
                        check_vb_equivalent(aligned, v, K1).equivalent
                    ),
                }

            aligns.append(Verdict(
                f"al{i}.align", "align", run_align,
                {"machine_equal": True, "fiber_preserved": True,
                 "still_equivalent": True},
            ))

        axioms = []
        for i in range(len(spec["axioms"])):
            def run_comm(o, key=f"ax{i}"):
                v1, v2, _ = o[key]
                base = o["base"]
                rep = check_vb_equivalent(
                    hom_u_add(v1, v2, base, K1), hom_u_add(v2, v1, base, K1), K1
                )
                return {"equivalent": bool(rep.equivalent)}

            def run_dist(o, key=f"ax{i}"):
                v1, v2, c = o[key]
                base = o["base"]
                lhs = hom_u_scale(c, hom_u_add(v1, v2, base, K1), base, K1)
                rhs = hom_u_add(
                    hom_u_scale(c, v1, base, K1), hom_u_scale(c, v2, base, K1),
                    base, K1,
                )
                return {"equivalent": bool(check_vb_equivalent(lhs, rhs, K1).equivalent)}

            def run_unit(o, key=f"ax{i}"):
                v1, _, _ = o[key]
                rep = check_vb_equivalent(hom_u_scale(1.0, v1), v1, K1)
                return {"equivalent": bool(rep.equivalent)}

            for name, fn in (("commute", run_comm), ("distribute", run_dist),
                             ("unit", run_unit)):
                axioms.append(Verdict(f"ax{i}.{name}", f"axiom-{name}", fn,
                                      {"equivalent": True}))
        return _interleave([checks["vb"], checks["hy"], aligns, axioms])


# ---------------------------------------------------------------------------
# weak-limits: mollified distributions against bump densities, kink studies


# slot -> (net recipe, check); see WeakLimits.build for the recipes
QUAD_SLOTS = (
    "shadow-delta", "zero-defect", "zero-spike", "shadow-step", "zero-gap",
    "zero-scaled", "shadow-square", "zero-stepgap", "zero-step",
) * 3
# Kink studies run on criterion 10's initial data, with five pulse shapes:
# each mollifier, and each widened by a fixed factor.  The seed does not
# move them.  For some other initial data the study's two 0-association
# routes disagree and it raises InconsistentRoutes; which data do is not
# predictable, so seeded data would make runs fail at random seeds.
# KINK_DEFECT is one such datum, kept as a documented defect.  Five studies
# among 27 quadrature checks put p90 inside the kinks and split the time
# about evenly between quadrature and geodesic solves.
KINK_PULSES = (("rho1", 1.0), ("rho2", 1.0), ("rho1", 2.0), ("rho2", 2.0),
               ("rho1", 1.5))
KINK_INIT = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
KINK_DEFECT = ("rho2", (0.0, 1.4125, -0.0568, 0.0, 0.045, 0.0022))
DENSITIES = 3
ASSOC_EXPECT = {
    "zero-defect": True,    # H^2 - H
    "zero-gap": True,       # a * (delta[rho1] - delta[rho2])
    "zero-scaled": True,    # a * eps * delta
    "zero-stepgap": True,   # H[rho1] - H[rho2]
    "zero-spike": False,    # a * delta
    "zero-step": False,     # H
}
# relative tolerance on extrapolated shadows, as in acceptance criterion 5
SHADOW_RTOL = 1e-2
KINK_GRID = (6, 12)
KINK_SPAN = (-0.5, 0.5)


def _half_mass(nu):
    """int_0^inf of a density, by fixed-grid Simpson."""
    xs = np.linspace(0.0, float(nu.support_box[0, 1]), 20001)
    return simpson(nu.handle(xs[:, None])[:, 0], x=xs)


def _mollifiers():
    return {"rho1": standard_mollifier(), "rho2": sharp_mollifier()}


def _densities(q):
    return [
        DensityTest("main", make_bump(np.array([c]), r_in, r_out),
                    np.array([[c - r_out, c + r_out]]), f"nu{j}")
        for j, (c, r_in, r_out) in enumerate(q["densities"])
    ]


class WeakLimits:
    name = "weak-limits"
    # for some initial data the 0-association check inside the study fails
    known_defects = (("kd*.kink", "InconsistentRoutes"),)

    def generate(self, seed, quads=QUAD_SLOTS, kinks=KINK_PULSES):
        rng = random.Random(seed)
        rhos = ("rho1", "rho2")
        return {
            "quads": [
                {
                    "slot": s, "rho": rhos[i % 2], "a": _u(rng, 0.5, 2.0),
                    # each verdict pairs against its own bank of densities
                    "densities": [
                        [_u(rng, -0.15, 0.15), _u(rng, 0.2, 0.3), _u(rng, 0.45, 0.6)]
                        for _ in range(DENSITIES)
                    ],
                }
                for i, s in enumerate(quads)
            ],
            "kinks": [{"rho": r, "widen": w, "init": list(KINK_INIT)}
                      for r, w in kinks],
            "kink_defects": [{"rho": KINK_DEFECT[0], "widen": 1.0,
                              "init": list(KINK_DEFECT[1])}],
        }

    def build(self, spec, workdir):
        rho = _mollifiers()
        delta = {k: embed_distribution("delta", r, LINE) for k, r in rho.items()}
        step = {k: embed_distribution("heaviside", r, LINE) for k, r in rho.items()}
        feat = delta["rho1"].feature_scale
        box = [(-10.0, 10.0)]

        objs = {"profile": default_profile()}
        for i, q in enumerate(spec["quads"]):
            slot, r, a = q["slot"], q["rho"], q["a"]
            d, h = delta[r], step[r]
            if slot == "shadow-delta":
                net = d
            elif slot == "shadow-step":
                net = h
            elif slot == "shadow-square":
                net = net_from_function(
                    lambda e, x, d=d, a=a: a * e * d.at(e)(x) ** 2, 1, 1,
                    box=box, feature_scale=feat, label="eps*delta^2",
                )
            elif slot == "zero-defect":
                net = net_from_function(
                    lambda e, x, h=h: h.at(e)(x) ** 2 - h.at(e)(x), 1, 1,
                    box=box, feature_scale=feat, label="H^2-H",
                )
            elif slot == "zero-gap":
                d1, d2 = delta["rho1"], delta["rho2"]
                net = net_from_function(
                    lambda e, x, a=a: a * (d1.at(e)(x) - d2.at(e)(x)), 1, 1,
                    box=box, feature_scale=feat, label="delta-gap",
                )
            elif slot == "zero-scaled":
                net = net_from_function(
                    lambda e, x, d=d, a=a: a * e * d.at(e)(x), 1, 1,
                    box=box, feature_scale=feat, label="eps*delta",
                )
            elif slot == "zero-spike":
                net = net_from_function(
                    lambda e, x, d=d, a=a: a * d.at(e)(x), 1, 1,
                    box=box, feature_scale=feat, label="delta",
                )
            elif slot == "zero-stepgap":
                h1, h2 = step["rho1"], step["rho2"]
                net = net_from_function(
                    lambda e, x: h1.at(e)(x) - h2.at(e)(x), 1, 1,
                    box=box, feature_scale=feat, label="step-gap",
                )
            else:  # zero-step
                net = h
            objs[f"q{i}"] = (net, _densities(q))
        for tag in ("kinks", "kink_defects"):
            for i, k in enumerate(spec[tag]):
                r = rho[k["rho"]]
                if k["widen"] != 1.0:
                    r = widened(r, k["widen"])
                objs[f"{tag}{i}"] = (r, tuple(k["init"]))
        return objs

    def shadow_targets(self, spec):
        """What each shadow verdict was built to give, per density: nu(0),
        int_0^inf nu and c_rho * nu(0), by fixed-grid Simpson rather than
        the library's adaptive quadrature."""
        ts = np.linspace(-1.0, 1.0, 20001)
        sq_mass = {
            k: simpson(r.profile(ts[:, None])[:, 0] ** 2, x=ts)
            for k, r in _mollifiers().items()
        }
        targets = {}
        for i, q in enumerate(spec["quads"]):
            densities = _densities(q)
            at_zero = [float(nu.handle(np.zeros((1, 1)))[0, 0]) for nu in densities]
            if q["slot"] == "shadow-delta":
                targets[i] = at_zero
            elif q["slot"] == "shadow-step":
                targets[i] = [_half_mass(nu) for nu in densities]
            elif q["slot"] == "shadow-square":
                targets[i] = [q["a"] * sq_mass[q["rho"]] * v for v in at_zero]
        return targets

    def verdicts(self, spec):
        targets = self.shadow_targets(spec)
        quads = []
        for i, q in enumerate(spec["quads"]):
            slot = q["slot"]
            if slot.startswith("shadow"):
                def run(o, key=f"q{i}", want=targets[i]):
                    net, densities = o[key]
                    rep = shadow(net, densities)
                    close = [
                        bool(abs(r.extrapolated - w) <= SHADOW_RTOL * abs(w))
                        for r, w in zip(rep.rows, want)
                    ]
                    return {"converged": bool(rep.converged), "limits_match": close}

                expected = {"converged": True, "limits_match": [True] * DENSITIES}
            else:
                def run(o, key=f"q{i}"):
                    net, densities = o[key]
                    rep = check_associated_zero(net, densities)
                    return {
                        "associated": bool(rep),
                        "decreasing": [bool(r.decreasing) for r in rep.rows],
                    }

                expected = {"associated": ASSOC_EXPECT[slot]}
            quads.append(Verdict(f"q{i:02d}-{slot}.{q['rho']}", slot, run, expected))

        kinks = []
        for tag, prefix in (("kinks", "k"), ("kink_defects", "kd")):
            for i, k in enumerate(spec[tag]):
                kinks.append(self._kink_verdict(
                    f"{prefix}{i}-{k['rho']}x{k['widen']:g}.kink", f"{tag}{i}"
                ))
        return _interleave([quads, kinks])

    @staticmethod
    def _kink_verdict(vid, key):
        def run_kink(o):
            rho, init = o[key]
            rep = kink_limit_study(
                o["profile"], rho, init, EpsGrid.dyadic(*KINK_GRID),
                u_span=KINK_SPAN,
            )
            sups = rep.cauchy_sups
            return {
                "verified": bool(rep),
                "cauchy_strictly_down": all(b < a for a, b in zip(sups, sups[1:])),
                "x_cbounded": bool(rep.x_cbounded),
                "associated": bool(rep.associated),
                "routes": [bool(r) for r in rep.assoc_routes],
                "jump_stable": bool(rep.jump_stability < 0.01),
                "vdot_growth": rep.vdot_growth,
            }

        return Verdict(
            vid, "kink", run_kink,
            {"verified": True, "cauchy_strictly_down": True,
             "jump_stable": True, "routes": [True, True]},
        )


WORKLOADS = {w.name: w for w in (Maps(), Bundles(), WeakLimits())}
