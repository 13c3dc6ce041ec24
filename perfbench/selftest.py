#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about ten seconds).

    python3 perfbench/selftest.py

Checks three things:

1. the same seed gives an identical catalog, and another seed a different one;
2. a tiny catalog of each workload scores zero errors, and the scorer
   marks a run incorrect for an undocumented raise, while any exception
   that is not a ``ColombeauError`` ends the run;
3. trace accounting holds: every self time is >= 0 and at most its total,
   no span starts before its parent or under another verdict, and
   uninstall restores the library.

The tiny catalogs run only their timed verdicts, as run.py does; the
defect probe is where the documented library defects show.
"""

import sys
import time

import run  # sets the BLAS/OpenMP thread counts before numpy loads

run._use_library()
run.OUT.mkdir(exist_ok=True)

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

TINY = {
    "maps": {"slots": ("same", "order1")},
    "bundles": {"vb": (("negligible", (0,)),), "hybrid": (("eps1", (0,)),),
                "aligns": 1, "axioms": 0},
    "weak-limits": {"quads": ("shadow-delta", "zero-defect"),
                    "kinks": (("rho1", 2.0),)},
}


def check_catalog_determinism():
    for name, w in WORKLOADS.items():
        a, b = w.generate(11), w.generate(11)
        assert a == b, f"{name}: seed 11 gave two different catalogs"
        assert a != w.generate(12), f"{name}: seeds 11 and 12 gave one catalog"
        ids_a = [v.vid for v in w.verdicts(a)]
        assert ids_a == [v.vid for v in w.verdicts(b)], f"{name}: verdict order moved"


def tiny(name):
    w = WORKLOADS[name]
    spec = w.generate(5, **TINY[name])
    return w, spec, run.split_probe(w.verdicts(spec), w.known_defects)[0]


def check_tiny_scores():
    for name in WORKLOADS:
        w, spec, verdicts = tiny(name)
        records = run.run_pass(w, spec, verdicts, 0)
        verdict = run.score(records, verdicts)
        assert verdict["failed"] == 0 and verdict["correct"], (
            f"{name}: tiny catalog failed {verdict['failures']}"
        )
        assert len(records) >= 2


def check_scoring():
    from colombeau.errors import InconsistentRoutes

    def raiser(exc):
        def run_it(objs):
            raise exc
        return run_it

    known = (("*-eps1.assoc0", "InconsistentRoutes"),)
    for vid, exc, correct in (("p02-eps1.assoc0", InconsistentRoutes("x"), True),
                              ("p03-eps2.assoc0", InconsistentRoutes("x"), False)):
        v = Verdict(vid, "assoc0", raiser(exc), {"associated": True})
        records = [dict(run.run_verdict(v, {}), **{"pass": 0})]
        verdict = run.score(records, [v], known)
        assert verdict["failed"] == 1, f"{vid}: raise not counted as failed"
        assert verdict["correct"] == correct, f"{vid}: correct should be {correct}"
    w = WORKLOADS["maps"]
    timed, probe = run.split_probe(w.verdicts(w.generate(1)), w.known_defects)
    assert probe and all(v.vid.endswith("-eps1.assoc0") for v in probe), (
        "maps probe does not hold exactly the eps1 assoc0 verdicts"
    )
    assert not any(v.vid.endswith("-eps1.assoc0") for v in timed)
    v = Verdict("p00-same.equiv", "equiv", raiser(AttributeError("routes")), {})
    try:
        run.run_verdict(v, {})
    except AttributeError:
        pass
    else:
        raise AssertionError("a non-library exception did not end the run")


def check_trace_accounting():
    import colombeau.manifold_maps as mm
    import colombeau.nets as nets

    originals = (nets.SmoothMapHandle.__call__, mm.check_cbounded)
    catalogs = [tiny(name) for name in WORKLOADS]
    tracer = Tracer()
    tracer.install(namespaces=[sys.modules["workloads"]])
    try:
        for w, spec, verdicts in catalogs:
            run.run_pass(w, spec, verdicts, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert (nets.SmoothMapHandle.__call__, mm.check_cbounded) == originals, (
        "uninstall left wrappers behind"
    )
    assert not tracer.stack, "span stack not empty after the run"
    assert tracer.breaches == 0, f"{tracer.breaches} spans outside their parent"
    for row in tracer.rows():
        assert row["self_s"] >= -1e-9, f"negative self time: {row}"
        assert row["self_s"] <= row["total_s"] + 1e-9, f"self above total: {row}"
    seen = {r["name"] for r in tracer.rows()}
    for needed in ("geometry.bump", "nets.eval", "manifold_maps.check_cbounded",
                   "association.adaptive_simpson", "ppwave.rhs",
                   "bundle_maps.check_vb_equivalent", "cli.load_config"):
        assert needed in seen, f"no span recorded for {needed}"


def main():
    status = 0
    for check in (check_catalog_determinism, check_tiny_scores, check_scoring,
                  check_trace_accounting):
        t0 = time.perf_counter()
        try:
            check()
            print(f"PASS {check.__name__} ({time.perf_counter() - t0:.1f} s)")
        except AssertionError as exc:
            print(f"FAIL {check.__name__}: {exc}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
