#!/usr/bin/env python3
"""Verdict benchmark for colombeau: seeded workloads, timed or traced.

    python3 perfbench/run.py --workload maps --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # each workload in its own process
    python3 perfbench/selftest.py                      # fast self-test of the harness

Load model: a closed loop with one client.  One process and one thread run
one verdict at a time with default library settings; BLAS and OpenMP pools
are pinned to one thread before numpy loads.  A verdict is one top-level
check call, timed on its own.  Each pass over the catalog rebuilds every
net first, so no cache carries over from one pass to the next.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
fresh processes that import the library and build the catalog, spread
over the run), median and p90 verdict latency, verdicts per second, and
peak resident memory.  The host is shared, and its speed swings by up to
1.7x, for seconds or for minutes.  So every time is taken at the host's
reference speed: a fixed piece of work that no change to the library
touches is timed around each verdict, and the verdict's time is scaled by
REF_NOMINAL_S over the reference's time at that moment; set-up time is
scaled by the run's median reference time.  The wall-clock figures are
printed beside them.  ``--trace 1`` runs one untraced and one traced pass
of the timed verdicts and reports per-layer calls and self times (see
spans.py); this work is fixed, so counts repeat exactly for a seed.

Every verdict is scored against what its inputs were built to give.  The
verdicts that hit a documented library defect (``known_defects`` in
workloads.py) are the defect probe: they run once, after the measurement,
and are reported but not timed.  The last stdout line is one JSON object
for the timed verdicts: ``correct`` is false when a verdict returns
something other than its construction, differs between passes, or raises
a ``ColombeauError`` (a probe verdict only by raising anything but its
documented defect); ``failed`` counts every timed verdict that raised or
was wrong.  Any other exception ends the run.  Results, the verdict digest
and the span table go to ``perfbench/out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fnmatch  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("maps", "bundles", "weak-limits")
SETUP_PROBES = 5
# the reference work's time on a calm host, on the 2-CPU x86_64 machine the
# baseline was measured on; times are reported at this reference speed
REF_NOMINAL_S = 0.004
PROBE_TIMEOUT_S = 120


def _use_library():
    """Import colombeau from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import colombeau
    except ImportError:
        colombeau = None
    if colombeau is None or Path(colombeau.__file__).resolve().parent != SRC / "colombeau":
        raise SystemExit(f"perfbench: no colombeau sources under {SRC}")


# ---------------------------------------------------------------------------
# provenance


def provenance():
    import numpy
    import scipy

    sha = None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        top, head = (proc.stdout.split() + [None, None])[:2]
        if proc.returncode == 0 and top and Path(top).resolve() == ROOT:
            sha = head
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "colombeau").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(name, seed, t0):
    """Time a fresh user's set-up from ``t0``, taken before colombeau (and
    numpy) is imported: import, generate the catalog, build it."""
    _use_library()
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    w.build(w.generate(seed), OUT)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(name, seed):
    """Seconds of one set-up probe in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: set-up probe failed for {name}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# running and scoring verdicts


def run_verdict(v, objs, tracer=None):
    """Run one verdict.  A ``ColombeauError`` is a failed verdict; any other
    exception is a fault of the library or the harness and ends the run."""
    from colombeau.errors import ColombeauError

    t0 = time.perf_counter()
    error = None
    try:
        if tracer is None:
            fields = v.run(objs)
        else:
            tracer.verdict = v.vid
            fields = tracer.call("perfbench.verdict", v.run, (objs,), {})
    except ColombeauError as exc:
        fields = {"raised": type(exc).__name__}
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    seconds = time.perf_counter() - t0
    return {"vid": v.vid, "kind": v.kind, "seconds": seconds,
            "fields": fields, "error": error}


def _ref_numpy(x):
    import numpy as np

    acc = 0.0
    for _ in range(120):
        inside = np.abs(x) < 1.0
        y = np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - x * x, 1.0)), 0.0)
        acc += float(np.max(np.abs(np.diff(y, axis=0))))
    return acc


def _ref_python(n):
    table = {}
    for i in range(n):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + len(str(i))
    return sum(table.values())


def reference():
    """Time a fixed piece of work in the library's style, numpy ufuncs on
    small arrays and plain Python calls, that no change to the library can
    speed up.  Returns (numpy seconds, python seconds)."""
    import numpy as np

    x = np.linspace(-1.2, 1.2, 65)[:, None]
    t0 = time.perf_counter()
    _ref_numpy(x)
    t1 = time.perf_counter()
    _ref_python(6000)
    return t1 - t0, time.perf_counter() - t1


def run_pass(w, spec, verdicts, index, tracer=None, deadline=None, ref=False):
    """Build the catalog fresh, then run its verdicts in order.  Stops after
    the verdict that crosses ``deadline``, if one is given.  With ``ref``,
    the reference work is timed between verdicts, and each record's
    ``ref_s`` is the mean of the reference times just before and after it."""
    if tracer is None:
        objs = w.build(spec, OUT)
    else:
        tracer.verdict = "build"
        objs = tracer.call("perfbench.build", w.build, (spec, OUT), {})
    records = []
    ref_s = sum(reference()) if ref else None
    for v in verdicts:
        rec = run_verdict(v, objs, tracer)
        rec["pass"] = index
        if ref:
            after = sum(reference())
            rec["ref_s"] = 0.5 * (ref_s + after)
            ref_s = after
        records.append(rec)
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return records


def timed_loop(w, spec, verdicts, seconds, setup):
    """Passes until ``seconds`` have elapsed; the first pass always completes.
    Before each of the first SETUP_PROBES passes, ``setup()`` runs a set-up
    probe, so the probes sample the host's speed across the run; any left
    over run after the last pass."""
    t0 = time.perf_counter()
    setup_samples = []
    records = []
    passes = 0
    while passes == 0 or time.perf_counter() - t0 < seconds:
        if len(setup_samples) < SETUP_PROBES:
            setup_samples.append(setup())
        records += run_pass(w, spec, verdicts, passes,
                            deadline=t0 + seconds if passes else None, ref=True)
        passes += 1
    wall = time.perf_counter() - t0
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup())
    return records, passes, wall, setup_samples


def known_defect(vid, raised, known):
    """Whether a raise is one of the library defects documented for the
    workload: ``known`` holds (verdict id pattern, exception name) pairs."""
    return any(fnmatch.fnmatchcase(vid, pat) and raised == exc for pat, exc in known)


def split_probe(verdicts, known):
    """(timed verdicts, defect probe): the probe holds the verdicts whose
    ids match a documented defect."""
    hit = [any(fnmatch.fnmatchcase(v.vid, pat) for pat, _ in known) for v in verdicts]
    return ([v for v, h in zip(verdicts, hit) if not h],
            [v for v, h in zip(verdicts, hit) if h])


def score(records, verdicts, known=()):
    """Score records against their construction.  ``correct`` is false when
    a verdict returns a wrong value, differs from its first pass, or raises
    anything but a documented defect; ``failed`` counts every raise too."""
    expected = {v.vid: v.expected for v in verdicts}
    first = {r["vid"]: r["fields"] for r in records if r["pass"] == 0}
    wrong = unstable = unexpected = failed = 0
    failures = {}
    for r in records:
        exp = expected[r["vid"]]
        bad_value = r["error"] is None and any(
            r["fields"].get(k) != val for k, val in exp.items()
        )
        moved = r["fields"] != first[r["vid"]]
        surprise = r["error"] is not None and not known_defect(
            r["vid"], r["fields"]["raised"], known
        )
        wrong += bad_value
        unstable += moved
        unexpected += surprise
        if r["error"] is not None or bad_value or moved:
            failed += 1
            entry = failures.setdefault(r["vid"], {
                "expected": exp, "got": r["fields"], "error": r["error"],
                "passes": [],
            })
            entry["passes"].append(r["pass"])
            if moved:
                entry["differs_from_first_pass"] = True
            if surprise:
                entry["undocumented_raise"] = True
    return {"correct": wrong == 0 and unstable == 0 and unexpected == 0,
            "failed": failed, "failures": failures}


def verdict_digest(records):
    rows = [[r["vid"], r["fields"]] for r in records if r["pass"] == 0]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def quantile_hd(x, weights, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics, rather than the one or two next to the quantile,
    which a few dozen latencies leave noisy.  ``weights`` generalise it to
    a weighted sample: each order statistic covers its share of the
    cumulative weight."""
    import numpy as np
    from scipy.special import betainc

    order = np.argsort(x)
    x = np.asarray(x, dtype=float)[order]
    cum = np.concatenate(([0.0], np.cumsum(np.asarray(weights, dtype=float)[order])))
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.clip(cum / cum[-1], 0.0, 1.0))
    return float(np.dot(np.diff(edges), x))


def latency_metrics(records, lat):
    """Verdicts per second and the median and p90 latency of one verdict,
    over the catalog: each verdict weighs 1 / (its runs in the loop), so a
    pass cut short at the deadline does not shift the mix of verdict kinds.
    The second value is how many latencies lie beyond p90."""
    import numpy as np

    runs = {}
    for r in records:
        runs[r["vid"]] = runs.get(r["vid"], 0) + 1
    w = np.array([1.0 / runs[r["vid"]] for r in records])
    lat = np.asarray(lat, dtype=float)
    p90 = quantile_hd(lat, w, 0.9)
    return {
        "verdicts_per_s": (float(w.sum() / np.dot(w, lat)), "1/s"),
        "verdict_p50_ms": (1000.0 * quantile_hd(lat, w, 0.5), "ms"),
        "verdict_p90_ms": (1000.0 * p90, "ms"),
    }, int(np.sum(lat > p90))


def at_reference_speed(seconds, ref_s):
    return seconds * REF_NOMINAL_S / ref_s


def per_kind(records):
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["seconds"])
    return {k: {"n": len(v), "p50_ms": 1000.0 * statistics.median(v),
                "total_s": sum(v)} for k, v in sorted(kinds.items())}


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    spec = w.generate(seed)
    verdicts, probe = split_probe(w.verdicts(spec), w.known_defects)
    result = {"workload": name, "seed": seed, "trace": trace,
              "provenance": provenance(), "verdicts_per_pass": len(verdicts)}
    lines = [f"perfbench {name} seed={seed} trace={trace}",
             f"provenance: {json.dumps(result['provenance'], sort_keys=True)}",
             f"catalog: {len(verdicts)} timed verdicts per pass, "
             f"{len(probe)} in the defect probe"]

    if not trace:
        records, passes, wall, setup_samples = timed_loop(
            w, spec, verdicts, seconds, lambda: measure_setup(name, seed)
        )
        # set-up is mostly start-up and imports, which follow the host's
        # speed more slowly and less closely than the reference work: it is
        # scaled by the run's median reference time, not the local one
        ref_med = statistics.median(r["ref_s"] for r in records)
        setup_wall = statistics.median(setup_samples)
        metrics = {"setup_s": (at_reference_speed(setup_wall, ref_med), "s")}
        lat, beyond = latency_metrics(
            records, [at_reference_speed(r["seconds"], r["ref_s"]) for r in records]
        )
        metrics.update(lat)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        )
        wall_lat = latency_metrics(records, [r["seconds"] for r in records])[0]
        lines.append(f"timed loop: {len(records)} verdicts in {wall:.2f} s, "
                     f"{passes} passes; {beyond} verdicts beyond p90")
        lines.append(f"reference work: median {1000.0 * ref_med:.3f} ms, "
                     f"nominal {1000.0 * REF_NOMINAL_S:.3f} ms; wall-clock "
                     + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in wall_lat.items())
                     + f", setup_s {setup_wall:.6g} s")
        lines.append("set-up probes (s, wall-clock): "
                     + ", ".join(f"{t:.4f}" for t in setup_samples))
        result.update(loop_wall_s=wall, passes=passes, beyond_p90=beyond,
                      setup_samples_s=setup_samples, reference_median_s=ref_med,
                      wall_clock={k: v for k, (v, _) in wall_lat.items()})
    else:
        from spans import Tracer, layer_metrics

        t0 = time.perf_counter()
        records = run_pass(w, spec, verdicts, 0)
        untraced = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install(namespaces=[sys.modules["workloads"]])
        try:
            t0 = time.perf_counter()
            records += run_pass(w, spec, verdicts, 1, tracer=tracer)
            traced = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        lines.append(f"untraced pass {untraced:.2f} s, traced pass {traced:.2f} s")
        span_path = OUT / f"spans-{name}-seed{seed}.json"
        span_path.write_text(json.dumps(tracer.rows(), indent=1))
        lines.append(f"span table: {span_path.relative_to(ROOT)}")
        result.update(untraced_s=untraced, traced_s=traced)

    verdict = score(records, verdicts)
    probe_records = run_pass(w, spec, probe, 0)
    probed = score(probe_records, probe, w.known_defects)
    digest = verdict_digest(records + probe_records)
    attempted = len(records)
    error_rate = verdict["failed"] / attempted
    kinds = per_kind(records)
    for key, (value, unit) in metrics.items():
        lines.append(f"{key:<44} {value:>14.6g} {unit}")
    lines.append(f"{'error_rate':<44} {error_rate:>14.6g} ratio "
                 f"({verdict['failed']} of {attempted} verdicts failed)")
    for k, s in kinds.items():
        lines.append(f"  kind {k:<22} n={s['n']:<4} p50 {s['p50_ms']:9.2f} ms  "
                     f"total {s['total_s']:8.3f} s")
    lines.append(f"verdict digest: {digest} ({len(verdicts) + len(probe)} "
                 f"verdicts of pass 1 and the probe)")
    for vid, f in sorted(verdict["failures"].items()):
        what = f["error"] or f"expected {f['expected']}, got {f['got']}"
        lines.append(f"FAILED {vid} (passes {f['passes']}): {what}")
    lines.append(f"defect probe: {probed['failed']} of {len(probe)} verdicts "
                 f"raised; error_rate with the probe "
                 f"{(verdict['failed'] + probed['failed']) / (attempted + len(probe)):.6g}")
    for r in probe_records:
        f = probed["failures"].get(r["vid"])
        if f is None:
            what = "returned its construction: the defect no longer shows"
        elif f.get("undocumented_raise") or f["error"] is None:
            what = (f["error"] or f"expected {f['expected']}, got {f['got']}")
            what = f"WRONG {what}"
        else:
            what = f"documented defect: {f['error']}"
        lines.append(f"  probe {r['vid']}: {what}")

    result.update(
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        error_rate=error_rate, attempted=attempted, failed=verdict["failed"],
        correct=verdict["correct"] and probed["correct"], digest=digest,
        failures=verdict["failures"], probe=probed["failures"],
        per_kind=kinds,
        first_pass=[[r["vid"], r["fields"]] for r in records + probe_records
                    if r["pass"] == 0],
        latencies_ms=[[r["vid"], 1000.0 * r["seconds"], r.get("ref_s")]
                      for r in records],
    )
    out_path = OUT / f"result-{name}-seed{seed}-trace{trace}.json"
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True))
    lines.append(f"result file: {out_path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": verdict["failed"],
        "metrics": result["metrics"],
    }))


def run_all(args):
    """Each workload in its own process: ru_maxrss only ever grows."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv=None):
    t0 = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, t0)
        return 0
    _use_library()
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
