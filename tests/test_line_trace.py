"""Every function of the library is entered by some caller outside the
tests, or is on the allow-list below with the reason it stays.

``tools/line_trace.py`` runs that traffic (the eight CLI commands, the
demos and one pass of each perfbench workload) under a line tracer, in a
fresh process, and prints last the functions of which no line was entered.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PERFBENCH = "held by perfbench: spans.py wraps it by name (ROADMAP item 15)"
_MULTI_CHART = "multi-chart code: no caller glues charts yet (ROADMAP item 13)"

ALLOWED = {
    "association.weak_integral": _PERFBENCH,
    "asymptotics.is_negligible": _PERFBENCH,
    "bundle_maps.check_vb_moderate": _PERFBENCH,
    "bundle_maps.check_hybrid_moderate": _PERFBENCH,
    "geometry.Atlas.transition_handle": _MULTI_CHART,
    "geometry.VBAtlas._overlap_samples": _MULTI_CHART,
    "geometry.VBAtlas.fiber_transition": _MULTI_CHART,
    "geometry.affine_transition.<locals>.jf": _MULTI_CHART,
    "bundle_maps.align_representative.<locals>.new_fiber": _MULTI_CHART,
    "geometry.box_contains":
        "error path only: `_checked_stack` reads it for a refused point, then raises",
    "asymptotics.EpsGrid.geometric":
        "option path only: a grid flag or a geometric [grid]; "
        "the built-in config's grid is dyadic",
    "association.ShadowReport.__bool__": "public truth value of a report",
    "bundle_maps.VBEquivalenceReport.__bool__": "public truth value of a report",
    "manifold_maps.CBoundedReport.__bool__": "public truth value of a report",
    "nets.Net.__repr__": "public repr",
    "expressions.Expression.__repr__": "public repr",
}


def test_every_function_without_traffic_is_allowed(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_trace.py")], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    head = next(i for i, line in enumerate(lines)
                if line.endswith("functions of src/colombeau never entered:"))
    listed = [line.strip() for line in lines[head + 1:]]
    assert int(lines[head].split()[0]) == len(listed)
    assert set(listed) == set(ALLOWED)
