"""The benchmark's self-test passes on this checkout.

Its traced mode wraps library names from outside: ``SmoothMapHandle``'s
``__call__``, ``jet`` and ``jet_impl``, ``finite_difference_jet`` and the
checkers listed in ``perfbench/spans.py``.  Renaming one of them fails here
instead of in the next benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
