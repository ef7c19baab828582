"""The closed-loop benchmark under perfbench/ must keep running on this tree.

perfbench times its layers by patching names of knotmpc modules
(perfbench/spans.py) and builds its workloads from helpers of
knotmpc.bench (perfbench/run.py).  A refactor that renames or removes one
of them breaks the benchmark without failing any other test; the
benchmark's own self-test runs every workload, traced and untraced, at a
tiny length and exits non-zero when that happens.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
