"""The closed-loop benchmark under perfbench/ must keep running on this tree.

perfbench times its layers by patching names of knotmpc modules
(perfbench/spans.py) and builds its workloads from helpers of
knotmpc.bench (perfbench/run.py).  A refactor that renames or removes one
of them breaks the benchmark without failing any other test; the
benchmark's own self-test runs every workload, traced and untraced, at a
tiny length and exits non-zero when that happens.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# every workload traced at the self-test's tiny length, one JSON line each
_TRACED_TINY = """
import json
import selftest
for name in selftest.TINY:
    argv = ["--workload", name, "--seed", str(selftest.SEED), "--seconds", "0", "--trace", "1"]
    code, result, _ = selftest._run_main(argv)
    print(json.dumps({"workload": name, "code": code, "metrics": result["metrics"]}))
"""


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_every_workload_times_its_build_and_its_solve():
    # the self-test checks only that each metric is emitted; a refactor that
    # moves a controller's build or solve out of every span reads 0 here
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_TINY],
        cwd=ROOT / "perfbench", capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {r["workload"] for r in records} == {"knot_arm6", "empc_arm6"}
    for r in records:
        assert r["code"] == 0, r
        for metric in ("condense.build.ms", "solve.ms"):
            assert r["metrics"][metric]["value"] > 0.0, (r["workload"], metric)
