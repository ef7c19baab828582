"""Fast self-test of the benchmark at tiny length.

    python3 perfbench/selftest.py

Runs every workload cut to one episode of a few steps, untraced and traced,
and checks that every metric BENCHMARK.json names is emitted with its unit.
It also checks that the output checks reject a tampered trajectory and a
perturbed QP solution, and that two processes on one seed agree exactly on
track_cost and the failure count.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys

import numpy as np

import checks
import run
from knotmpc.condense import build
from knotmpc.param import KnotSchedule
from knotmpc.qp import AdmmSolver

TINY = {name: dataclasses.replace(wl, steps=3, episodes=1) for name, wl in run.WORKLOADS.items()}
SEED = 11


def _run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, setup_probes=1, workloads=TINY)
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-1]), lines


def check_metrics_emitted():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
            code, result, lines = _run_main(argv)
            if code != 0 or not result["correct"] or result["attempted"] < 1:
                raise AssertionError(f"{name} trace {trace}: run failed: {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                raise AssertionError(f"{name} trace {trace}: metrics {got} != {want}")
            printed = ("op_ms.p50", "fail_frac") if trace == 0 else ("fail_frac",)
            for metric in printed:
                if not any(line.startswith(metric) for line in lines):
                    raise AssertionError(f"{name} trace {trace}: {metric} not printed")


def check_tampered_trajectory_rejected():
    bench = run.Bench(TINY["knot_arm6"], SEED)
    res = bench.simulate(0, 3)
    t = bench.template
    tol = bench.qp.eps_prim
    if checks.episode_problems(res.states, res.inputs, t.u_min, t.u_max, tol):
        raise AssertionError("an untouched trajectory was rejected")
    high = res.inputs.copy()
    high[1, 0] = t.u_max[0] + 0.1
    nan = res.states.copy()
    nan[2, 3] = np.nan
    if not checks.episode_problems(res.states, high, t.u_min, t.u_max, tol):
        raise AssertionError("an input above u_max was accepted")
    if not checks.episode_problems(nan, res.inputs, t.u_min, t.u_max, tol):
        raise AssertionError("a NaN state was accepted")


def check_perturbed_solution_rejected():
    bench = run.Bench(TINY["knot_arm6"], SEED)
    x0, xg = bench.inputs(0)
    spec = dataclasses.replace(bench.template, T=10, x_goal=xg)  # short horizon keeps the sparse solve quick
    eps_p, eps_d = bench.qp.eps_prim, bench.qp.eps_dual
    for kind, sched in (("large", None), ("small_param", KnotSchedule(spec.T, 3))):
        prob = build(kind, spec, x0, sched)
        sol = AdmmSolver(bench.qp).solve(prob)
        if sol.status != "solved" or checks.kkt_problems(prob, sol.z, sol.dual, eps_p, eps_d):
            raise AssertionError(f"{kind}: a solved QP failed the outside check")
        z = sol.z.copy()
        z[-1] += 1e-3
        if not checks.kkt_problems(prob, z, sol.dual, eps_p, eps_d):
            raise AssertionError(f"{kind}: a perturbed solution passed the outside check")
        if not checks.kkt_problems(prob, sol.z, -sol.dual, eps_p, eps_d):
            raise AssertionError(f"{kind}: flipped multipliers passed the outside check")


def _fingerprint() -> str:
    """track_cost and failure count of every tiny workload, in full digits."""
    out = []
    for name, wl in TINY.items():
        r = run.measure(run.Bench(wl, SEED), 0.0, at_least=wl.episodes)
        out.append(f"{name} {run.track_cost(r, wl.episodes)!r} {r.failed}")
    return "\n".join(out)


def check_two_processes_agree():
    cmd = [sys.executable, __file__, "--fingerprint"]
    a, b = (subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170).stdout for _ in range(2))
    if a != b or not a:
        raise AssertionError(f"two processes disagree:\n{a}\n--\n{b}")


def main() -> int:
    if sys.argv[1:] == ["--fingerprint"]:
        print(_fingerprint())
        return 0
    for check in (
        check_metrics_emitted,
        check_tampered_trajectory_rejected,
        check_perturbed_solution_rejected,
        check_two_processes_agree,
    ):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
