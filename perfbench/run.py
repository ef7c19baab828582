"""Closed-loop arm benchmark for knotmpc.

    python3 perfbench/run.py --workload knot_arm6 --seed 1 --seconds 40 --trace 0

One operation is one control step of ``knotmpc.closedloop.run_closed_loop``
on a simulated N-link arm at 100 Hz: linearize, discretize, build, solve or
search, extract.  The load is a closed loop: one robot, and each step starts
only after the previous one has finished.  Every episode runs a fresh
controller (warm starts within the episode) from a start to a goal drawn
from the seed.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` repeats the
same episodes with span and counter wrappers installed on the layers the
loop calls and reports per-layer metrics.  Either way the last line of
standard output is one JSON object; the lines before it are the same
figures for people.  The exit code is 0 only when every output check
passed.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads.  NOTES.md records what the
# threaded default costs on a 2-core machine.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

import knotmpc
from knotmpc import closedloop
from knotmpc.bench import (
    _controller_from_token,
    _derived_seed,
    _sample_endpoints,
    _trial_rng,
    make_plant,
    make_template,
    parse_controller_token,
    preset_config,
    qp_settings,
)
from knotmpc.closedloop import actual_cost, run_closed_loop

import checks
from spans import Tracer, installed

if Path(knotmpc.__file__).resolve().parent != ROOT / "src" / "knotmpc":
    raise SystemExit(f"perfbench: imported knotmpc from {knotmpc.__file__}, not from this checkout's src/")

PRESET = preset_config("closedloop_arms")  # plant, template, sampling and solver settings come from here
SETUP_PROBES = 12
WARMUP_STEPS = 2


@dataclass(frozen=True)
class Workload:
    links: int
    controller: str  # a controller token of the preset
    steps: int  # control steps per episode; NOTES.md compares them with the preset's 10 s
    episodes: int  # episodes every run completes; track_cost sums over these


WORKLOADS = {
    # the paper's knot controller on its largest closed-loop arm
    "knot_arm6": Workload(links=6, controller="small_param:3", steps=50, episodes=20),
    # same arm and endpoints searched by EMPC; never calls qp
    "empc_arm6": Workload(links=6, controller="empc:3:3", steps=50, episodes=16),
}


class Bench:
    """Plant, MPC template and inputs of one workload and seed, built as the
    preset builds them, with the seed in place of the preset's."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.cfg = replace(PRESET, seed=seed)
        self.plant = make_plant(self.cfg.robot, wl.links)
        self.template = make_template(self.plant, self.cfg, self.cfg.T)
        self.qp = qp_settings(self.cfg)
        self._token = parse_controller_token(wl.controller)
        self._c_idx = self.cfg.controllers.index(wl.controller)
        # first calls load lazily imported code; every run pays this once
        self.simulate(0, WARMUP_STEPS)

    def inputs(self, e: int):
        """Start and goal of episode ``e``, drawn as the preset draws trial ``e``."""
        return _sample_endpoints(_trial_rng(self.cfg, self.wl.links, e), self.plant.m)

    def simulate(self, e: int, steps: int):
        x0, xg = self.inputs(e)
        # EMPC's seed, as the preset derives it for this controller
        seed = _derived_seed(self.cfg, self.wl.links, e, self._c_idx)
        controller = _controller_from_token(self._token, self.cfg, seed)
        rate = self.cfg.rate
        return run_closed_loop(self.plant, controller, self.template, x0, xg, steps / rate, rate, qp_settings=self.qp)


class StepClock:
    """Stands in for ``closedloop.integrate``: the clock reads on either side
    of each plant integration mark where one control step ends and the
    next begins."""

    def __init__(self, integrate):
        self._integrate = integrate
        self.marks: list[tuple[float, float]] = []

    def __call__(self, *args, **kwargs):
        t0 = perf_counter()
        x = self._integrate(*args, **kwargs)
        self.marks.append((t0, perf_counter()))
        return x


@dataclass
class Run:
    episode_ops: list[list[float]] = field(default_factory=list)  # seconds per control step, per episode
    states: list[np.ndarray] = field(default_factory=list)  # per episode
    costs: list[tuple[float, float]] = field(default_factory=list)  # (realized, zero input) per episode
    episode_walls: list[float] = field(default_factory=list)  # seconds per episode, start-up to return
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ops(self) -> list[float]:
        return [op for ops in self.episode_ops for op in ops]

    @property
    def attempted(self) -> int:
        return sum(map(len, self.episode_ops))


def run_episode(bench: Bench, e: int, run: Run, tracer: Tracer | None = None) -> bool:
    """Run episode ``e`` into ``run``, traced if a tracer is given.  Returns
    False if the episode raised."""
    wl = bench.wl
    clock = StepClock(closedloop.integrate)
    integrate = clock if tracer is None else tracer.span("dynamics.integrate", clock)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(installed(tracer))
        stack.enter_context(mock.patch.object(closedloop, "integrate", integrate))
        t_call = perf_counter()
        try:
            res = bench.simulate(e, wl.steps)
        except Exception as exc:  # a step that raises is a failed operation; the run stops there
            last = clock.marks[-1][1] if clock.marks else t_call
            run.episode_ops.append(_op_times(t_call, clock.marks) + [perf_counter() - last])
            run.failed += 1
            run.problems.append(f"episode {e} raised {type(exc).__name__}: {exc}")
            return False
    run.episode_walls.append(perf_counter() - t_call)
    run.episode_ops.append(_op_times(t_call, clock.marks))
    run.failed += res.failures
    x0, xg = bench.inputs(e)
    tmpl = bench.template
    idle = (wl.steps + 1) * float((xg - x0) @ tmpl.Q @ (xg - x0))
    run.costs.append((actual_cost(res.states, res.inputs, tmpl.Q, tmpl.R, xg), idle))
    run.states.append(res.states)
    found = checks.episode_problems(res.states, res.inputs, tmpl.u_min, tmpl.u_max, bench.qp.eps_prim)
    run.problems += [f"episode {e}: {p}" for p in found]
    if tracer is not None:
        check_solves(tracer, bench.qp)
    return True


def measure(bench: Bench, seconds: float, at_least: int, between=None) -> Run:
    """Run whole episodes, at least ``at_least`` of them, then more until
    ``seconds`` have passed.  ``between(elapsed)`` runs after each episode."""
    run = Run()
    t_start = perf_counter()
    e = 0
    while e < at_least or perf_counter() - t_start < seconds:
        if not run_episode(bench, e, run):
            break
        if between is not None:
            between(perf_counter() - t_start)
        e += 1
    return run


def measure_paired(bench: Bench, seconds: float, tracer: Tracer) -> tuple[Run, Run]:
    """Run each episode untraced and traced back to back, the order
    alternating, until ``seconds`` have passed.  Both runs then see the same
    speed phases of the machine, so their ratio shows the cost of tracing."""
    untraced, traced = Run(), Run()
    t_start = perf_counter()
    e = 0
    while e < 1 or perf_counter() - t_start < seconds:
        pair = [(untraced, None), (traced, tracer)]
        if e % 2:
            pair.reverse()
        if not all(run_episode(bench, e, run, t) for run, t in pair):
            break
        e += 1
    return untraced, traced


def check_solves(tracer: Tracer, settings) -> None:
    """Count the QP solves of the last episode and check each solved one
    against its problem data from outside the solver."""
    c = tracer.counts
    for prob, sol in tracer.solves:
        c["qp.solves"] += 1
        c["qp.iters"] += sol.iterations
        if sol.status == "solved":
            c["qp.polish0"] += sol.iterations == 0
            found = checks.kkt_problems(prob, sol.z, sol.dual, settings.eps_prim, settings.eps_dual)
            c["qp.unverified"] += bool(found)
    tracer.solves.clear()


def _op_times(t_call: float, marks: list[tuple[float, float]]) -> list[float]:
    """Step latencies of one episode: the first from the loop's call, each
    later one from the end of the previous plant integration."""
    starts = [t_call] + [after for _, after in marks[:-1]]
    return [before - start for (before, _), start in zip(marks, starts)]


def track_cost(run: Run, episodes: int) -> float:
    """Realized tracking cost of the workload's own episodes over the cost
    of holding zero torque (the arm then stays at its start)."""
    realized, idle = zip(*run.costs[:episodes])
    return sum(realized) / sum(idle)


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to the point where it would
    time its first step."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    cmd = [sys.executable, str(Path(__file__).resolve()), *args]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


class SetupProbes:
    """Set-up times of ``count`` fresh processes, taken at even intervals
    over a run of ``seconds``.  Spreading them lets every speed phase of the
    machine during the run weigh in on their median."""

    def __init__(self, workload: str, seed: int, count: int, seconds: float):
        self.args = (workload, seed)
        self.count = count
        self.interval = seconds / count
        self.times: list[float] = []

    def __call__(self, elapsed: float) -> None:
        if len(self.times) < self.count and elapsed >= len(self.times) * self.interval:
            self.times.append(setup_seconds(*self.args))

    def median(self) -> float:
        while len(self.times) < self.count:  # the run ended before all were due
            self.times.append(setup_seconds(*self.args))
        return statistics.median(self.times)


def end_to_end(run: Run, bench: Bench, setup_s: float) -> dict:
    """The listed metrics.  The machine's speed drifts between a fast and a
    slow phase (NOTES.md), which moves medians between runs; the slow tail
    of latency and of per-episode throughput stays put."""
    throughput = bench.wl.steps / np.asarray(run.episode_walls)
    return {
        "op_ms.p90": (float(np.percentile(run.ops, 90)) * 1e3, "ms"),
        "ops_per_s.p10": (float(np.percentile(throughput, 10)), "1/s"),
        "track_cost": (track_cost(run, bench.wl.episodes), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(traced: Run, untraced: Run, tracer: Tracer) -> tuple[dict, dict]:
    """Per-operation layer metrics, and each span's self time for the report."""
    ops = traced.attempted
    self_s = tracer.self_times()
    c = tracer.counts
    solves = c["qp.solves"]
    in_op = tracer.top_level_seconds(exclude="dynamics.integrate")

    def ms(seconds):
        return seconds / ops * 1e3

    layers = {name: ms(s) for name, s in sorted(self_s.items())}
    layers["closedloop.self"] = ms(sum(traced.ops) - in_op)
    metrics = {
        "dynamics.linearize.ms": (layers.get("dynamics.linearize", 0.0), "ms"),
        "dynamics.discretize.ms": (layers.get("dynamics.discretize", 0.0), "ms"),
        "dynamics.integrate.ms": (layers.get("dynamics.integrate", 0.0), "ms"),
        "dynamics.accel_calls": (c["dynamics.accel_calls"] / ops, "count"),
        "param.interp_calls": (c["param.interp_calls"] / ops, "count"),
        "condense.build.ms": (layers.get("condense.build", 0.0) + layers.get("empc.condense", 0.0), "ms"),
        "solve.ms": (layers.get("qp.solve", 0.0) + layers.get("empc.search", 0.0), "ms"),
        "qp.iters": (c["qp.iters"] / solves if solves else 0.0, "count"),
        "qp.polish0_frac": (c["qp.polish0"] / solves if solves else 0.0, "ratio"),
        "qp.factor_calls": (c["qp.factor_calls"] / solves if solves else 0.0, "count"),
        "qp.unverified": (c["qp.unverified"], "count"),
        "closedloop.self.ms": (layers["closedloop.self"], "ms"),
        "trace.overhead_frac": (overhead_frac(traced, untraced), "ratio"),
    }
    return metrics, layers


def overhead_frac(traced: Run, untraced: Run) -> float:
    """Median over the episode pairs of traced op_ms.p50 over untraced
    op_ms.p50, minus 1."""
    ratios = [np.median(t) / np.median(u) for t, u in zip(traced.episode_ops, untraced.episode_ops)]
    return float(np.median(ratios) - 1.0)


def env_record() -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            rev = out.stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "blas_threads": BLAS_THREADS,
        "git_rev": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(np),
        "scipy_blas": _blas_version(scipy),
    }


def _blas_version(module) -> str:
    info = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()


def report(metrics: dict, correct: bool, attempted: int, failed: int) -> None:
    """Figures for people, then the result line as the last line."""
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None, setup_probes: int = SETUP_PROBES, workloads: dict = WORKLOADS) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    bench = Bench(workloads[args.workload], args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env_record()))
    if args.trace == 0:
        probes = SetupProbes(args.workload, args.seed, setup_probes, args.seconds)
        run = measure(bench, args.seconds, at_least=bench.wl.episodes, between=probes)
        problems, attempted, failed = run.problems, run.attempted, run.failed
        metrics = end_to_end(run, bench, probes.median()) if not problems else {}
        timed = run
    else:
        # track_cost is not reported here, so the workload's own episodes
        # are not required
        tracer = Tracer()
        untraced, traced = measure_paired(bench, args.seconds, tracer)
        problems = untraced.problems + traced.problems
        if len(traced.states) != len(untraced.states) or any(
            a.tobytes() != b.tobytes() for a, b in zip(traced.states, untraced.states)
        ):
            problems.append("traced and untraced state trajectories differ")
        unverified = tracer.counts["qp.unverified"]
        if unverified:
            problems.append(f"{unverified} solves reported solved fail the outside KKT check")
        attempted, failed = traced.attempted, traced.failed + unverified
        metrics, layers = per_layer(traced, untraced, tracer) if traced.attempted else ({}, {})
        op_ms = sum(traced.ops) / max(traced.attempted, 1) * 1e3
        for name, value in layers.items():
            share = "outside the op" if name == "dynamics.integrate" else f"{100 * value / op_ms:6.2f} % of op"
            print(f"layer {name:22s} {value:10.4f} ms/op  {share}")
        timed = untraced
    samples = timed.attempted - int(0.9 * timed.attempted)
    print(f"episodes {len(timed.states)}  ops {timed.attempted}  samples beyond p90 {samples}")
    # printed for people, not listed in BENCHMARK.json (see NOTES.md)
    if args.trace == 0:
        print(f"{'op_ms.p50':24s} {float(np.percentile(timed.ops, 50)) * 1e3:14.6g} ms")
    print(f"{'fail_frac':24s} {failed / max(attempted, 1):14.6g} ratio")
    for p in problems:
        print(f"check failed: {p}")
    report(metrics, not problems, attempted, failed)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
