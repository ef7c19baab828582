"""A change's evidence record: paired perfbench runs, fixed work and parity.

    python3 tools/pairs.py --parent REV --change REV --slug SLUG [--pairs 10]
        [--workload W ...] [--seed0 S] [--scratch DIR]

Exports both revisions with ``git archive`` into a scratch directory and
runs ``perfbench/run.py`` of each export, one run at a time, for
``BENCHMARK.json``'s ``run_seconds``.  For every workload that file lists
(``--workload`` picks some of them), untraced (``--trace 0``) and then
traced (``--trace 1``), pair k runs both sides on seed ``seed0 + k``, the
parent first for even k and the change first for odd k.  After every odd
pair a null pair runs the parent twice on that pair's seed, so the null set
measures how far two runs of the same code differ on this machine meanwhile.

Beside each raw result line the record holds the user and steal jiffies of
``/proc/stat``'s ``cpu`` line, read before and after the run; a run with
much steal was disturbed by the host.  The output ``BENCH_<slug>.json``
holds the raw records and, per workload and trace mode, each side's summed
``failed`` operations and its runs that gave no result line or a failed
check, and per metric: each side's median and interquartile range, the
median of the pair differences (change - parent) and its share of the
parent median, how many pairs were better, worse or equal, the null pairs'
differences and their spread, a verdict and, for the end-to-end metrics, a
bound check.

The null spread is the largest absolute null difference once the single
largest is set aside (with fewer than three null pairs, the largest), so
one run the host disturbed cannot set it, while null differences that keep
one sign, an order effect, still do.  The bar is the larger of the spread
and the parent's interquartile range.  The verdict is "gain" when the
median difference is in the metric's better direction (from
``BENCHMARK.json``) and beyond the bar, the change is better in at least
nine of ten pairs run (a pair missing a result on either side counts
against it) and it failed no more operations and no more runs than the
parent; "loss" when the median difference is beyond the bar the other way;
else "noise".  With fewer than ``MIN_PAIRS`` pairs run it is "too few
pairs", because a few pairs of identical code read "gain" and "loss" alike;
without null pairs it is "no null".  The bound check takes
the metric's ``BENCHMARK.json`` bound as a share of the parent median:
"broken" when the median difference is worse by more than that, else
"unresolved" when the bar is wider than it and some run of the change
reads no better than some run of the parent, else "holds".

Each export then runs the fixed-work table: ``perfbench/run.py --seconds 0
--trace 0`` for every workload run, on seeds 7, 209, 3509 and 401-410.  At
zero seconds a run does exactly its workload's own episodes, so
``failed``, ``attempted`` and ``track_cost`` compare across revisions
whatever their speed; 209 and 3509 are the seeds a rounding change moves
first.  The comparison gives each seed's relative ``track_cost`` move and
its ``failed`` on both sides, and the move of the 401-410 median.  Last,
the parent export's ``tools/parity.py`` records the masked-CSV hashes, and
the change export's ``tools/parity.py --against`` that record compares.

The exit status is 1 when a run gave no result or a paired run exited
non-zero, or when failures rose: ``failed`` on a fixed-work seed, a seed
that lost its ``track_cost``, or a parity preset's failures.  A changed
parity hash is recorded but leaves the status 0, because a change that
moves rounding may move it.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEDIAN_SEEDS = tuple(range(401, 411))
FIXED_SEEDS = (7, 209, 3509, *MEDIAN_SEEDS)
MIN_PAIRS = 10  # pairs run below which no metric gets a verdict


def benchmark() -> dict:
    """BENCHMARK.json's run length, workload names and, per metric, its
    better direction ("lower" or "higher") and bound (None per layer)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "run_seconds": bench["run_seconds"],
        "workloads": [w["name"] for w in bench["workloads"]],
        "metrics": {m["name"]: {"better": m["better"], "bound": m.get("bound")}
                    for m in bench["end_to_end"] + bench["per_layer"]},
    }


def cpu_jiffies() -> dict[str, int]:
    """User and steal jiffies of the aggregate ``cpu`` line of /proc/stat."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()
    return {"user": int(fields[1]), "steal": int(fields[8])}


def export(rev: str, scratch: Path) -> tuple[str, Path]:
    """The full commit id of ``rev`` and a fresh ``git archive`` of it."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    dest = scratch / sha[:12]
    if not dest.exists():
        tar = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(dest, filter="data")
    return sha, dest


def schedule(pairs: int) -> list[tuple[int, str, tuple[str, str]]]:
    """(pair index, kind, run order) for every pair and null pair in run order."""
    plan = []
    for k in range(pairs):
        plan.append((k, "pair", ("parent", "change") if k % 2 == 0 else ("change", "parent")))
        if k % 2 == 1:
            plan.append((k, "null", ("parent", "parent_b")))
    return plan


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before, started = cpu_jiffies(), time.time()
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after = cpu_jiffies()
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {"exit": out.returncode, "started": started, "seconds_wall": time.time() - started,
            "jiffies": {k: after[k] - before[k] for k in before}, "env": env, "result": result}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _value(run: dict, metric: str) -> float | None:
    result = run.get("result") or {}
    entry = result.get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


def _outcomes(runs: list[dict]) -> dict[str, int]:
    """Summed ``failed`` operations, and runs that gave no result line or a
    failed output check, of some runs of one side."""
    results = [r.get("result") for r in runs]
    return {"failed": sum(res["failed"] for res in results if res),
            "bad_runs": sum(not res or not res.get("correct", False) for res in results)}


def _bound_check(med: float, sign: float, bar: float, parent: list[float], change: list[float],
                 bound: float | None) -> str | None:
    if bound is None:
        return None
    allowed = bound * abs(statistics.median(parent))
    if -sign * med > allowed:
        return "broken"
    # a spread wider than the bound cannot tell, unless every run of the
    # change reads better than every run of the parent
    separated = min(sign * c for c in change) > max(sign * a for a in parent)
    return "unresolved" if bar > allowed and not separated else "holds"


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per workload and trace mode: the statistics of the module docstring
    over the raw records ``runs``.  A record has ``workload``, ``trace``,
    ``pair``, ``kind`` ("pair" or "null"), ``side`` ("parent", "change" or
    "parent_b") and the perfbench ``result``; ``metrics`` maps a metric name
    to its ``better`` direction and ``bound``, as ``benchmark()`` does."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for r in runs:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    out: dict = {}
    for (workload, trace), group in sorted(groups.items()):
        sides = {(r["kind"], r["pair"], r["side"]): r for r in group}
        pair_ids = sorted({r["pair"] for r in group if r["kind"] == "pair"})
        null_ids = sorted({r["pair"] for r in group if r["kind"] == "null"})
        outcomes = {side: _outcomes([r for r in group if r["kind"] == "pair" and r["side"] == side])
                    for side in ("parent", "change")}
        # the change may fail no more operations, and lose no more runs, than the parent
        held = all(outcomes["change"][k] <= outcomes["parent"][k] for k in ("failed", "bad_runs"))
        summaries = {}
        for metric, spec in metrics.items():
            diffs, parent, change = [], [], []
            for k in pair_ids:
                a, b = (_value(sides.get(("pair", k, s), {}), metric) for s in ("parent", "change"))
                if a is not None and b is not None:
                    diffs.append(b - a)
                    parent.append(a)
                    change.append(b)
            if not diffs:
                continue
            nulls = []
            for k in null_ids:
                a, b = (_value(sides.get(("null", k, s), {}), metric) for s in ("parent", "parent_b"))
                if a is not None and b is not None:
                    nulls.append(b - a)
            sign = -1.0 if spec["better"] == "lower" else 1.0
            med = statistics.median(diffs)
            spread = sorted(map(abs, nulls))[-2 if len(nulls) >= 3 else -1] if nulls else None
            pq, cq = _quartiles(parent), _quartiles(change)
            bar = max(spread or 0.0, pq[2] - pq[0])
            better_pairs = sum(sign * d > 0 for d in diffs)
            if len(pair_ids) < MIN_PAIRS:
                verdict = "too few pairs"
            elif spread is None:
                verdict = "no null"
            elif sign * med > bar and better_pairs >= 0.9 * len(pair_ids) and held:
                verdict = "gain"
            elif -sign * med > bar:
                verdict = "loss"
            else:
                verdict = "noise"
            summaries[metric] = {
                "better": spec["better"],
                "pairs": len(diffs),
                "parent_median": pq[1], "parent_iqr": pq[2] - pq[0],
                "change_median": cq[1], "change_iqr": cq[2] - cq[0],
                "median_diff": med,
                "median_diff_rel": med / pq[1] if pq[1] else None,
                "better_pairs": better_pairs,
                "worse_pairs": sum(sign * d < 0 for d in diffs),
                "equal_pairs": sum(d == 0 for d in diffs),
                "null_diffs": nulls,
                "null_spread": spread,
                "verdict": verdict,
                "bound": spec["bound"],
                "bound_check": _bound_check(med, sign, bar, parent, change, spec["bound"]),
            }
        out.setdefault(workload, {})["traced" if trace else "untraced"] = {
            "pairs_run": len(pair_ids), "outcomes": outcomes, "metrics": summaries}
    return out


def fixed_work(tree: Path, workloads: list[str]) -> dict:
    """Per workload and seed, ``failed``, ``attempted`` and ``track_cost``
    (None when not reported) of one fixed-work run of the export ``tree``,
    or None when the run gave no result line."""
    table = {}
    for workload in workloads:
        for seed in FIXED_SEEDS:
            result = run_once(tree, workload, seed, 0, 0)["result"]
            table.setdefault(workload, {})[str(seed)] = result and {
                "failed": result["failed"], "attempted": result["attempted"],
                "track_cost": result["metrics"].get("track_cost", {}).get("value")}
            print(json.dumps({"fixed_work": tree.name, "workload": workload, "seed": seed}),
                  file=sys.stderr, flush=True)
    return table


def _median_cost(runs: dict) -> float | None:
    costs = [runs[str(s)]["track_cost"] for s in MEDIAN_SEEDS]
    return None if None in costs else statistics.median(costs)


def _rel(old: float | None, new: float | None) -> float | None:
    if old is None or new is None:
        return None
    return 0.0 if new == old else (new - old) / abs(old)


def compare_fixed_work(old: dict, new: dict) -> dict:
    """Per workload and seed, the relative track_cost move and failed on both
    sides, plus the move of the 401-410 median; ``failures_rose`` is true if
    any seed failed more often or lost its track_cost."""
    moves, rose = {}, False
    for w, runs in new.items():
        seeds = {}
        for seed, r in runs.items():
            o = old[w][seed]
            seeds[seed] = {"track_cost_rel": _rel(o["track_cost"], r["track_cost"]),
                           "failed_before": o["failed"], "failed": r["failed"]}
            rose |= r["failed"] > o["failed"] or (r["track_cost"] is None and o["track_cost"] is not None)
        moves[w] = {"seeds": seeds, "median_track_cost_rel": _rel(_median_cost(old[w]), _median_cost(runs))}
    return {"workloads": moves, "failures_rose": rose}


def parity(trees: dict[str, Path], scratch: Path) -> dict | None:
    """The change export's ``tools/parity.py --against`` the parent export's
    record: per preset, whether the hash is unchanged, the largest relative
    ``actual_cost`` move, the changed controllers and both sides' failures.
    None when either run gave no JSON."""
    record = scratch / "parity_parent.json"
    record.write_text(subprocess.run([sys.executable, "tools/parity.py"], cwd=trees["parent"],
                                     capture_output=True, text=True).stdout)
    out = subprocess.run([sys.executable, "tools/parity.py", "--against", str(record)], cwd=trees["change"],
                         capture_output=True, text=True)
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError:
        return None


def run_all(args, trees: dict[str, Path], seconds: float, workloads: list[str]) -> list[dict]:
    """Every run of the schedule, per workload, untraced and then traced,
    as raw records; each is logged to stderr as it finishes."""
    runs = []
    for workload in workloads:
        for trace in (0, 1):
            for k, kind, order in schedule(args.pairs):
                seed = args.seed0 + k
                for side in order:
                    rec = {"workload": workload, "trace": trace, "seconds": seconds, "seed": seed,
                           "pair": k, "kind": kind, "side": side, "first": order[0]}
                    rec.update(run_once(trees[side], workload, seed, seconds, trace))
                    runs.append(rec)
                    print(json.dumps({key: rec[key] for key in ("workload", "trace", "seed", "kind", "side",
                                                                 "exit", "jiffies")}), file=sys.stderr, flush=True)
    return runs


def main(argv=None) -> int:
    bench = benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--change", required=True, help="git revision of the changed side")
    ap.add_argument("--slug", required=True, help="the output is BENCH_<slug>.json at the repo root")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=bench["workloads"],
                    help="repeatable; default every workload of BENCHMARK.json")
    ap.add_argument("--seed0", type=int, default=2801)
    ap.add_argument("--scratch", help="directory for the exports; default a temporary one, removed at the end")
    args = ap.parse_args(argv)
    workloads = [w for w in bench["workloads"] if not args.workload or w in args.workload]
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        scratch = Path(args.scratch or tmp)
        scratch.mkdir(parents=True, exist_ok=True)
        (parent_rev, parent_tree), (change_rev, change_tree) = export(args.parent, scratch), export(args.change, scratch)
        trees = {"parent": parent_tree, "parent_b": parent_tree, "change": change_tree}
        runs = run_all(args, trees, bench["run_seconds"], workloads)
        fixed = {side: fixed_work(trees[side], workloads) for side in ("parent", "change")}
        parity_report = parity(trees, scratch)
    summary = summarize(runs, bench["metrics"])
    complete = all(e is not None for table in fixed.values() for seeds in table.values() for e in seeds.values())
    fixed["compare"] = compare_fixed_work(fixed["parent"], fixed["change"]) if complete else None
    doc = {
        "slug": args.slug,
        "parent": {"git_rev": parent_rev},
        "change": {"git_rev": change_rev},
        "machine": next((r["env"] for r in runs if r.get("env")), None),
        "protocol": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds X --trace T, in a git archive "
                       "export of each side, X = BENCHMARK.json run_seconds",
            "pairs": args.pairs, "seed0": args.seed0, "seconds": bench["run_seconds"],
            "order": "pair k on seed seed0 + k; parent first for even k; a parent-parent null pair after odd k",
            "verdict": "bar = max(null spread (the second largest absolute null difference; the largest "
                       "with < 3 null pairs), parent IQR); gain if the median pair difference is beyond "
                       "the bar in the better direction, the change is "
                       "better in >= 9/10 of the pairs run and fails no more operations or runs than the "
                       "parent; loss if beyond the bar the other way; else noise; too few pairs "
                       f"below {MIN_PAIRS} pairs run",
            "bound_check": "bound = BENCHMARK.json bound x parent median; broken if the median pair difference "
                           "is worse by more than the bound, else unresolved if the bar is wider than it and "
                           "not every change run reads better than every parent run, else holds",
            "fixed_work": "python3 perfbench/run.py --workload W --seed S --seconds 0 --trace 0 in each "
                          "export, S in 7, 209, 3509, 401-410",
            "parity": "the change export's python3 tools/parity.py --against the parent export's record",
        },
        "summary": summary,
        "fixed_work": fixed,
        "parity": parity_report,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, modes in summary.items():
        for mode, group in modes.items():
            print(f"{workload:10s} {mode:9s} failed {group['outcomes']['parent']['failed']} -> "
                  f"{group['outcomes']['change']['failed']}, runs without a passing result "
                  f"{group['outcomes']['parent']['bad_runs']} -> {group['outcomes']['change']['bad_runs']}")
            for metric, s in group["metrics"].items():
                spread = "none" if s["null_spread"] is None else f"{s['null_spread']:.4g}"
                bound = "" if s["bound_check"] is None else f"  bound {s['bound_check']}"
                print(f"{workload:10s} {mode:9s} {metric:24s} {s['parent_median']:12.6g} -> {s['change_median']:12.6g}"
                      f"  diff {s['median_diff']:+.4g}  better {s['better_pairs']}/{group['pairs_run']}"
                      f"  null spread {spread}  {s['verdict']}{bound}")
    for workload, moves in (fixed["compare"] or {}).get("workloads", {}).items():
        for seed, m in moves["seeds"].items():
            print(f"{workload:10s} fixed work seed {seed:>4}: track_cost rel {m['track_cost_rel']!r}, "
                  f"failed {m['failed_before']} -> {m['failed']}")
        print(f"{workload:10s} fixed work median over 401-410: track_cost rel {moves['median_track_cost_rel']!r}")
    for preset, p in (parity_report or {}).items():
        print(f"parity {preset:22s} hash {'unchanged' if p['hash_unchanged'] else 'changed'}, "
              f"actual_cost rel {p['max_rel_actual_cost']!r} (rows gained {p.get('actual_cost_gained')}, "
              f"lost {p.get('actual_cost_lost')}), failures {p['failures_before']} -> {p['failures']}")
    print(f"wrote {out}")
    if any(r["exit"] != 0 or r["result"] is None for r in runs) or not fixed["compare"] or parity_report is None:
        print("a run gave no result or failed a check")
        return 1
    if fixed["compare"]["failures_rose"] or any(p["failures"] > p["failures_before"] for p in parity_report.values()):
        print("failures rose")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
