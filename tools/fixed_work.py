"""Fixed-work perfbench table: failed, attempted and track_cost per seed.

    python3 tools/fixed_work.py > side.txt                 # record this checkout
    python3 tools/fixed_work.py --against parent.txt       # compare with a record

Runs ``perfbench/run.py --seconds 0 --trace 0`` of this checkout for both
workloads over seeds 7, 209 and 401-410, one run at a time.  At zero
seconds a run does exactly its workload's own episodes, so ``failed``,
``attempted`` and ``track_cost`` compare across checkouts whatever their
speed.  The lines for people give those per seed, then the medians over
401-410; the last line is the JSON record, per workload and seed.  With
``--against`` (a file whose last line is such a record) the lines instead
give each seed's relative ``track_cost`` move and its ``failed`` on both
sides, and the exit status is 1 when ``failed`` rose on any seed or a seed
lost its ``track_cost``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("knot_arm6", "empc_arm6")
MEDIAN_SEEDS = tuple(range(401, 411))
SEEDS = (7, 209, *MEDIAN_SEEDS)


def run_seed(workload: str, seed: int) -> dict:
    """One fixed-work perfbench run: failed, attempted and track_cost (None
    when the run reported no metrics)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    cost = result["metrics"].get("track_cost")
    return {"failed": result["failed"], "attempted": result["attempted"],
            "track_cost": None if cost is None else cost["value"]}


def record() -> dict:
    return {w: {str(seed): run_seed(w, seed) for seed in SEEDS} for w in WORKLOADS}


def median_cost(runs: dict) -> float | None:
    costs = [runs[str(s)]["track_cost"] for s in MEDIAN_SEEDS]
    return None if None in costs else statistics.median(costs)


def rel(old: float | None, new: float | None) -> float | None:
    if old is None or new is None:
        return None
    return 0.0 if new == old else (new - old) / abs(old)


def compare(old: dict, new: dict) -> dict:
    """Per workload and seed, the relative track_cost move and failed on both
    sides, plus the move of the 401-410 median; ``failures_rose`` is true if
    any seed failed more often or lost its track_cost."""
    moves, rose = {}, False
    for w, runs in new.items():
        seeds = {}
        for seed, r in runs.items():
            o = old[w][seed]
            seeds[seed] = {"track_cost_rel": rel(o["track_cost"], r["track_cost"]),
                           "failed_before": o["failed"], "failed": r["failed"]}
            rose |= r["failed"] > o["failed"] or (r["track_cost"] is None and o["track_cost"] is not None)
        moves[w] = {"seeds": seeds, "median_track_cost_rel": rel(median_cost(old[w]), median_cost(runs))}
    return {"workloads": moves, "failures_rose": rose}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="FILE", help="a saved run of this tool whose last line is its record")
    args = ap.parse_args(argv)
    records = record()
    if not args.against:
        for w, runs in records.items():
            for seed, r in runs.items():
                print(f"{w} seed {seed:>4}: failed {r['failed']} of {r['attempted']}, track_cost {r['track_cost']!r}")
            failed = statistics.median(runs[str(s)]["failed"] for s in MEDIAN_SEEDS)
            print(f"{w} median over 401-410: failed {failed}, track_cost {median_cost(runs)!r}")
        print(json.dumps(records))
        return 0
    old = json.loads(Path(args.against).read_text().strip().splitlines()[-1])
    result = compare(old, records)
    for w, moves in result["workloads"].items():
        for seed, m in moves["seeds"].items():
            print(f"{w} seed {seed:>4}: track_cost rel {m['track_cost_rel']!r}, "
                  f"failed {m['failed_before']} -> {m['failed']}")
        print(f"{w} median over 401-410: track_cost rel {moves['median_track_cost_rel']!r}")
    print(json.dumps(result))
    return 1 if result["failures_rose"] else 0


if __name__ == "__main__":
    sys.exit(main())
