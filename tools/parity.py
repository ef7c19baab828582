"""Masked-CSV parity check over the bundled presets.

    python3 tools/parity.py > side.json                  # record this checkout
    python3 tools/parity.py --against parent.json        # compare with a record

Each preset runs reduced: trials=2, workers=1, links=(1, 2) on the
``nlink`` robot (a pendulum reads no links), and a 0.1 s duration except
for the ``param_sweep*`` and ``solve_times*`` presets, which keep theirs.
BLAS runs one thread.  The hash is the first 16 hex digits of the sha256
of the preset's CSV with the timing columns masked.  Without
``--against`` the output is one JSON object: per preset, the hash, the
``actual_cost`` column (null where a row has none), each row's
``controller`` token (kind, p and generations, as ``empc:3:3``) and
``digest`` (the same hash of that row alone) and the summed
``failures``.  With ``--against`` it is, per preset, whether the hash is
unchanged, the largest relative ``actual_cost`` change against the
recorded side over the rows that have a cost on both sides, how many rows
gained or lost a cost (``actual_cost_gained``/``actual_cost_lost``), the
``changed_controllers`` whose rows' digests differ (null against a record
without digests) and the failures of both sides; the exit status is 1
when a hash changed or failures rose, else 0.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: the hashes depend on it.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from knotmpc.bench import PRESETS, preset_config, rows_to_csv_text, run_experiment


def reduced_config(name: str):
    """The preset's config under the parity protocol."""
    cfg = replace(preset_config(name), trials=2, workers=1)
    if cfg.robot == "nlink":
        cfg = replace(cfg, links=(1, 2))
    if name.startswith(("param_sweep", "solve_times")):
        return cfg
    return replace(cfg, duration=0.1)


def masked_hash(rows: list[dict]) -> str:
    return hashlib.sha256(rows_to_csv_text(rows, include_timing=False).encode()).hexdigest()[:16]


def record(name: str, out_dir: str) -> dict:
    rows = run_experiment(reduced_config(name), out_dir)
    return {
        "hash": masked_hash(rows),
        "actual_cost": [None if r["actual_cost"] == "" else r["actual_cost"] for r in rows],
        "controller": [":".join(str(r[c]) for c in ("controller", "p", "generations") if r[c] != "") for r in rows],
        "digest": [masked_hash([r]) for r in rows],
        "failures": sum(int(r["failures"] or 0) for r in rows),
    }


def cost_change(old: list, new: list) -> dict:
    """The largest |new - old| / |old| over the rows where both sides have a
    cost, and the counts of rows that gained or lost one; with row lists of
    different lengths nothing pairs up, so the change is inf and the counts
    None."""
    if len(old) != len(new):
        return {"max_rel_actual_cost": float("inf"), "actual_cost_gained": None, "actual_cost_lost": None}
    worst = 0.0
    for a, b in zip(old, new):
        if a is None or b is None or a == b:
            continue
        worst = max(worst, abs(b - a) / abs(a) if a else float("inf"))
    return {
        "max_rel_actual_cost": worst,
        "actual_cost_gained": sum(a is None and b is not None for a, b in zip(old, new)),
        "actual_cost_lost": sum(a is not None and b is None for a, b in zip(old, new)),
    }


def changed_controllers(old: dict, new: dict) -> list[str] | None:
    """Controllers of the rows whose digest differs, paired by position;
    None if ``old`` predates per-row digests."""
    if "digest" not in old:
        return None
    rows = zip_longest(zip(old["controller"], old["digest"]), zip(new["controller"], new["digest"]))
    return sorted({c for a, b in rows if a != b for c, _ in filter(None, (a, b))})


def compare(old: dict, new: dict) -> dict:
    return {
        name: {
            "hash_unchanged": rec["hash"] == old[name]["hash"],
            **cost_change(old[name]["actual_cost"], rec["actual_cost"]),
            "changed_controllers": changed_controllers(old[name], rec),
            "failures": rec["failures"],
            "failures_before": old[name]["failures"],
        }
        for name, rec in new.items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="FILE", help="a JSON record of another side to compare with")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as out_dir:
        records = {name: record(name, out_dir) for name in sorted(PRESETS)}
    if not args.against:
        print(json.dumps(records, indent=1))
        return 0
    old = json.loads(Path(args.against).read_text())
    result = compare(old, records)
    print(json.dumps(result, indent=1))
    parity = all(r["hash_unchanged"] and r["failures"] <= r["failures_before"] for r in result.values())
    return 0 if parity else 1


if __name__ == "__main__":
    sys.exit(main())
