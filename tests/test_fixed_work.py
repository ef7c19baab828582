"""tools/fixed_work.py compares two fixed-work records and flags a rise in failures."""

import importlib.util
import json
from pathlib import Path

import pytest

FIXED_WORK = Path(__file__).resolve().parent.parent / "tools" / "fixed_work.py"


@pytest.fixture
def fixed_work():
    spec = importlib.util.spec_from_file_location("fixed_work", FIXED_WORK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(module, cost=1.0, failed=0):
    return {w: {str(s): {"failed": failed, "attempted": 1000, "track_cost": cost + s / 1000} for s in module.SEEDS}
            for w in module.WORKLOADS}


def test_compare_gives_relative_moves_and_flags_failures(fixed_work):
    old = _record(fixed_work)
    new = _record(fixed_work)
    new["knot_arm6"]["209"]["track_cost"] = old["knot_arm6"]["209"]["track_cost"] * (1 + 2e-7)
    result = fixed_work.compare(old, new)
    knot = result["workloads"]["knot_arm6"]
    assert knot["seeds"]["209"]["track_cost_rel"] == pytest.approx(2e-7, rel=1e-6)
    assert knot["seeds"]["7"] == {"track_cost_rel": 0.0, "failed_before": 0, "failed": 0}
    assert knot["median_track_cost_rel"] == 0.0
    assert not result["failures_rose"]

    # every 401-410 cost up by 1e-3 of its own value moves the median by 1e-3
    for s in fixed_work.MEDIAN_SEEDS:
        new["empc_arm6"][str(s)]["track_cost"] *= 1.001
    new["empc_arm6"]["405"]["failed"] = 1
    result = fixed_work.compare(old, new)
    assert result["workloads"]["empc_arm6"]["median_track_cost_rel"] == pytest.approx(1e-3, rel=1e-9)
    assert result["failures_rose"]


def test_a_seed_that_loses_its_cost_counts_as_failing(fixed_work):
    old = _record(fixed_work)
    new = _record(fixed_work)
    new["knot_arm6"]["7"]["track_cost"] = None
    result = fixed_work.compare(old, new)
    assert result["workloads"]["knot_arm6"]["seeds"]["7"]["track_cost_rel"] is None
    assert result["workloads"]["knot_arm6"]["median_track_cost_rel"] == 0.0
    assert result["failures_rose"]


@pytest.mark.parametrize("failed, status", [(0, 0), (2, 1)], ids=["same", "failures-rose"])
def test_against_exits_nonzero_when_failures_rise(fixed_work, monkeypatch, tmp_path, capsys, failed, status):
    saved = tmp_path / "parent.txt"
    saved.write_text("a line for people\n" + json.dumps(_record(fixed_work, failed=0)) + "\n")
    monkeypatch.setattr(fixed_work, "record", lambda: _record(fixed_work, failed=failed))
    assert fixed_work.main(["--against", str(saved)]) == status
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failures_rose"] == bool(status)
