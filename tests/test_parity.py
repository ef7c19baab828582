"""tools/parity.py reports a broken parity gate by its exit status."""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from knotmpc.bench import PRESETS

PARITY = Path(__file__).resolve().parent.parent / "tools" / "parity.py"


@pytest.fixture
def parity(monkeypatch):
    # the script pins BLAS threads in os.environ and puts src/ on sys.path
    # when it loads; neither may leak into the rest of the session
    monkeypatch.setattr(sys, "path", list(sys.path))
    environ = dict(os.environ)
    with mock.patch.dict(os.environ):
        spec = importlib.util.spec_from_file_location("parity", PARITY)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    assert dict(os.environ) == environ


def _records(failures=0):
    return {
        name: {
            "hash": f"{i:016x}", "actual_cost": [1.0, None], "failures": failures,
            "controller": ["small_param:3", "empc:3:3"], "digest": [f"{i:015x}a", f"{i:015x}b"],
        }
        for i, name in enumerate(sorted(PRESETS))
    }


@pytest.mark.parametrize(
    "edit, status",
    [
        (lambda rec: None, 0),
        (lambda rec: rec.update(failures=0), 0),  # fewer failures than the record
        (lambda rec: rec.update(hash="changed", actual_cost=[1.5, None]), 1),
        (lambda rec: rec.update(failures=3), 1),
    ],
    ids=["same", "failures-fell", "hash-changed", "failures-rose"],
)
def test_against_exits_nonzero_when_parity_breaks(parity, monkeypatch, tmp_path, capsys, edit, status):
    recorded = _records(failures=1)
    current = _records(failures=1)
    edit(current["horizon_sweep"])
    monkeypatch.setattr(parity, "record", lambda name, out_dir: current[name])
    path = tmp_path / "parent.json"
    path.write_text(json.dumps(recorded))

    assert parity.main(["--against", str(path)]) == status
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == sorted(PRESETS)
    assert report["horizon_sweep"]["failures_before"] == 1
    assert report["closedloop_arms"] == {
        "hash_unchanged": True, "max_rel_actual_cost": 0.0, "actual_cost_gained": 0, "actual_cost_lost": 0,
        "changed_controllers": [], "failures": 1, "failures_before": 1,
    }


def _against(parity, monkeypatch, tmp_path, capsys, recorded, current):
    monkeypatch.setattr(parity, "record", lambda name, out_dir: current[name])
    path = tmp_path / "parent.json"
    path.write_text(json.dumps(recorded))
    status = parity.main(["--against", str(path)])
    return status, json.loads(capsys.readouterr().out)


def test_against_names_the_controllers_whose_rows_changed(parity, monkeypatch, tmp_path, capsys):
    recorded, current = _records(), _records()
    arms = current["closedloop_arms"]
    arms.update(hash="changed", digest=[arms["digest"][0], "changed"])
    status, report = _against(parity, monkeypatch, tmp_path, capsys, recorded, current)
    assert status == 1
    assert report["closedloop_arms"]["changed_controllers"] == ["empc:3:3"]
    assert all(report[name]["changed_controllers"] == [] for name in PRESETS if name != "closedloop_arms")


def test_a_filled_cost_column_is_counted_apart_from_the_rows_that_moved(parity, monkeypatch, tmp_path, capsys):
    # a row that gains a cost moved no solution, so it counts as gained, not as an inf change;
    # only row lists of different lengths fail to pair up
    recorded, current = _records(), _records()
    current["solve_times_t50"]["actual_cost"] = [1.0, 2.0]
    current["solve_times_t100"]["actual_cost"] = [1.5, 2.0]
    current["horizon_sweep"]["actual_cost"] = [None, None]
    current["closedloop_arms"]["actual_cost"] = [1.0, None, 3.0]
    _, report = _against(parity, monkeypatch, tmp_path, capsys, recorded, current)
    costs = {name: [report[name][k] for k in ("max_rel_actual_cost", "actual_cost_gained", "actual_cost_lost")]
             for name in PRESETS}
    assert costs["solve_times_t50"] == [0.0, 1, 0]
    assert costs["solve_times_t100"] == [0.5, 1, 0]
    assert costs["horizon_sweep"] == [0.0, 0, 1]
    assert costs["closedloop_arms"] == [float("inf"), None, None]
    assert costs["robustness_arm"] == [0.0, 0, 0]


def test_against_a_record_without_digests_names_no_controllers(parity, monkeypatch, tmp_path, capsys):
    recorded, current = _records(), _records()
    for rec in recorded.values():
        del rec["controller"], rec["digest"]
    status, report = _against(parity, monkeypatch, tmp_path, capsys, recorded, current)
    assert status == 0
    assert all(report[name]["changed_controllers"] is None for name in PRESETS)


def test_every_reduced_preset_validates(parity):
    # a reduced config that sets a key its run never reads is a ConfigError
    for name in PRESETS:
        parity.reduced_config(name).validate()
