"""Tests for the command-line entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotmpc
from knotmpc.cli import main

TINY = """\
experiment = param_sweep
robot = pendulum_nograv
p = 1,2
trials = 1
duration = 0.3
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


def test_run_config_file(tiny_config, tmp_path, capsys):
    code = main(["run", str(tiny_config), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "results.csv").exists()
    out = capsys.readouterr().out
    assert "results.csv" in out


def test_run_preset_by_name(tmp_path):
    # preset names work in place of a file; overrides keep it quick
    code = main(["run", "param_sweep_linear", "--out", str(tmp_path), "--trials", "1"])
    assert code == 0
    assert (tmp_path / "param_sweep_linear.csv").exists()


def _strip_timing(path):
    import csv

    from knotmpc.bench import TIMING_COLUMNS

    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return [{k: v for k, v in row.items() if k not in TIMING_COLUMNS} for row in rows]


def test_run_seed_override(tiny_config, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(["run", str(tiny_config), "--out", str(a), "--seed", "5"]) == 0
    assert main(["run", str(tiny_config), "--out", str(b), "--seed", "5"]) == 0
    # timings vary run to run; everything else must match exactly
    assert _strip_timing(a / "results.csv") == _strip_timing(b / "results.csv")


def test_run_missing_file_fails():
    assert main(["run", "/nonexistent/exp.cfg"]) == 1


def test_run_invalid_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = time_travel\n")
    assert main(["run", str(bad)]) == 1


def test_run_knots_beyond_horizon_is_a_config_error(tmp_path, capsys):
    # caught by validation (exit 1), not by the knot schedule mid-run (exit 2)
    cases = {
        "tokens.cfg": "experiment = closedloop_comparison\nT = 4\ncontrollers = small,small_param:5\n",
        "sweep.cfg": "experiment = param_sweep\nrobot = pendulum_nograv\nduration = 0.05\np = 1,6\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        assert "horizon" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "param_sweep_linear" in out
    assert "closedloop_arms" in out


def test_presets_write(tmp_path, capsys):
    assert main(["presets", "--write", str(tmp_path)]) == 0
    files = sorted(p.name for p in tmp_path.glob("*.cfg"))
    assert "param_sweep_linear.cfg" in files
    assert len(files) == 8


def test_presets_write_loads_back_as_the_presets(tmp_path):
    from knotmpc.bench import PRESETS, load_config, preset_config

    assert main(["presets", "--write", str(tmp_path)]) == 0
    for name in PRESETS:
        assert load_config(str(tmp_path / f"{name}.cfg")) == preset_config(name)


def test_run_workers_override(tiny_config, tmp_path, monkeypatch):
    # --workers replaces the config file's worker count, and is validated
    tiny_config.write_text(TINY + "workers = 4\n")
    seen = []
    monkeypatch.setattr("knotmpc.cli.run_experiment", lambda cfg, out_dir: seen.append(cfg.workers) or [])
    assert main(["run", str(tiny_config), "--out", str(tmp_path), "--workers", "1"]) == 0
    assert main(["run", str(tiny_config), "--out", str(tmp_path)]) == 0
    assert seen == [1, 4]
    assert main(["run", str(tiny_config), "--out", str(tmp_path), "--workers", "0"]) == 1
    assert seen == [1, 4]


def test_installed_entry_point():
    # `python -m knotmpc` runs the same main as the installed script, so this
    # works from a source checkout; the script mapping is checked below
    src = str(Path(knotmpc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "knotmpc", "presets"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "param_sweep_linear" in proc.stdout
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["knotmpc"] == "knotmpc.cli:main"
