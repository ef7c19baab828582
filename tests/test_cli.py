"""Tests for the command-line entry point."""

import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import knotmpc
from knotmpc.cli import main

TINY = """\
experiment = "param_sweep"
robot = "pendulum_nograv"
p = [1, 2]
trials = 1
duration = 0.3
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.toml"
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


def test_run_missing_file_fails(tmp_path, capsys):
    assert main(["run", "/nonexistent/exp.toml"]) == 1
    # a path that exists but cannot be read as a file is a bad config too
    assert main(["run", str(tmp_path)]) == 1
    assert f"error: {tmp_path}: " in capsys.readouterr().err


def test_run_invalid_config(tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_text('experiment = "time_travel"\n')
    assert main(["run", str(bad)]) == 1


# files `knotmpc run` must refuse as a bad config, each with a word its message names
_BAD_FILES = {
    "malformed": ('experiment = "robustness\n', "line 1"),
    "repeated-key": ('experiment = "robustness"\nT = 10\nT = 20\n', "line 3"),
    "string-for-number": ('experiment = "robustness"\nrate = "100"\n', "rate: expected a number"),
    "bool-for-int": ('experiment = "robustness"\ntrials = true\n', "trials: expected an integer"),
    "scalar-for-array": ('experiment = "robustness"\nmultipliers = 0.8\n', "multipliers: expected an array"),
    "empty-array": ('experiment = "robustness"\ncontrollers = []\n', "controllers: empty list"),
    "table": ('experiment = "robustness"\n[solver]\nmax_iters = 10\n', "solver: unknown config key"),
    "inline-table": ('experiment = "robustness"\nT = {steps = 10}\n', "T: expected an integer"),
    "negative-seed": ('experiment = "robustness"\nseed = -1\n', "seed: must be >= 0"),
}


@pytest.mark.parametrize("name", _BAD_FILES)
def test_run_rejects_a_bad_config_file(tmp_path, capsys, name):
    text, message = _BAD_FILES[name]
    path = tmp_path / "bad.toml"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_negative_seed_override_is_a_config_error(tiny_config, tmp_path, capsys):
    # a bad config (exit 1), not a failure inside the run's SeedSequence (exit 2)
    assert main(["run", str(tiny_config), "--out", str(tmp_path), "--seed", "-3"]) == 1
    assert "seed: must be >= 0, got -3" in capsys.readouterr().err
    assert main(["run", "param_sweep_linear", "--out", str(tmp_path), "--seed", "-3"]) == 1
    assert not list(tmp_path.glob("*.csv"))


def test_run_knots_beyond_horizon_is_a_config_error(tmp_path, capsys):
    # caught by validation (exit 1), not by the knot schedule mid-run (exit 2)
    cases = {
        "tokens.toml": 'experiment = "closedloop_comparison"\nT = 4\ncontrollers = ["small", "small_param:5"]\n',
        "sweep.toml": 'experiment = "param_sweep"\nrobot = "pendulum_nograv"\nduration = 0.05\np = [1, 6]\n',
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
    files = sorted(p.name for p in tmp_path.glob("*.toml"))
    assert "param_sweep_linear.toml" in files
    assert len(files) == 8


def test_presets_write_loads_back_as_the_presets(tmp_path):
    from knotmpc.bench import PRESETS, load_config, preset_config

    assert main(["presets", "--write", str(tmp_path)]) == 0
    for name in PRESETS:
        assert load_config(str(tmp_path / f"{name}.toml")) == preset_config(name)


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


def _source_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(knotmpc.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_does_not_load_the_toml_parser():
    # the parser loads only with a config file, so benchmark set-up does not pay for it
    code = "import sys, knotmpc; print('tomllib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_source_env(), check=True)
    assert proc.stdout.strip() == "False"


def test_installed_entry_point():
    # `python -m knotmpc` runs the same main as the installed script, so this
    # works from a source checkout; the script mapping is checked below
    proc = subprocess.run([sys.executable, "-m", "knotmpc", "presets"], capture_output=True, text=True,
                          env=_source_env())
    assert proc.returncode == 0
    assert "param_sweep_linear" in proc.stdout
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["knotmpc"] == "knotmpc.cli:main"
