"""Tests for the experiment configs, runners, and CSV output."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import knotmpc
from knotmpc.bench import (
    COLUMNS,
    EXPERIMENTS,
    PRESETS,
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    default_torque_bound,
    dump_config,
    load_config,
    make_plant,
    make_template,
    parse_controller_token,
    preset_config,
    rows_to_csv_text,
    run_experiment,
    write_csv,
)
from knotmpc.closedloop import Controller
from knotmpc.condense import CONTROLLER_KINDS
from knotmpc.dynamics import NLinkArm, Pendulum


# ---------------------------------------------------------------------------
# controller tokens

def test_token_grammar():
    t = parse_controller_token("large")
    assert (t.kind, t.p, t.generations) == ("large", None, 1)
    t = parse_controller_token("small_param:4")
    assert (t.kind, t.p) == ("small_param", 4)
    t = parse_controller_token("empc:3:5")
    assert (t.kind, t.p, t.generations) == ("empc", 3, 5)
    assert t.text == "empc:3:5"


def test_token_errors():
    for bad in ("small:3", "small_param", "empc:3", "empc", "huge", "large_param", "empc:0:1"):
        with pytest.raises(ConfigError):
            parse_controller_token(bad)


def test_token_kinds_are_controller_kinds():
    from knotmpc.bench import _controller_from_token

    cfg = preset_config("closedloop_arms")
    for kind, args in CONTROLLER_KINDS.items():
        tok = parse_controller_token(":".join([kind] + ["3"] * len(args)))
        controller = _controller_from_token(tok, cfg, seed=5)
        assert (controller.kind, controller.p) == (kind, tok.p)
        if "p" in args:
            with pytest.raises(ValueError):
                Controller(kind)  # a kind whose token takes p needs it
        else:
            assert Controller(kind).p is None
    # and the reverse: a kind the controller rejects is no token either
    for kind in ("medium", "Small", "param", "empc_param", ""):
        with pytest.raises(ValueError):
            Controller(kind, p=3)
        with pytest.raises(ConfigError):
            parse_controller_token(kind)


# ---------------------------------------------------------------------------
# config parsing

def test_config_from_mapping_parses_lists_and_ranges():
    cfg = config_from_mapping({
        "experiment": "param_sweep",
        "robot": "pendulum_nograv",
        "p": "1,2,4:6",
        "multipliers": "0.5:1.5:0.5",
        "trials": "3",
        "links": "2",
    })
    assert cfg.p == (1, 2, 4, 5, 6)
    assert cfg.multipliers == (0.5, 1.0, 1.5)
    assert cfg.trials == 3
    assert cfg.links == (2,)


def test_load_config_ignores_comments(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# sweep over knot counts\n"
        "experiment = param_sweep\n"
        "robot = pendulum\n\n"
        "p = 1,2,4   # knot counts\n"
        "trials = 2\n"
    )
    cfg = load_config(str(path))
    assert cfg.experiment == "param_sweep"
    assert cfg.p == (1, 2, 4)
    assert cfg.trials == 2


def test_config_errors():
    with pytest.raises(ConfigError):
        config_from_mapping({})  # experiment required
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "nope"})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "param_sweep", "color": "red"})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "param_sweep", "trials": "0"})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "param_sweep", "robot": "quadrotor"})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "robustness", "duration": "0.004", "rate": "100"})  # zero steps


def test_dump_load_round_trip(tmp_path):
    for name in sorted(PRESETS):
        cfg = preset_config(name)
        text = dump_config(cfg)
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        again = load_config(str(path))
        assert again == cfg


def test_preset_config_unknown():
    with pytest.raises(ConfigError):
        preset_config("grand_tour")


def test_knot_counts_must_fit_the_horizon():
    with pytest.raises(ConfigError, match="horizon"):
        config_from_mapping({"experiment": "closedloop_comparison", "T": "4", "controllers": "small_param:5"})
    with pytest.raises(ConfigError, match="horizon"):
        config_from_mapping({"experiment": "robustness", "T": "6"})  # default small_param:8
    with pytest.raises(ConfigError, match="horizon"):
        config_from_mapping({"experiment": "param_sweep", "duration": "0.1", "rate": "100", "p": "1,11"})
    config_from_mapping({"experiment": "param_sweep", "duration": "0.1", "rate": "100", "p": "1,10"})
    config_from_mapping({"experiment": "closedloop_comparison", "T": "5", "controllers": "empc:5:2"})


def test_all_presets_validate():
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.experiment in EXPERIMENTS
        cfg.validate()


# ---------------------------------------------------------------------------
# plants and templates

def test_make_plant_kinds():
    assert isinstance(make_plant("pendulum", 1), Pendulum)
    assert make_plant("pendulum", 1).params.gravity > 0
    assert make_plant("pendulum_nograv", 1).params.gravity == 0.0
    arm = make_plant("nlink", 4)
    assert isinstance(arm, NLinkArm)
    assert arm.m == 4
    with pytest.raises(ConfigError):
        make_plant("hexapod", 1)


def test_default_torque_bounds():
    assert default_torque_bound("pendulum") == 25.0
    assert default_torque_bound("pendulum_nograv") == 25.0
    assert default_torque_bound("nlink") == 2.0


def test_make_template_weights():
    cfg = config_from_mapping(
        {"experiment": "param_sweep", "robot": "nlink", "q_pos": "7.0", "q_vel": "0.2"}
    )
    plant = make_plant("nlink", 2)
    spec = make_template(plant, cfg, 15)
    assert spec.T == 15
    np.testing.assert_allclose(np.diag(spec.Q), [7.0, 7.0, 0.2, 0.2])
    np.testing.assert_allclose(spec.R, 0.01 * np.eye(2))
    assert spec.u_max[0] == 2.0


# ---------------------------------------------------------------------------
# CSV

def test_csv_round_trip(tmp_path):
    rows = [{c: 0 for c in COLUMNS}]
    rows[0]["controller"] = "small"
    rows[0]["actual_cost"] = 1.25
    path = tmp_path / "out.csv"
    write_csv(str(path), rows)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(COLUMNS)
    assert "1.25" in text[1]


def test_timing_columns_masked():
    rows = [{c: 1.5 for c in COLUMNS}]
    with_timing = rows_to_csv_text(rows, include_timing=True)
    without = rows_to_csv_text(rows, include_timing=False)
    assert "opt_time_med" in with_timing.splitlines()[0]
    assert with_timing != without
    # masked text is stable no matter what the timings were
    rows2 = [{c: 1.5 for c in COLUMNS}]
    rows2[0]["opt_time_med"] = 99.0
    assert rows_to_csv_text(rows2, include_timing=False) == without


def test_sample_endpoints_unit_step():
    from knotmpc.bench import _sample_endpoints
    rng = np.random.default_rng(0)
    for _ in range(10):
        start, goal = _sample_endpoints(rng, 3, step=1.0)
        assert start.shape == goal.shape == (6,)
        np.testing.assert_allclose(np.abs(goal[:3] - start[:3]), 1.0, atol=1e-12)
        np.testing.assert_array_equal(start[3:], 0.0)  # starts and ends at rest
        np.testing.assert_array_equal(goal[3:], 0.0)


# ---------------------------------------------------------------------------
# experiment runners (tiny configurations)

def _tiny(experiment, **kw):
    base = {
        "experiment": experiment,
        "robot": "pendulum_nograv",
        "trials": "1",
        "duration": "0.3",
        "T": "10",
        "p": "1,2",
        "horizons": "5,10",
        "multipliers": "0.8,1.0",
        "links": "1",
        "empc_sims": "32",
        "empc_parents": "4",
    }
    base.update(kw)
    return config_from_mapping(base)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_tiny_run_produces_rows(tmp_path, experiment):
    kw = {}
    if experiment == "closedloop_comparison":
        kw["controllers"] = "small,small_param:2"
    cfg = _tiny(experiment, **kw)
    rows = run_experiment(cfg, out_dir=str(tmp_path))
    assert rows, "no rows produced"
    for row in rows:
        assert set(row) == set(COLUMNS)
        assert row["experiment"] == experiment
    assert (tmp_path / cfg.out).exists()


def test_horizon_sweep_simulates_each_horizon_once(tmp_path, monkeypatch):
    import knotmpc.bench as bench

    horizons = []
    run = bench.run_closed_loop

    def counting(plant, controller, template, *args, **kwargs):
        horizons.append(template.T)
        return run(plant, controller, template, *args, **kwargs)

    monkeypatch.setattr(bench, "run_closed_loop", counting)
    # the baseline horizon T = 10 is also swept, and 5 is listed twice
    rows = run_experiment(_tiny("horizon_sweep", horizons="5,10,5"), out_dir=str(tmp_path))
    assert sorted(horizons) == [5, 10]
    assert sorted(r["T"] for r in rows) == [5, 5, 10]
    five = [r["actual_cost"] for r in rows if r["T"] == 5]
    assert five[0] == five[1]
    assert [r["cost_ratio"] for r in rows if r["T"] == 10] == [1.0]


def test_sweeps_reject_a_controllers_key():
    # the sweeps fix their controllers, so a controllers key would be ignored
    for experiment in ("param_sweep", "horizon_sweep"):
        with pytest.raises(ConfigError, match="controllers"):
            config_from_mapping({"experiment": experiment, "controllers": "small"})


def test_param_sweep_has_cost_ratio():
    cfg = _tiny("param_sweep")
    rows = run_experiment(cfg, out_dir="/tmp")
    sweeps = [r for r in rows if r["controller"].startswith("small_param")]
    assert sweeps
    assert all(np.isfinite(float(r["cost_ratio"])) for r in sweeps)


def test_worker_count_does_not_change_results(tmp_path):
    cfg = _tiny("closedloop_comparison", controllers="small,small_param:2,empc:2:1",
                trials="2")
    texts = []
    for workers in (1, 1, 2):
        rows = run_experiment(cfg, out_dir=str(tmp_path), workers=workers)
        texts.append(rows_to_csv_text(rows, include_timing=False))
    assert texts[0] == texts[1] == texts[2]


_ROBUSTNESS_ROWS = """
import sys
from knotmpc.bench import config_from_mapping, rows_to_csv_text, run_experiment
cfg = config_from_mapping({
    "experiment": "robustness", "robot": "pendulum_nograv", "trials": "1",
    "duration": "0.1", "T": "10", "multipliers": "0.8,1.0", "links": "1",
    "controllers": "small,empc:2:1", "empc_sims": "32", "empc_parents": "4",
})
sys.stdout.write(rows_to_csv_text(run_experiment(cfg, out_dir=sys.argv[1]), include_timing=False))
"""


def test_robustness_rows_independent_of_hash_seed(tmp_path):
    # controller seeds must not come from salted string hashes, or EMPC rows
    # change from one interpreter process to the next
    src = str(Path(knotmpc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run(
            [sys.executable, "-c", _ROBUSTNESS_ROWS, str(tmp_path)],
            capture_output=True, text=True, env=env, check=True,
        )
        outs.append(proc.stdout)
    assert "empc" in outs[0]
    assert outs[0] == outs[1]


def test_seed_changes_rows(tmp_path):
    cfg_a = _tiny("param_sweep")
    cfg_b = config_from_mapping({
        "experiment": "param_sweep", "robot": "pendulum_nograv", "trials": "1",
        "duration": "0.3", "T": "10", "p": "1,2", "links": "1", "seed": "99",
    })
    ra = run_experiment(cfg_a, out_dir=str(tmp_path))
    rb = run_experiment(cfg_b, out_dir=str(tmp_path))
    assert rows_to_csv_text(ra, include_timing=False) != rows_to_csv_text(rb, include_timing=False)
