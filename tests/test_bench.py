"""Tests for the experiment configs, runners, and CSV output."""

import csv
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import knotmpc
from knotmpc.bench import (
    COLUMNS,
    EXPERIMENTS,
    PRESETS,
    TIMING_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _controller_from_token,
    _sample_endpoints,
    _trial_rng,
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
from knotmpc.cli import main
from knotmpc.closedloop import CONTROLLER_KINDS, Controller, actual_cost, run_closed_loop
from knotmpc.dynamics import NLinkArm


# ---------------------------------------------------------------------------
# controller tokens

def test_token_grammar():
    c = parse_controller_token("large")
    assert c == Controller("large")
    assert (c.kind, c.p, c.generations) == ("large", None, None)
    c = parse_controller_token("small_param:4")
    assert (c.kind, c.p) == ("small_param", 4)
    c = parse_controller_token("empc:3:5")
    assert (c.kind, c.p, c.generations) == ("empc", 3, 5)


def test_token_errors():
    for bad in ("small:3", "small_param", "empc:3", "empc", "huge", "large_param", "empc:0:1", "small_param:x"):
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

def test_config_from_mapping_takes_typed_values():
    cfg = config_from_mapping({
        "experiment": "param_sweep",
        "robot": "nlink",
        "p": [1, 2, 4, 5, 6],
        "trials": 3,
        "links": [2],
    })
    assert cfg.p == (1, 2, 4, 5, 6)
    assert cfg.trials == 3
    assert cfg.links == (2,)
    # a float field takes any number and stores a float
    cfg = config_from_mapping({"experiment": "robustness", "multipliers": [0.5, 1, 1.5], "rate": 50})
    assert cfg.multipliers == (0.5, 1.0, 1.5) and all(type(m) is float for m in cfg.multipliers)
    assert type(cfg.rate) is float


def test_load_config_ignores_comments(tmp_path):
    path = tmp_path / "exp.toml"
    path.write_text(
        "# sweep over knot counts\n"
        'experiment = "param_sweep"\n'
        'robot = "pendulum"\n\n'
        "p = [1, 2, 4]   # knot counts\n"
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
        config_from_mapping({"experiment": "param_sweep", "trials": 0})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "param_sweep", "robot": "quadrotor"})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": "robustness", "duration": 0.004, "rate": 100})  # zero steps
    # an int list takes integers only
    for value in ([1, 2.5], [1.0], [True], ["3"]):
        with pytest.raises(ConfigError, match="p: "):
            config_from_mapping({"experiment": "param_sweep", "p": value})


# each field's range check, with a value of the right type just outside it
_OUT_OF_RANGE = [
    ("links", [2, 0]),
    ("T", 0),
    ("trials", -1),
    ("seed", -1),
    ("duration", -0.5),
    ("rate", 0),
    ("workers", 0),
    ("p", [1, 0]),
    ("horizons", [5, 0]),
    ("multipliers", [0.5, 0.0]),
]


@pytest.mark.parametrize("key, value", _OUT_OF_RANGE)
def test_out_of_range_values_are_config_errors(key, value):
    experiment = {"p": "param_sweep", "horizons": "horizon_sweep"}.get(key, "robustness")
    with pytest.raises(ConfigError, match=f"^{key}: "):
        config_from_mapping({"experiment": experiment, "robot": "nlink", key: value})


def _toml_value(key: str, text: str) -> str:
    """``key = text`` as a TOML line, with ``text`` as an array's items on a tuple field."""
    array = isinstance(getattr(ExperimentConfig("robustness"), key), tuple)
    return f"{key} = [{text}]" if array else f"{key} = {text}"


@pytest.mark.parametrize(
    "key, text",
    [("multipliers", "nan")]
    + [(key, text) for key in ("duration", "rate") for text in ("nan", "inf")]
    + [("multipliers", "0.5,inf")],
)
def test_non_finite_numbers_are_config_errors(tmp_path, key, text):
    # NaN passes every ``x <= 0`` check and inf overflows round(duration * rate):
    # both must be reported as a bad config, which the CLI exits 1 on
    path = tmp_path / "exp.toml"
    path.write_text(f'experiment = "robustness"\n{_toml_value(key, text)}\n')
    with pytest.raises(ConfigError, match=f"{key}: "):
        load_config(str(path))


# the keys of the settings that are now fixed, each with a value it once accepted
_REMOVED_KEYS = {
    "u_max": 2.0,
    "q_pos": 10.0,
    "q_vel": 0.1,
    "r_input": 0.01,
    "qp_eps_prim": 1e-6,
    "qp_eps_dual": 1e-6,
    "qp_max_iters": 20000,
    "empc_sims": 1024,
    "empc_parents": 64,
}


@pytest.mark.parametrize("key", _REMOVED_KEYS)
def test_removed_keys_are_unknown(tmp_path, capsys, key):
    # the weights, bounds, solver settings and EMPC population are fixed, so a
    # config that sets one fails loudly instead of being ignored
    with pytest.raises(ConfigError, match=f"^{key}: unknown config key$"):
        config_from_mapping({"experiment": "robustness", key: _REMOVED_KEYS[key]})
    path = tmp_path / "old.toml"
    path.write_text(f'experiment = "robustness"\n{key} = {_REMOVED_KEYS[key]}\n')
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    assert f"{key}: unknown config key" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_load_config_rejects_repeated_keys(tmp_path):
    path = tmp_path / "exp.toml"
    path.write_text('experiment = "param_sweep"\ntrials = 2\n# fewer\ntrials = 1\n')
    with pytest.raises(ConfigError, match="line 4"):
        load_config(str(path))


def test_dump_load_round_trip_of_every_field(tmp_path):
    # every field a closed-loop comparison reads, then each field only one
    # experiment reads, set to other than its default
    base = ExperimentConfig(
        experiment="closedloop_comparison",
        robot="nlink",
        links=(2, 3),
        T=20,
        controllers=("small", "empc:4:2"),
        trials=3,
        seed=17,
        duration=0.5,
        rate=50.0,
        workers=2,
        out="all.csv",
    )
    cfgs = [
        base,
        replace(base, experiment="param_sweep", T=50, controllers=(), p=(2, 5)),
        replace(base, experiment="horizon_sweep", controllers=(), horizons=(5, 15)),
        replace(base, experiment="robustness", multipliers=(0.5, 1.25)),
    ]
    assert all(any(getattr(c, f.name) != f.default for c in cfgs) for f in fields(ExperimentConfig))
    for cfg in cfgs:
        path = tmp_path / "all.toml"
        path.write_text(dump_config(cfg))
        assert load_config(str(path)) == cfg


def test_dump_load_round_trip(tmp_path):
    for name in sorted(PRESETS):
        cfg = preset_config(name)
        text = dump_config(cfg)
        path = tmp_path / f"{name}.toml"
        path.write_text(text)
        again = load_config(str(path))
        assert again == cfg


def test_preset_config_unknown():
    with pytest.raises(ConfigError):
        preset_config("grand_tour")


def test_knot_counts_must_fit_the_horizon():
    with pytest.raises(ConfigError, match="horizon"):
        config_from_mapping({"experiment": "closedloop_comparison", "T": 4, "controllers": ["small_param:5"]})
    with pytest.raises(ConfigError, match="horizon"):
        config_from_mapping({"experiment": "robustness", "T": 6})  # default small_param:8
    with pytest.raises(ConfigError, match="horizon"):
        config_from_mapping({"experiment": "param_sweep", "duration": 0.1, "rate": 100, "p": [1, 11]})
    config_from_mapping({"experiment": "param_sweep", "duration": 0.1, "rate": 100, "p": [1, 10]})
    config_from_mapping({"experiment": "closedloop_comparison", "T": 5, "controllers": ["empc:5:2"]})


def test_all_presets_validate():
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.experiment in EXPERIMENTS
        cfg.validate()


# ---------------------------------------------------------------------------
# plants and templates

def test_make_plant_kinds():
    pendulum = make_plant("pendulum", 1)
    assert isinstance(pendulum, NLinkArm)
    assert (pendulum.params.links, pendulum.n, pendulum.m) == (1, 2, 1)
    assert pendulum.params.gravity > 0
    assert make_plant("pendulum_nograv", 1).params.gravity == 0.0
    # the pendulums are one link whatever the config's links
    assert make_plant("pendulum_nograv", 6).params.links == 1
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
    cfg = config_from_mapping({"experiment": "param_sweep", "robot": "nlink"})
    spec = make_template(make_plant("nlink", 2), cfg, 15)
    assert spec.T == 15
    np.testing.assert_array_equal(spec.Q, np.diag([10.0, 10.0, 0.1, 0.1]))
    np.testing.assert_array_equal(spec.R, 0.01 * np.eye(2))
    np.testing.assert_array_equal(spec.u_max, [2.0, 2.0])
    np.testing.assert_array_equal(spec.u_min, [-2.0, -2.0])
    pendulum = make_template(make_plant("pendulum", 1), replace(cfg, robot="pendulum"), 15)
    np.testing.assert_array_equal(pendulum.u_max, [25.0])
    np.testing.assert_array_equal(pendulum.u_min, [-25.0])


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

# each experiment's tiny keys, only those its run reads
_TINY = {
    "param_sweep": {"duration": 0.3, "p": [1, 2]},
    "horizon_sweep": {"duration": 0.3, "T": 10, "horizons": [5, 10]},
    "robustness": {"duration": 0.3, "T": 10, "multipliers": [0.8, 1.0]},
    "solve_time_scaling": {"T": 10},
    "closedloop_comparison": {"duration": 0.3, "T": 10},
}


def _tiny(experiment, **kw):
    base = {"experiment": experiment, "robot": "pendulum_nograv", "trials": 1, **_TINY[experiment]}
    base.update(kw)
    return config_from_mapping(base)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_tiny_run_produces_rows(tmp_path, experiment):
    kw = {}
    if experiment == "closedloop_comparison":
        kw["controllers"] = ["small", "small_param:2"]
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
    rows = run_experiment(_tiny("horizon_sweep", horizons=[5, 10, 5]), out_dir=str(tmp_path))
    assert sorted(horizons) == [5, 10]
    assert sorted(r["T"] for r in rows) == [5, 5, 10]
    five = [r["actual_cost"] for r in rows if r["T"] == 5]
    assert five[0] == five[1]
    assert [r["cost_ratio"] for r in rows if r["T"] == 10] == [1.0]


def test_solve_time_scaling_runs_one_closed_loop_step_per_controller(tmp_path, monkeypatch):
    import knotmpc.bench as bench

    results = {}
    run = bench.run_closed_loop

    def recording(plant, controller, template, x0, x_goal, duration, rate, **kwargs):
        assert controller.kind not in results and round(duration * rate) == 1
        res = run(plant, controller, template, x0, x_goal, duration, rate, **kwargs)
        results[controller.kind] = res
        return res

    monkeypatch.setattr(bench, "run_closed_loop", recording)
    cfg = _tiny("solve_time_scaling", robot="nlink", links=[1], controllers=["large", "small", "small_param:2", "empc:2:1"])
    run_experiment(cfg, out_dir=str(tmp_path))
    assert sorted(results) == ["empc", "large", "small", "small_param"]
    with open(tmp_path / cfg.out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        res = results[row["controller"]]
        assert res.inputs.shape[0] == 1 and row["steps"] == "1"
        assert int(row["failures"]) == res.failures
        # the unmasked cells are plain floats: the step's own times
        assert float(row["opt_time_med"]) == res.opt_time[0]
        assert float(row["mpc_time_med"]) == res.mpc_time[0]
        # EMPC's search, like a QP solve, excludes the problem build
        assert 0.0 < res.opt_time[0] < res.mpc_time[0]
        # the row's cost is the one-step run's realized cost, so parity sees the solution
        spec = make_template(make_plant("nlink", 1), cfg, cfg.T)
        xg = np.array([float(v) for v in row["goal"].split(";")])
        assert float(row["actual_cost"]) == actual_cost(res.states, res.inputs, spec.Q, spec.R, xg)
        for col in TIMING_COLUMNS - {"opt_time_med", "mpc_time_med"}:
            assert row[col] == ""


def test_sweeps_reject_a_controllers_key():
    # the sweeps fix their controllers, so a controllers key would be ignored
    for experiment in ("param_sweep", "horizon_sweep"):
        with pytest.raises(ConfigError, match="controllers"):
            config_from_mapping({"experiment": experiment, "controllers": ["small"]})


# keys a run never reads, each with a value it would accept, as TOML text
# (an array's items on a tuple field) and as a value
_UNREAD_KEYS = [
    ("param_sweep", "T", "10", 10),
    ("param_sweep", "horizons", "5,10", (5, 10)),
    ("param_sweep", "multipliers", "0.8,1.0", (0.8, 1.0)),
    ("horizon_sweep", "p", "1,2", (1, 2)),
    ("horizon_sweep", "multipliers", "0.8,1.0", (0.8, 1.0)),
    ("robustness", "p", "1,2", (1, 2)),
    ("robustness", "horizons", "5,10", (5, 10)),
    ("closedloop_comparison", "p", "1,2", (1, 2)),
    ("closedloop_comparison", "horizons", "5,10", (5, 10)),
    ("closedloop_comparison", "multipliers", "0.8,1.0", (0.8, 1.0)),
    ("solve_time_scaling", "p", "1,2", (1, 2)),
    ("solve_time_scaling", "horizons", "5,10", (5, 10)),
    ("solve_time_scaling", "multipliers", "0.8,1.0", (0.8, 1.0)),
    ("solve_time_scaling", "duration", "0.5", 0.5),
]


@pytest.mark.parametrize("experiment, key, text, value", _UNREAD_KEYS)
def test_a_key_the_run_never_reads_is_a_config_error(tmp_path, experiment, key, text, value):
    # an ignored key would only mislead, also when it is set to its default
    path = tmp_path / "exp.toml"
    path.write_text(f'experiment = "{experiment}"\n{_toml_value(key, text)}\n')
    with pytest.raises(ConfigError, match=f"^{key}: {experiment} on pendulum never reads this key"):
        load_config(str(path))
    with pytest.raises(ConfigError, match=f"^{key}: {experiment} on pendulum never reads this key"):
        config_from_mapping({"experiment": experiment, key: value})
    default = getattr(ExperimentConfig(experiment), key)
    with pytest.raises(ConfigError, match=f"^{key}: "):
        config_from_mapping({"experiment": experiment, key: default})
    # a config built in code validates the fields that differ from their defaults
    with pytest.raises(ConfigError, match=f"^{key}: "):
        replace(ExperimentConfig(experiment), **{key: value}).validate()
    ExperimentConfig(experiment).validate()


def test_links_of_a_pendulum_is_a_config_error():
    for robot in ("pendulum", "pendulum_nograv"):
        with pytest.raises(ConfigError, match=f"^links: param_sweep on {robot} never reads this key"):
            config_from_mapping({"experiment": "param_sweep", "robot": robot, "links": [1]})
    assert config_from_mapping({"experiment": "param_sweep", "robot": "nlink", "links": [1]}).links == (1,)


@pytest.mark.parametrize("experiment", ["closedloop_comparison", "horizon_sweep"])
@pytest.mark.parametrize("text", ["", "\n"])
def test_empty_controllers_is_a_config_error(tmp_path, experiment, text):
    # an empty list would otherwise fall back to the default controllers;
    # the file writes it on one line and across two
    with pytest.raises(ConfigError, match="controllers: empty list"):
        config_from_mapping({"experiment": experiment, "controllers": []})
    path = tmp_path / "empty.toml"
    path.write_text(f'experiment = "{experiment}"\ncontrollers = [{text}]\n')
    with pytest.raises(ConfigError, match="controllers: empty list"):
        load_config(str(path))


def test_param_sweep_has_cost_ratio(tmp_path):
    cfg = _tiny("param_sweep")
    rows = run_experiment(cfg, out_dir=str(tmp_path))
    sweeps = [r for r in rows if r["controller"].startswith("small_param")]
    assert sweeps
    assert all(np.isfinite(float(r["cost_ratio"])) for r in sweeps)


def test_worker_count_does_not_change_results(tmp_path):
    cfg = _tiny("closedloop_comparison", controllers=["small", "small_param:2", "empc:2:1"], trials=2)
    texts = []
    for workers in (1, 1, 2):
        rows = run_experiment(replace(cfg, workers=workers), out_dir=str(tmp_path))
        texts.append(rows_to_csv_text(rows, include_timing=False))
    assert texts[0] == texts[1] == texts[2]


_ROBUSTNESS_ROWS = """
import sys
from knotmpc.bench import config_from_mapping, rows_to_csv_text, run_experiment
cfg = config_from_mapping({
    "experiment": "robustness", "robot": "pendulum_nograv", "trials": 1,
    "duration": 0.1, "T": 10, "multipliers": [0.8, 1.0],
    "controllers": ["small", "empc:2:1"],
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
        "experiment": "param_sweep", "robot": "pendulum_nograv", "trials": 1,
        "duration": 0.3, "p": [1, 2], "seed": 99,
    })
    ra = run_experiment(cfg_a, out_dir=str(tmp_path))
    rb = run_experiment(cfg_b, out_dir=str(tmp_path))
    assert rows_to_csv_text(ra, include_timing=False) != rows_to_csv_text(rb, include_timing=False)


def test_swing_with_condensed_p_indefinite_at_rounding_floor_solves():
    # closedloop_arms at seed 209, 6 links, trial 12: around steps 29-30 the
    # knot QP's condensed P has a largest eigenvalue of 2e16-4e16 and is
    # indefinite by rounding (smallest eigenvalue -1.36 at step 30).  Since
    # the knot build sums segments by doubling, no scaled free block of these
    # 31 steps fails Cholesky, so the rounding-floor shift is not taken here
    # (test_qp covers it).  This guards that such a P still gives solved
    # steps, none holding its previous input, until P is PSD by construction.
    cfg = replace(preset_config("closedloop_arms"), seed=209)
    plant = make_plant(cfg.robot, 6)
    x0, xg = _sample_endpoints(_trial_rng(cfg, 6, 12), 6)
    controller = _controller_from_token(parse_controller_token("small_param:3"), cfg, 0)
    res = run_closed_loop(plant, controller, make_template(plant, cfg, cfg.T), x0, xg, 0.31, cfg.rate)
    assert res.failures == 0
