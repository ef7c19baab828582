"""Experiment harness: configs, presets, trial execution, CSV output.

An experiment is described by a small config naming one of five
experiment kinds:

* ``param_sweep``           closed-loop cost of knot-parameterized MPC
                            against a full-horizon traditional baseline,
                            swept over the knot count
* ``horizon_sweep``         closed-loop cost of traditional MPC swept
                            over the horizon length
* ``robustness``            step-response metrics under a deliberately
                            wrong controller model (``make_plant``'s
                            inertial multiplier)
* ``solve_time_scaling``    the cold first control step of each
                            controller as the robot grows
* ``closedloop_comparison`` full closed-loop runs comparing convex and
                            evolutionary solvers

A config chooses the robot, the horizons, the knot counts, the
controllers and the trials.  Every robot is a planar chain: the two
pendulums are its one-link case (``make_plant``).  Everything else is
fixed for every experiment: the tracking weights and torque bounds
(``make_template``), the solver settings (``QpSettings()``) and the EMPC
population size (``empc``'s ``_NUM_SIMS`` and ``_NUM_PARENTS``).

Config format.  A config file is TOML (read by the stdlib's ``tomllib``,
so Python >= 3.11) whose top-level keys are the fields of
``ExperimentConfig``, each at most once; only ``experiment`` is
required, and a key that the experiment never reads is an error
(``ExperimentConfig.unread_keys``).  ``links``, ``p``, ``horizons``,
``multipliers`` and ``controllers`` take non-empty arrays, every other
key a single value: ``experiment``, ``robot`` and ``out`` a string,
``T``, ``trials``, ``seed`` and ``workers`` an integer, ``duration`` and
``rate`` a number.  For example::

    experiment = "closedloop_comparison"
    robot = "nlink"
    links = [2, 4]
    controllers = ["large", "empc:3:3"]  # tokens, see parse_controller_token

Each trial's rows depend only on the config and the trial index (never
on scheduling), so results are reproducible for a fixed seed under any
worker count.  Timing columns are the one exception: they measure this
machine, not the math.  Bit-for-bit equality of the other columns also
needs the same BLAS build and BLAS thread count, because the blocking of
the matrix products, and with it their rounding, depends on both.
"""

from __future__ import annotations

import csv
import io
import json
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .closedloop import CONTROLLER_KINDS, Controller, actual_cost, compute_metrics, cost_ratio, run_closed_loop
from .condense import MpcSpec
from .dynamics import NLinkArm, NLinkParams, discretize, linearize
from .qp import QpSettings

EXPERIMENTS = (
    "param_sweep",
    "horizon_sweep",
    "robustness",
    "solve_time_scaling",
    "closedloop_comparison",
)
ROBOTS = ("pendulum", "pendulum_nograv", "nlink")

COLUMNS = [
    "experiment",
    "robot",
    "links",
    "T",
    "p",
    "controller",
    "generations",
    "trial",
    "seed",
    "multiplier",
    "start",
    "goal",
    "actual_cost",
    "cost_ratio",
    "normalized_cost",
    "rise_time",
    "overshoot",
    "itae",
    "opt_time_med",
    "opt_time_q1",
    "opt_time_q3",
    "mpc_time_med",
    "mpc_time_q1",
    "mpc_time_q3",
    "failures",
    "steps",
]

# wall-clock columns; everything else is reproducible bit-for-bit
TIMING_COLUMNS = {
    "opt_time_med",
    "opt_time_q1",
    "opt_time_q3",
    "mpc_time_med",
    "mpc_time_q1",
    "mpc_time_q3",
}


class ConfigError(ValueError):
    """A config file or mapping failed validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    robot: str = "pendulum"
    links: tuple[int, ...] = (3,)
    T: int = 50
    p: tuple[int, ...] = (1, 2, 4, 8, 16)
    horizons: tuple[int, ...] = (10, 20, 30, 40, 50)
    multipliers: tuple[float, ...] = (0.7, 1.0, 1.3)
    controllers: tuple[str, ...] = ()
    trials: int = 20
    seed: int = 0
    duration: float = 1.0
    rate: float = 100.0
    workers: int = 1
    out: str = "results.csv"

    def validate(self, given: typing.Collection[str] | None = None) -> None:
        """Raise ``ConfigError`` on a bad value, or on a key in ``given`` (by
        default, the fields set to other than their defaults) that the run
        never reads."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: must be one of {', '.join(EXPERIMENTS)}; got {self.experiment!r}")
        if self.robot not in ROBOTS:
            raise ConfigError(f"robot: must be one of {', '.join(ROBOTS)}; got {self.robot!r}")
        if given is None:
            given = [f.name for f in fields(self) if getattr(self, f.name) != f.default]
        for name in self.unread_keys():
            if name in given:
                raise ConfigError(f"{name}: {self.experiment} on {self.robot} never reads this key; remove it")
        if not self.links or any(l < 1 for l in self.links):
            raise ConfigError("links: need at least one positive link count")
        if self.T < 1:
            raise ConfigError(f"T: horizon must be >= 1, got {self.T}")
        if self.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        # every float field, before the checks below: NaN passes each x <= 0,
        # and an infinite duration or rate overflows round(duration * rate)
        for name, hint in typing.get_type_hints(ExperimentConfig).items():
            value = getattr(self, name)
            if float in (hint, *typing.get_args(hint)) and not np.all(np.isfinite(value)):
                raise ConfigError(f"{name}: must be finite, got {value}")
        if self.duration <= 0:
            raise ConfigError(f"duration: must be positive, got {self.duration}")
        if self.rate <= 0:
            raise ConfigError(f"rate: must be positive, got {self.rate}")
        if round(self.duration * self.rate) < 1:
            raise ConfigError("duration: duration * rate must round to at least one control step")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers}")
        if any(p < 1 for p in self.p):
            raise ConfigError("p: knot counts must be >= 1")
        if any(T < 1 for T in self.horizons):
            raise ConfigError("horizons: must be >= 1")
        if any(m <= 0 for m in self.multipliers):
            raise ConfigError("multipliers: must be positive")
        horizon = self.horizon()
        for text in self.resolved_controllers():
            p = parse_controller_token(text).p
            if p is not None and p > horizon:
                where = "round(duration * rate)" if self.experiment == "param_sweep" else "T"
                raise ConfigError(f"{text!r}: {p} knots do not fit the {horizon}-step horizon ({where})")

    def resolved_controllers(self) -> tuple[str, ...]:
        """Controller tokens the experiment runs; the first is the cost baseline.

        The sweeps fix their controllers: the knot sweep runs ``small`` and
        ``small_param:P`` for each P in ``p``, the horizon sweep ``small``.
        """
        if self.experiment == "param_sweep":
            return ("small",) + tuple(f"small_param:{p}" for p in self.p)
        if self.experiment == "horizon_sweep":
            return ("small",)
        return self.controllers or _DEFAULT_CONTROLLERS[self.experiment]

    def unread_keys(self) -> tuple[str, ...]:
        """The keys this experiment's run never reads: ``_UNREAD`` of its
        kind, and ``links`` unless the robot is the ``nlink`` chain."""
        return _UNREAD[self.experiment] + (() if self.robot == "nlink" else ("links",))

    def horizon(self) -> int:
        """MPC horizon in steps; the knot sweep plans over the whole run."""
        return int(round(self.duration * self.rate)) if self.experiment == "param_sweep" else self.T


# The keys each experiment never reads.  The knot sweep plans over
# round(duration * rate) steps, and the sweeps fix their controllers
# (``resolved_controllers``); a cold first step runs one period.
_UNREAD = {
    "param_sweep": ("T", "horizons", "multipliers", "controllers"),
    "horizon_sweep": ("p", "multipliers", "controllers"),
    "robustness": ("p", "horizons"),
    "solve_time_scaling": ("p", "horizons", "multipliers", "duration"),
    "closedloop_comparison": ("p", "horizons", "multipliers"),
}

_DEFAULT_CONTROLLERS = {
    "robustness": ("small", "small_param:2", "small_param:4", "small_param:8"),
    "solve_time_scaling": ("large", "small", "large_param:5", "small_param:5"),
    "closedloop_comparison": ("large", "small_param:3", "empc:3:1", "empc:3:3"),
}


def parse_controller_token(token: str) -> Controller:
    """Parse a controller token into a ``Controller``: a kind of
    ``closedloop.CONTROLLER_KINDS`` followed by its positive integer
    arguments, ``large`` | ``small`` | ``large_param:p`` |
    ``small_param:p`` | ``empc:p:generations``.
    """
    kind, *args = token.split(":")
    if kind not in CONTROLLER_KINDS:
        raise ConfigError(f"controllers: unknown controller kind {kind!r} in {token!r}")
    names = CONTROLLER_KINDS[kind]
    if len(args) != len(names):
        raise ConfigError(f"controllers: {token!r} must look like {':'.join([kind, *names])}")
    values = {name: _parse_int(arg, "controllers") for name, arg in zip(names, args)}
    try:
        return Controller(kind, **values)
    except ValueError as e:
        raise ConfigError(f"controllers: {e} in {token!r}") from e


def _parse_int(text: str, field_name: str) -> int:
    try:
        return int(text)
    except ValueError as e:
        raise ConfigError(f"{field_name}: expected an integer, got {text!r}") from e


# ---------------------------------------------------------------------------
# config files (the format is in the module docstring)


# the types a scalar field's value may have; bool is an int to Python, never here
_SCALAR_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def _field_value(value, hint, key: str):
    """``value`` as the field annotated ``hint`` stores it: a tuple field
    takes a non-empty array of its item type, a float field any number."""
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: expected an array, got {value!r}")
        if not value:
            raise ConfigError(f"{key}: empty list")
        return tuple(_field_value(item, typing.get_args(hint)[0], key) for item in value)
    types, name = _SCALAR_TYPES[hint]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{key}: expected {name}, got {value!r}")
    return float(value) if hint is float else value


def config_from_mapping(raw: dict) -> ExperimentConfig:
    """A validated config from parsed values, such as a TOML table's."""
    if "experiment" not in raw:
        raise ConfigError("experiment: missing (this key is required)")
    schema = typing.get_type_hints(ExperimentConfig)
    kwargs = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"{key}: unknown config key")
        kwargs[key] = _field_value(value, schema[key], key)
    cfg = ExperimentConfig(**kwargs)
    cfg.validate(given=raw)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """Read a TOML config file, as the module docstring describes."""
    import tomllib  # here, so that importing knotmpc does not load it

    try:
        with open(path, "rb") as fh:
            raw = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from e
    return config_from_mapping(raw)


def dump_config(cfg: ExperimentConfig) -> str:
    """The keys of a config that its run reads, as a TOML config file
    (used by preset export); a tuple becomes an array."""
    unread = cfg.unread_keys()
    lines = [
        f"{f.name} = {json.dumps(value)}"
        for f in fields(cfg)
        if f.name not in unread and (value := getattr(cfg, f.name)) != ()
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plants, templates, sampling


def make_plant(robot: str, links: int, multiplier: float = 1.0) -> NLinkArm:
    """The chain that ``robot`` names, its inertia scaled by ``multiplier``.

    ``pendulum`` is the one-link chain with a 1 kg tip mass on a 1 m link,
    damping 0.05 and gravity 9.81, and ``pendulum_nograv`` the same without
    gravity; both ignore ``links``.  ``nlink`` is ``NLinkParams(links=links)``.
    A multiplier other than 1 makes a deliberately wrong controller model
    for the robustness experiment.  A pendulum scales its mass and its
    length, so its inertia is multiplier**3 times the true one.  The
    ``nlink`` chain scales its tip masses, which scales its whole inertia
    matrix by the multiplier.
    """
    if robot in ("pendulum", "pendulum_nograv"):
        gravity = 9.81 if robot == "pendulum" else 0.0
        return NLinkArm(NLinkParams(links=1, mass=multiplier, length=multiplier, damping=0.05, gravity=gravity))
    if robot == "nlink":
        return NLinkArm(NLinkParams(links=links, mass=multiplier))
    raise ConfigError(f"robot: unknown robot {robot!r}")


# the tracking weights of every experiment: joint angle, joint rate, torque
_Q_POS = 10.0
_Q_VEL = 0.1
_R_INPUT = 0.01


def default_torque_bound(robot: str) -> float:
    return 25.0 if robot.startswith("pendulum") else 2.0


def make_template(plant, cfg: ExperimentConfig, T: int) -> MpcSpec:
    """Spec with placeholder model/goal; the loop swaps those per step.

    The weights are the fixed tracking weights ``_Q_POS``, ``_Q_VEL`` and
    ``_R_INPUT``, and the input box is +-``default_torque_bound`` per joint.
    """
    nj = plant.m
    Q = np.diag([_Q_POS] * nj + [_Q_VEL] * nj)
    R = _R_INPUT * np.eye(nj)
    bound = default_torque_bound(cfg.robot)
    model = discretize(linearize(plant.ode, np.zeros(plant.n), np.zeros(nj)), 1.0 / cfg.rate)
    return MpcSpec(
        model=model,
        T=T,
        Q=Q,
        R=R,
        x_goal=np.zeros(plant.n),
        u_min=np.full(nj, -bound),
        u_max=np.full(nj, bound),
    )


def qp_settings(cfg: ExperimentConfig) -> QpSettings:
    """The solver settings every experiment runs: ``QpSettings()``."""
    return QpSettings()


def _trial_rng(cfg: ExperimentConfig, links: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(links, trial)))


def _derived_seed(cfg: ExperimentConfig, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=cfg.seed, spawn_key=tuple(key)).generate_state(1)[0])


def _sample_endpoints(rng: np.random.Generator, nj: int, step: float | None = None):
    """Start/goal joint angles at rest.

    With ``step=None`` both endpoints are uniform in [-pi, pi].  A float
    instead samples a step command: uniform start, goal displaced by
    ``step`` radians per joint in a random direction.  Robustness trials
    use unit steps so rise/overshoot describe a step response rather
    than a multi-revolution swing.
    """
    q0 = rng.uniform(-np.pi, np.pi, nj)
    if step is None:
        qg = rng.uniform(-np.pi, np.pi, nj)
    else:
        qg = q0 + step * rng.choice([-1.0, 1.0], nj)
    x0 = np.concatenate([q0, np.zeros(nj)])
    xg = np.concatenate([qg, np.zeros(nj)])
    return x0, xg


def _controller_from_token(controller: Controller, cfg: ExperimentConfig, seed: int) -> Controller:
    """The parsed controller with its EMPC search seeded by ``seed``."""
    return replace(controller, seed=seed)


# ---------------------------------------------------------------------------
# trial execution


@dataclass(frozen=True)
class _Task:
    cfg: ExperimentConfig
    links: int
    trial: int


def _trial_setup(task: _Task, step: float | None = None):
    """The trial's plant and its start/goal states."""
    plant = make_plant(task.cfg.robot, task.links)
    x0, xg = _sample_endpoints(_trial_rng(task.cfg, task.links, task.trial), plant.m, step)
    return plant, x0, xg


def _controllers(task: _Task):
    """Each controller the trial runs, baseline first."""
    cfg = task.cfg
    for c_idx, text in enumerate(cfg.resolved_controllers()):
        seed = _derived_seed(cfg, task.links, task.trial, c_idx)
        yield _controller_from_token(parse_controller_token(text), cfg, seed)


def _row(task: _Task, controller: Controller, T: int, x0, xg, report=None, **extra) -> dict:
    """One CSV row: one controller's result in one trial; ``extra`` sets
    the columns the experiment adds (and ``steps`` for a one-shot solve)."""
    cfg = task.cfg
    row = {c: "" for c in COLUMNS}
    row.update(
        experiment=cfg.experiment,
        robot=cfg.robot,
        links=task.links if cfg.robot == "nlink" else 1,
        T=T,
        p=controller.p if controller.p is not None else "",
        controller=controller.kind,
        generations=controller.generations if controller.generations is not None else "",
        trial=task.trial,
        seed=cfg.seed,
        start=_fmt_vec(x0),
        goal=_fmt_vec(xg),
        steps=int(round(cfg.duration * cfg.rate)),
    )
    if report is not None:
        row.update(vars(report))
    row.update(extra)
    return row


def _fmt_vec(v: np.ndarray) -> str:
    return ";".join(repr(float(x)) for x in v)


def _closed_loop(plant, controller, template, x0, xg, cfg, *, controller_plant=None):
    result = run_closed_loop(
        plant,
        controller,
        template,
        x0,
        xg,
        cfg.duration,
        cfg.rate,
        controller_plant=controller_plant,
    )
    return compute_metrics(result, template.Q, template.R, xg, cfg.rate)


def _run_comparison(task: _Task) -> list[dict]:
    """Closed-loop runs of each controller, costs relative to the first."""
    cfg = task.cfg
    plant, x0, xg = _trial_setup(task)
    template = make_template(plant, cfg, cfg.horizon())
    rows = []
    base_cost = None
    for controller in _controllers(task):
        report = _closed_loop(plant, controller, template, x0, xg, cfg)
        if base_cost is None:
            base_cost = report.actual_cost
        rows.append(_row(task, controller, template.T, x0, xg, report,
                         cost_ratio=cost_ratio(report.actual_cost, base_cost)))
    return rows


def _run_horizon_sweep(task: _Task) -> list[dict]:
    """One closed loop per distinct horizon, costs relative to horizon T."""
    cfg = task.cfg
    plant, x0, xg = _trial_setup(task)
    controller = next(_controllers(task))
    reports = {}
    for T in (cfg.T, *cfg.horizons):
        if T not in reports:
            reports[T] = _closed_loop(plant, controller, make_template(plant, cfg, T), x0, xg, cfg)
    base = reports[cfg.T]
    return [
        _row(task, controller, T, x0, xg, reports[T], cost_ratio=cost_ratio(reports[T].actual_cost, base.actual_cost))
        for T in cfg.horizons
    ]


def _run_robustness(task: _Task) -> list[dict]:
    cfg = task.cfg
    plant, x0, xg = _trial_setup(task, step=1.0)
    template = make_template(plant, cfg, cfg.T)

    rows = []
    for controller in _controllers(task):
        reports = {}
        for mult in sorted(set(cfg.multipliers) | {1.0}):
            model_plant = make_plant(cfg.robot, task.links, mult) if mult != 1.0 else None
            reports[mult] = _closed_loop(plant, controller, template, x0, xg, cfg, controller_plant=model_plant)
        for mult in cfg.multipliers:
            report = reports[mult]
            rows.append(_row(task, controller, cfg.T, x0, xg, report, multiplier=mult,
                             normalized_cost=cost_ratio(report.actual_cost, reports[1.0].actual_cost)))
    return rows


def _run_solve_time_scaling(task: _Task) -> list[dict]:
    """The cold first control step of each controller, as a one-period
    closed loop, with that run's realized cost."""
    cfg = task.cfg
    plant, x0, xg = _trial_setup(task)
    template = make_template(plant, cfg, cfg.T)
    rows = []
    for controller in _controllers(task):
        res = run_closed_loop(plant, controller, template, x0, xg, 1.0 / cfg.rate, cfg.rate)
        rows.append(_row(task, controller, cfg.T, x0, xg, steps=1, opt_time_med=float(res.opt_time[0]),
                         mpc_time_med=float(res.mpc_time[0]), failures=res.failures,
                         actual_cost=actual_cost(res.states, res.inputs, template.Q, template.R, xg)))
    return rows


_RUNNERS = {
    "param_sweep": _run_comparison,
    "horizon_sweep": _run_horizon_sweep,
    "robustness": _run_robustness,
    "solve_time_scaling": _run_solve_time_scaling,
    "closedloop_comparison": _run_comparison,
}


def _run_task(task: _Task) -> list[dict]:
    return _RUNNERS[task.cfg.experiment](task)


# ---------------------------------------------------------------------------
# harness entry points


def run_experiment(cfg: ExperimentConfig, out_dir: str = ".") -> list[dict]:
    """Run every trial of an experiment and write its CSV; returns the rows."""
    cfg.validate()
    links_axis = cfg.links if cfg.robot == "nlink" else (1,)
    tasks = [_Task(cfg, links, trial) for links in links_axis for trial in range(cfg.trials)]

    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]

    rows = [row for batch in results for row in batch]
    rows.sort(key=_row_key)
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, cfg.out), rows)
    return rows


def _row_key(row: dict):
    return (
        str(row["experiment"]),
        row["links"] if row["links"] != "" else 0,
        str(row["controller"]),
        str(row["p"]),
        str(row["generations"]),
        str(row["T"]),
        str(row["multiplier"]),
        row["trial"],
    )


def write_csv(path: str, rows: list[dict]) -> None:
    """RFC-4180 CSV, UTF-8, fixed column order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv_text(rows))


def _fmt_cell(val) -> str:
    if isinstance(val, float):
        return repr(val)
    return str(val)


def rows_to_csv_text(rows: list[dict], include_timing: bool = True) -> str:
    """Render rows as CSV text; timing columns can be masked for comparisons."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    cols = [c for c in COLUMNS if include_timing or c not in TIMING_COLUMNS]
    writer.writerow(cols)
    for row in rows:
        writer.writerow([_fmt_cell(row[c]) for c in cols])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# presets


_PARAM_SWEEP_LINEAR = ExperimentConfig(
    experiment="param_sweep",
    robot="pendulum_nograv",
    p=(1, 2, 3, 4, 8, 16, 32, 64, 100),
    trials=20,
    duration=1.0,
    rate=100.0,
    seed=1001,
    out="param_sweep_linear.csv",
)

_ROBUSTNESS_PENDULUM = ExperimentConfig(
    experiment="robustness",
    robot="pendulum",
    T=50,
    multipliers=tuple(round(0.5 + 0.1 * i, 10) for i in range(11)),
    controllers=("small", "small_param:2", "small_param:4", "small_param:8"),
    trials=20,
    duration=2.0,
    rate=100.0,
    seed=1004,
    out="robustness_pendulum.csv",
)

_SOLVE_TIMES_T50 = ExperimentConfig(
    experiment="solve_time_scaling",
    robot="nlink",
    links=tuple(range(1, 14)),
    T=50,
    controllers=("large", "small", "large_param:5", "small_param:5", "empc:5:1"),
    trials=20,
    rate=100.0,
    seed=1006,
    out="solve_times_t50.csv",
)

# name -> (config, description); the configs are frozen, so callers share them
PRESETS = {
    "param_sweep_linear": (_PARAM_SWEEP_LINEAR, "knot-count sweep on the no-gravity pendulum"),
    "param_sweep_gravity": (
        replace(_PARAM_SWEEP_LINEAR, robot="pendulum", seed=1002, out="param_sweep_gravity.csv"),
        "knot-count sweep on the gravity pendulum",
    ),
    "horizon_sweep": (
        ExperimentConfig(
            experiment="horizon_sweep",
            robot="pendulum_nograv",
            T=50,
            horizons=(5, 10, 15, 20, 25, 30, 40, 50, 75, 100),
            trials=20,
            duration=1.0,
            rate=100.0,
            seed=1003,
            out="horizon_sweep.csv",
        ),
        "horizon-length sweep, traditional MPC",
    ),
    "robustness_pendulum": (_ROBUSTNESS_PENDULUM, "inertial-error robustness on the pendulum"),
    "robustness_arm": (
        replace(
            _ROBUSTNESS_PENDULUM,
            robot="nlink",
            links=(3,),
            controllers=("small", "small_param:4"),
            seed=1005,
            out="robustness_arm.csv",
        ),
        "inertial-error robustness on a 3-link arm",
    ),
    "solve_times_t50": (_SOLVE_TIMES_T50, "formulation solve times vs links, horizon 50"),
    "solve_times_t100": (
        replace(_SOLVE_TIMES_T50, T=100, seed=1007, out="solve_times_t100.csv"),
        "formulation solve times vs links, horizon 100",
    ),
    "closedloop_arms": (
        ExperimentConfig(
            experiment="closedloop_comparison",
            robot="nlink",
            links=(1, 2, 4, 6),
            T=100,
            controllers=("large", "small_param:3", "empc:3:1", "empc:3:3"),
            trials=5,
            duration=10.0,
            rate=100.0,
            seed=1008,
            out="closedloop_arms.csv",
        ),
        "closed-loop convex vs evolutionary comparison",
    ),
}


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name][0]
