"""Experiment harness: configs, presets, trial execution, CSV output.

An experiment is described by a small key=value config (see
``load_config``) naming one of five experiment kinds:

* ``param_sweep``           closed-loop cost of knot-parameterized MPC
                            against a full-horizon traditional baseline,
                            swept over the knot count
* ``horizon_sweep``         closed-loop cost of traditional MPC swept
                            over the horizon length
* ``robustness``            step-response metrics under a deliberately
                            wrong controller model (inertial multiplier)
* ``solve_time_scaling``    cold build+solve times of each formulation
                            as the robot grows
* ``closedloop_comparison`` full closed-loop runs comparing convex and
                            evolutionary solvers

Each trial's rows depend only on the config and the trial index (never
on scheduling), so results are reproducible for a fixed seed under any
worker count.  Timing columns are the one exception: they measure this
machine, not the math.
"""

from __future__ import annotations

import csv
import io
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .closedloop import (
    Controller,
    apply_error_multiplier,
    compute_metrics,
    cost_ratio,
    run_closed_loop,
)
from .condense import CONTROLLER_KINDS, MpcSpec, build
from .dynamics import NLinkArm, NLinkParams, Pendulum, PendulumParams, discretize, linearize
from .empc import EmpcSettings, solve_empc
from .param import KnotSchedule
from .qp import AdmmSolver, QpSettings

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
    u_max: float | None = None
    q_pos: float = 10.0
    q_vel: float = 0.1
    r_input: float = 0.01
    qp_rho: float = 0.1
    qp_eps_prim: float = 1e-6
    qp_eps_dual: float = 1e-6
    qp_max_iters: int = 20000
    empc_sims: int = 1024
    empc_parents: int = 64

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: must be one of {', '.join(EXPERIMENTS)}; got {self.experiment!r}")
        if self.robot not in ROBOTS:
            raise ConfigError(f"robot: must be one of {', '.join(ROBOTS)}; got {self.robot!r}")
        if not self.links or any(l < 1 for l in self.links):
            raise ConfigError("links: need at least one positive link count")
        if self.T < 1:
            raise ConfigError(f"T: horizon must be >= 1, got {self.T}")
        if self.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {self.trials}")
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
        if self.u_max is not None and self.u_max <= 0:
            raise ConfigError(f"u_max: must be positive, got {self.u_max}")
        if self.controllers and self.experiment in ("param_sweep", "horizon_sweep"):
            raise ConfigError(f"controllers: {self.experiment} runs fixed controllers; remove this key")
        for tok in self.controllers:
            parse_controller_token(tok)
        horizon = self.horizon()
        for text in self.resolved_controllers():
            p = parse_controller_token(text).p
            if p is not None and p > horizon:
                where = "round(duration * rate)" if self.experiment == "param_sweep" else "T"
                raise ConfigError(f"{text!r}: {p} knots do not fit the {horizon}-step horizon ({where})")
        for name in ("q_pos", "q_vel", "r_input", "qp_rho", "qp_eps_prim", "qp_eps_dual"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be positive")
        if self.qp_max_iters < 1:
            raise ConfigError("qp_max_iters: must be >= 1")
        if self.empc_sims < 1 or not 1 <= self.empc_parents <= self.empc_sims:
            raise ConfigError("empc_parents: need 1 <= empc_parents <= empc_sims")

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

    def horizon(self) -> int:
        """MPC horizon in steps; the knot sweep plans over the whole run."""
        return int(round(self.duration * self.rate)) if self.experiment == "param_sweep" else self.T


_DEFAULT_CONTROLLERS = {
    "robustness": ("small", "small_param:2", "small_param:4", "small_param:8"),
    "solve_time_scaling": ("large", "small", "large_param:5", "small_param:5"),
    "closedloop_comparison": ("large", "small_param:3", "empc:3:1", "empc:3:3"),
}


@dataclass(frozen=True)
class ControllerToken:
    kind: str
    p: int | None = None
    generations: int = 1
    text: str = ""


def parse_controller_token(token: str) -> ControllerToken:
    """Parse a controller token: a kind of ``condense.CONTROLLER_KINDS``
    followed by its positive integer arguments, ``large`` | ``small`` |
    ``large_param:p`` | ``small_param:p`` | ``empc:p:generations``.
    """
    kind, *args = token.split(":")
    if kind not in CONTROLLER_KINDS:
        raise ConfigError(f"controllers: unknown controller kind {kind!r} in {token!r}")
    names = CONTROLLER_KINDS[kind]
    if len(args) != len(names):
        raise ConfigError(f"controllers: {token!r} must look like {':'.join([kind, *names])}")
    values = {name: _parse_int(arg, "controllers") for name, arg in zip(names, args)}
    if any(v < 1 for v in values.values()):
        raise ConfigError(f"controllers: {' and '.join(names)} must be positive in {token!r}")
    return ControllerToken(kind, text=token, **values)


# ---------------------------------------------------------------------------
# config file format


_LIST_FIELDS = {"links": int, "p": int, "horizons": int, "multipliers": float}
_SCALAR_FIELDS = {
    "experiment": str,
    "robot": str,
    "T": int,
    "trials": int,
    "seed": int,
    "duration": float,
    "rate": float,
    "workers": int,
    "out": str,
    "u_max": float,
    "q_pos": float,
    "q_vel": float,
    "r_input": float,
    "qp_rho": float,
    "qp_eps_prim": float,
    "qp_eps_dual": float,
    "qp_max_iters": int,
    "empc_sims": int,
    "empc_parents": int,
}


def _parse_int(text: str, field_name: str) -> int:
    try:
        return int(text)
    except ValueError as e:
        raise ConfigError(f"{field_name}: expected an integer, got {text!r}") from e


def _parse_list(text: str, cast, field_name: str):
    """Comma list with a:b and a:b:step range shorthand."""
    items = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            parts = chunk.split(":")
            if len(parts) not in (2, 3):
                raise ConfigError(f"{field_name}: bad range {chunk!r}, expected a:b or a:b:step")
            try:
                if cast is int and len(parts) == 2:
                    a, b = int(parts[0]), int(parts[1])
                    items.extend(range(a, b + 1))
                    continue
                a, b = float(parts[0]), float(parts[1])
                step = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as e:
                raise ConfigError(f"{field_name}: bad range {chunk!r}") from e
            if step <= 0:
                raise ConfigError(f"{field_name}: range step must be positive in {chunk!r}")
            count = int(round((b - a) / step)) + 1
            items.extend(cast(round(a + i * step, 12)) for i in range(count))
        else:
            try:
                items.append(cast(chunk))
            except ValueError as e:
                raise ConfigError(f"{field_name}: expected {cast.__name__}, got {chunk!r}") from e
    if not items:
        raise ConfigError(f"{field_name}: empty list")
    return tuple(items)


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    if "experiment" not in raw:
        raise ConfigError("experiment: missing (this key is required)")
    kwargs = {}
    for key, text in raw.items():
        if key == "controllers":
            kwargs[key] = tuple(t.strip() for t in text.split(",") if t.strip())
        elif key in _LIST_FIELDS:
            kwargs[key] = _parse_list(text, _LIST_FIELDS[key], key)
        elif key in _SCALAR_FIELDS:
            cast = _SCALAR_FIELDS[key]
            if cast is str:
                kwargs[key] = text.strip()
            elif cast is int:
                kwargs[key] = _parse_int(text, key)
            else:
                try:
                    kwargs[key] = float(text)
                except ValueError as e:
                    raise ConfigError(f"{key}: expected a number, got {text!r}") from e
        else:
            raise ConfigError(f"{key}: unknown config key")
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """Read a ``key = value`` config file; '#' starts a comment."""
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    return config_from_mapping(raw)


def dump_config(cfg: ExperimentConfig) -> str:
    """Render a config back into the file format (used by preset export)."""
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if val is None:
            continue
        if isinstance(val, tuple):
            if not val:
                continue
            val = ",".join(str(v) for v in val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plants, templates, sampling


def make_plant(robot: str, links: int):
    if robot == "pendulum":
        return Pendulum(PendulumParams())
    if robot == "pendulum_nograv":
        return Pendulum(PendulumParams(gravity=0.0))
    if robot == "nlink":
        return NLinkArm(NLinkParams(links=links))
    raise ConfigError(f"robot: unknown robot {robot!r}")


def default_torque_bound(robot: str) -> float:
    return 25.0 if robot.startswith("pendulum") else 2.0


def make_template(plant, cfg: ExperimentConfig, T: int) -> MpcSpec:
    """Spec with placeholder model/goal; the loop swaps those per step."""
    nj = plant.m
    Q = np.diag([cfg.q_pos] * nj + [cfg.q_vel] * nj)
    R = cfg.r_input * np.eye(nj)
    bound = cfg.u_max if cfg.u_max is not None else default_torque_bound(cfg.robot)
    model = discretize(linearize(plant.ode, np.zeros(plant.n), np.zeros(nj)), 1.0 / cfg.rate)
    return MpcSpec(
        model=model,
        T=T,
        Q=Q,
        R=R,
        x_goal=np.zeros(plant.n),
        u_goal=np.zeros(nj),
        u_min=np.full(nj, -bound),
        u_max=np.full(nj, bound),
    )


def qp_settings(cfg: ExperimentConfig) -> QpSettings:
    return QpSettings(
        rho=cfg.qp_rho,
        eps_prim=cfg.qp_eps_prim,
        eps_dual=cfg.qp_eps_dual,
        max_iters=cfg.qp_max_iters,
    )


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


def _controller_from_token(tok: ControllerToken, cfg: ExperimentConfig, seed: int) -> Controller:
    if tok.kind == "empc":
        st = EmpcSettings(
            num_sims=cfg.empc_sims,
            num_parents=cfg.empc_parents,
            generations=tok.generations,
            seed=seed,
        )
        return Controller("empc", p=tok.p, empc=st)
    return Controller(tok.kind, p=tok.p)


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
    """(token, controller) for each controller the trial runs, baseline first."""
    cfg = task.cfg
    for c_idx, text in enumerate(cfg.resolved_controllers()):
        tok = parse_controller_token(text)
        yield tok, _controller_from_token(tok, cfg, _derived_seed(cfg, task.links, task.trial, c_idx))


def _row(task: _Task, tok: ControllerToken, T: int, x0, xg, report=None, **extra) -> dict:
    """One CSV row: one controller's result in one trial; ``extra`` sets
    the columns the experiment adds (and ``steps`` for a one-shot solve)."""
    cfg = task.cfg
    row = {c: "" for c in COLUMNS}
    row.update(
        experiment=cfg.experiment,
        robot=cfg.robot,
        links=task.links if cfg.robot == "nlink" else 1,
        T=T,
        p=tok.p if tok.p is not None else "",
        controller=tok.kind,
        generations=tok.generations if tok.kind == "empc" else "",
        trial=task.trial,
        seed=cfg.seed,
        start=_fmt_vec(x0),
        goal=_fmt_vec(xg),
        steps=int(round(cfg.duration * cfg.rate)),
    )
    if report is not None:
        row.update(
            actual_cost=report.actual_cost,
            rise_time=report.rise_time,
            overshoot=report.overshoot,
            itae=report.itae,
            opt_time_q1=report.opt_time_quartiles[0],
            opt_time_med=report.opt_time_quartiles[1],
            opt_time_q3=report.opt_time_quartiles[2],
            mpc_time_q1=report.mpc_time_quartiles[0],
            mpc_time_med=report.mpc_time_quartiles[1],
            mpc_time_q3=report.mpc_time_quartiles[2],
            failures=report.failures,
        )
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
        qp_settings=qp_settings(cfg),
    )
    return compute_metrics(result, template.Q, template.R, xg, cfg.rate, plant.m)


def _run_comparison(task: _Task) -> list[dict]:
    """Closed-loop runs of each controller, costs relative to the first."""
    cfg = task.cfg
    plant, x0, xg = _trial_setup(task)
    template = make_template(plant, cfg, cfg.horizon())
    rows = []
    base_cost = None
    for tok, controller in _controllers(task):
        report = _closed_loop(plant, controller, template, x0, xg, cfg)
        if base_cost is None:
            base_cost = report.actual_cost
        rows.append(_row(task, tok, template.T, x0, xg, report,
                         cost_ratio=cost_ratio(report.actual_cost, base_cost)))
    return rows


def _run_horizon_sweep(task: _Task) -> list[dict]:
    """One closed loop per distinct horizon, costs relative to horizon T."""
    cfg = task.cfg
    plant, x0, xg = _trial_setup(task)
    tok, controller = next(_controllers(task))
    reports = {}
    for T in (cfg.T, *cfg.horizons):
        if T not in reports:
            reports[T] = _closed_loop(plant, controller, make_template(plant, cfg, T), x0, xg, cfg)
    base = reports[cfg.T]
    return [
        _row(task, tok, T, x0, xg, reports[T], cost_ratio=cost_ratio(reports[T].actual_cost, base.actual_cost))
        for T in cfg.horizons
    ]


def _run_robustness(task: _Task) -> list[dict]:
    cfg = task.cfg
    plant, x0, xg = _trial_setup(task, step=1.0)
    template = make_template(plant, cfg, cfg.T)

    rows = []
    for tok, controller in _controllers(task):
        reports = {}
        for mult in sorted(set(cfg.multipliers) | {1.0}):
            wrong = apply_error_multiplier(plant.params, mult)
            model_plant = type(plant)(wrong) if mult != 1.0 else None
            reports[mult] = _closed_loop(plant, controller, template, x0, xg, cfg, controller_plant=model_plant)
        for mult in cfg.multipliers:
            report = reports[mult]
            rows.append(_row(task, tok, cfg.T, x0, xg, report, multiplier=mult,
                             normalized_cost=cost_ratio(report.actual_cost, reports[1.0].actual_cost)))
    return rows


def _run_solve_time_scaling(task: _Task) -> list[dict]:
    """Cold one-shot solve per controller; the MPC time adds the QP build."""
    cfg = task.cfg
    plant, x0, xg = _trial_setup(task)
    model = discretize(linearize(plant.ode, x0, np.zeros(plant.m)), 1.0 / cfg.rate)
    spec = replace(make_template(plant, cfg, cfg.T), model=model, x_goal=xg)

    rows = []
    for tok, controller in _controllers(task):
        sched = KnotSchedule(cfg.T, tok.p) if tok.p is not None else None
        if tok.kind == "empc":
            t0 = time.perf_counter()
            solve_empc(spec, sched, controller.empc, x0)
            opt = total = time.perf_counter() - t0
            failed = 0
        else:
            solver = AdmmSolver(qp_settings(cfg))
            t0 = time.perf_counter()
            sol = solver.solve(build(tok.kind, spec, x0, sched))
            total = time.perf_counter() - t0
            opt, failed = sol.solve_time, int(sol.status != "solved")
        rows.append(_row(task, tok, cfg.T, x0, xg, steps=1, opt_time_med=opt, mpc_time_med=total, failures=failed))
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


def run_experiment(cfg: ExperimentConfig, out_dir: str = ".", workers: int | None = None) -> list[dict]:
    """Run every trial of an experiment and write its CSV; returns the rows."""
    cfg.validate()
    links_axis = cfg.links if cfg.robot == "nlink" else (1,)
    tasks = [_Task(cfg, links, trial) for links in links_axis for trial in range(cfg.trials)]

    n_workers = workers if workers is not None else cfg.workers
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
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
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([_fmt_cell(row[c]) for c in COLUMNS])


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


def _preset_param_sweep_linear() -> ExperimentConfig:
    return ExperimentConfig(
        experiment="param_sweep",
        robot="pendulum_nograv",
        p=(1, 2, 3, 4, 8, 16, 32, 64, 100),
        trials=20,
        duration=1.0,
        rate=100.0,
        seed=1001,
        out="param_sweep_linear.csv",
    )


def _preset_param_sweep_gravity() -> ExperimentConfig:
    return replace(_preset_param_sweep_linear(), robot="pendulum", seed=1002, out="param_sweep_gravity.csv")


def _preset_horizon_sweep() -> ExperimentConfig:
    return ExperimentConfig(
        experiment="horizon_sweep",
        robot="pendulum_nograv",
        T=50,
        horizons=(5, 10, 15, 20, 25, 30, 40, 50, 75, 100),
        trials=20,
        duration=1.0,
        rate=100.0,
        seed=1003,
        out="horizon_sweep.csv",
    )


def _preset_robustness_pendulum() -> ExperimentConfig:
    return ExperimentConfig(
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


def _preset_robustness_arm() -> ExperimentConfig:
    return ExperimentConfig(
        experiment="robustness",
        robot="nlink",
        links=(3,),
        T=50,
        multipliers=tuple(round(0.5 + 0.1 * i, 10) for i in range(11)),
        controllers=("small", "small_param:4"),
        trials=20,
        duration=2.0,
        rate=100.0,
        seed=1005,
        out="robustness_arm.csv",
    )


def _preset_solve_times_t50() -> ExperimentConfig:
    return ExperimentConfig(
        experiment="solve_time_scaling",
        robot="nlink",
        links=tuple(range(1, 14)),
        T=50,
        controllers=("large", "small", "large_param:5", "small_param:5"),
        trials=20,
        rate=100.0,
        seed=1006,
        out="solve_times_t50.csv",
    )


def _preset_solve_times_t100() -> ExperimentConfig:
    return replace(_preset_solve_times_t50(), T=100, seed=1007, out="solve_times_t100.csv")


def _preset_closedloop_arms() -> ExperimentConfig:
    return ExperimentConfig(
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
    )


PRESETS = {
    "param_sweep_linear": (_preset_param_sweep_linear, "knot-count sweep on the no-gravity pendulum"),
    "param_sweep_gravity": (_preset_param_sweep_gravity, "knot-count sweep on the gravity pendulum"),
    "horizon_sweep": (_preset_horizon_sweep, "horizon-length sweep, traditional MPC"),
    "robustness_pendulum": (_preset_robustness_pendulum, "inertial-error robustness on the pendulum"),
    "robustness_arm": (_preset_robustness_arm, "inertial-error robustness on a 3-link arm"),
    "solve_times_t50": (_preset_solve_times_t50, "formulation solve times vs links, horizon 50"),
    "solve_times_t100": (_preset_solve_times_t100, "formulation solve times vs links, horizon 100"),
    "closedloop_arms": (_preset_closedloop_arms, "closed-loop convex vs evolutionary comparison"),
}


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name][0]()
