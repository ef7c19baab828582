"""Closed-loop MPC simulation and step-response metrics.

Each control period the plant model is relinearized at the current state
(with zero nominal input), discretized exactly at the control rate, and
handed to the selected controller.  The chosen first input is then held
for one period while the true nonlinear plant is integrated with RK4
substeps.  Linearization and integration use different derivative paths
of the same physics: ``linearize`` evaluates the batched ``ode`` on all
of its row-stacked points in one call, and ``integrate`` steps the true
plant through the single-state ``ode1``, because its RK4 stages are
serial.  A plant state that goes non-finite raises ``FloatingPointError``
at that step.  A deliberately wrong controller model (for robustness
studies, built by ``bench.make_plant`` with a multiplier) is passed
separately from the true plant, so the mismatch never leaks into the
simulated physics.

Metrics follow the usual servo conventions: the realized tracking cost
(final stage padded with a zero input), rise time to the 90% level,
percent overshoot past the goal, and time-weighted absolute error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .condense import MpcSpec, build
from .dynamics import discretize, integrate, linearize
from .empc import solve_empc
from .param import KnotSchedule
from .qp import AdmmSolver, QpSettings

PLANT_SUBSTEPS = 10  # RK4 substeps of the true plant per control period

# Controller kinds, each with the integer arguments its token takes after
# the name ("small_param:3", "empc:3:1"): the four QP formulations of
# ``condense.build``, and the evolutionary search over the same knot space.
CONTROLLER_KINDS = {
    "large": (),
    "small": (),
    "large_param": ("p",),
    "small_param": ("p",),
    "empc": ("p", "generations"),
}
_ARGUMENTS = tuple(dict.fromkeys(name for names in CONTROLLER_KINDS.values() for name in names))


@dataclass(frozen=True)
class Controller:
    """Which solver runs inside the loop: a controller token and its seed.

    kind is one of ``CONTROLLER_KINDS`` and takes exactly the arguments its
    token names, each >= 1: the knot count p and EMPC's generations per
    step.  ``seed`` seeds EMPC's search; the QP kinds draw nothing.
    """

    kind: str
    p: int | None = None
    generations: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        for name in _ARGUMENTS:
            value = getattr(self, name)
            if name not in CONTROLLER_KINDS[self.kind]:
                if value is not None:
                    raise ValueError(f"{self.kind} takes no {name}, got {name}={value}")
            elif value is None:
                raise ValueError(f"{self.kind} needs {name}")
            elif value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class SimResult:
    states: np.ndarray  # (H+1, n)
    inputs: np.ndarray  # (H, m)
    opt_time: np.ndarray  # per-step QP solve or EMPC search, s
    mpc_time: np.ndarray  # per-step problem build plus that solve or search, s
    failures: int  # solver failures (input held on those steps)


def run_closed_loop(
    plant,
    controller: Controller,
    template: MpcSpec,
    x0,
    x_goal,
    duration: float,
    rate: float,
    *,
    controller_plant=None,
    qp_settings: QpSettings | None = None,
) -> SimResult:
    """Simulate ``duration`` seconds of MPC at ``rate`` Hz.

    ``controller_plant`` (defaulting to the true plant) is what the
    controller believes it is driving; only its linearization is ever
    used.  Every step builds the controller's QP (EMPC searches the
    ``small_param`` one) and then solves or searches it.  The timing
    columns mean the same for every controller: ``opt_time`` is the solve
    or search, and ``mpc_time`` the build plus that.  Time spent
    linearizing/discretizing is excluded from both.
    """
    H = int(round(duration * rate))
    if H < 1:
        raise ValueError("duration: duration * rate must round to at least one control step")
    dt = 1.0 / rate
    model_src = controller_plant if controller_plant is not None else plant
    x_goal = np.asarray(x_goal, float)
    if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(x_goal))):
        raise ValueError("x0 and x_goal must be finite")
    template = replace(template, x_goal=x_goal)  # validated once; each step swaps in only the model

    n, m = plant.n, plant.m
    states = np.empty((H + 1, n))
    inputs = np.empty((H, m))
    opt_time = np.zeros(H)
    mpc_time = np.zeros(H)
    states[0] = np.asarray(x0, float)

    sched = KnotSchedule(template.T, controller.p) if controller.p is not None else None
    formulation = "small_param" if controller.kind == "empc" else controller.kind
    solver = AdmmSolver(qp_settings)
    warm = None  # the last solved QP's (z, dual), or EMPC's population
    last_u = np.zeros(m)
    failures = 0
    u0_nominal = np.zeros(m)

    x = states[0].copy()
    for i in range(H):
        clin = linearize(model_src.ode, x, u0_nominal)
        dmodel = discretize(clin, dt)
        spec = template._with_model(dmodel)

        t0 = time.perf_counter()
        prob = build(formulation, spec, x, sched)
        t1 = time.perf_counter()
        if controller.kind == "empc":
            res = solve_empc(prob, spec, x, controller.generations, controller.seed, prev=warm)
        else:
            res = solver.solve(prob, warm=warm)
        t2 = time.perf_counter()
        opt_time[i] = t2 - t1
        mpc_time[i] = t2 - t0
        if controller.kind == "empc":
            u, warm = res.u, res.population
        elif res.status == "solved":
            u = res.z[:m].copy()  # every formulation's z starts with the knots
            warm = (res.z, res.dual)
        else:
            failures += 1
            u = last_u

        inputs[i] = u
        last_u = u
        x = integrate(plant.ode1, x, u, dt, substeps=PLANT_SUBSTEPS)
        if not np.isfinite(x).all():
            raise FloatingPointError(f"plant state went non-finite at step {i}: {x}")
        states[i + 1] = x

    return SimResult(states, inputs, opt_time, mpc_time, failures)


# ---------------------------------------------------------------------------
# metrics


def actual_cost(states, inputs, Q, R, x_goal) -> float:
    """Realized tracking cost over the run against a zero input goal, final
    stage padded with u = 0."""
    states = np.asarray(states, float)
    inputs = np.asarray(inputs, float)
    U = np.vstack([inputs, np.zeros((1, inputs.shape[1]))])
    ex = x_goal - states
    return float(np.einsum("ti,ij,tj->", ex, Q, ex) + np.einsum("ti,ij,tj->", U, R, U))


def cost_ratio(cost: float, baseline: float) -> float:
    """Ratio of a controller's realized cost to a baseline's."""
    if baseline == 0.0:
        return np.nan
    return cost / baseline


def rise_time(positions, start, goal, rate: float) -> np.ndarray:
    """Per-joint time of the first crossing of 90% of the commanded step.

    Returns NaN for joints that never reach the 90% level.
    """
    positions = np.atleast_2d(np.asarray(positions, float))
    start = np.atleast_1d(np.asarray(start, float))
    goal = np.atleast_1d(np.asarray(goal, float))
    out = np.full(start.size, np.nan)
    for j in range(start.size):
        step_sign = np.sign(goal[j] - start[j])
        level = start[j] + 0.9 * (goal[j] - start[j])
        if step_sign == 0:
            out[j] = 0.0
            continue
        crossed = (positions[:, j] - level) * step_sign >= 0
        hits = np.flatnonzero(crossed)
        if hits.size:
            out[j] = hits[0] / rate
    return out


def percent_overshoot(positions, start, goal) -> np.ndarray:
    """Per-joint overshoot past the goal, as a percent of the step size.

    NaN where the commanded step is zero.
    """
    positions = np.atleast_2d(np.asarray(positions, float))
    start = np.atleast_1d(np.asarray(start, float))
    goal = np.atleast_1d(np.asarray(goal, float))
    out = np.full(start.size, np.nan)
    for j in range(start.size):
        d = goal[j] - start[j]
        if d == 0:
            continue
        past = (positions[:, j] - goal[j]) * np.sign(d)
        out[j] = max(0.0, float(np.max(past))) / abs(d) * 100.0
    return out


def itae(positions, command, rate: float) -> np.ndarray:
    """Per-joint integral of time-weighted absolute error against the
    constant per-joint target ``command``, by trapezoid."""
    positions = np.atleast_2d(np.asarray(positions, float))
    t = np.arange(positions.shape[0]) / rate
    return np.trapezoid(t[:, None] * np.abs(np.asarray(command, float) - positions), t, axis=0)


@dataclass
class MetricsReport:
    actual_cost: float
    rise_time: float  # median across joints, s (NaN if never reached)
    overshoot: float  # median across joints, percent
    itae: float  # median across joints
    opt_time_q1: float  # quartiles of the per-step times, s
    opt_time_med: float
    opt_time_q3: float
    mpc_time_q1: float
    mpc_time_med: float
    mpc_time_q3: float
    failures: int


def compute_metrics(result: SimResult, spec_Q, spec_R, x_goal, rate: float) -> MetricsReport:
    """Aggregate a run into one report; joint-level metrics take medians.
    The fields are the names of the harness's CSV columns."""
    n_joints = result.inputs.shape[1]
    x0 = result.states[0]
    pos = result.states[:, :n_joints]
    rt = rise_time(pos, x0[:n_joints], x_goal[:n_joints], rate)
    ov = percent_overshoot(pos, x0[:n_joints], x_goal[:n_joints])
    ia = itae(pos, x_goal[:n_joints], rate)
    q1, med, q3 = np.percentile(result.opt_time, [25, 50, 75])
    m1, mmed, m3 = np.percentile(result.mpc_time, [25, 50, 75])
    return MetricsReport(
        actual_cost=actual_cost(result.states, result.inputs, spec_Q, spec_R, x_goal),
        rise_time=float(np.median(rt)),
        overshoot=float(np.median(ov)),
        itae=float(np.median(ia)),
        opt_time_q1=float(q1),
        opt_time_med=float(med),
        opt_time_q3=float(q3),
        mpc_time_q1=float(m1),
        mpc_time_med=float(mmed),
        mpc_time_q3=float(m3),
        failures=result.failures,
    )
