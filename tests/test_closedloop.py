"""Tests for the closed-loop runner and the response metrics.

Metric oracles: the damped second-order step response has closed-form
overshoot exp(-pi zeta / sqrt(1 - zeta^2)) and a 90% rise time solvable
from the envelope equation; ITAE of exp(-t) on [0, 5] integrates to
1 - 6 exp(-5).
"""

import numpy as np
import pytest

from knotmpc.closedloop import (
    PLANT_SUBSTEPS,
    Controller,
    actual_cost,
    compute_metrics,
    cost_ratio,
    itae,
    percent_overshoot,
    rise_time,
    run_closed_loop,
)
from knotmpc.bench import make_plant
from knotmpc.condense import MpcSpec
from knotmpc.dynamics import NLinkArm, NLinkParams, discretize, linearize, nlink_accel

# second-order system zeta=0.5, wn=2, unit step
SECOND_ORDER_OVERSHOOT = 16.303353482158048
SECOND_ORDER_T90 = 1.0629011215678665
SECOND_ORDER_ITAE = 0.7351233721198567
# integral of t * exp(-t) on [0, 5]
EXP_ITAE = 0.9595723180054871


def _template(plant, T=40, rate=100.0):
    clin = linearize(plant.ode, np.zeros(plant.n), np.zeros(plant.m))
    model = discretize(clin, 1.0 / rate)
    nj = plant.m
    return MpcSpec(
        model, T,
        Q=np.diag([10.0] * nj + [0.1] * nj),
        R=0.01 * np.eye(nj),
        x_goal=np.zeros(plant.n),
        u_min=-25.0 * np.ones(nj), u_max=25.0 * np.ones(nj),
    )


# ---------------------------------------------------------------------------
# metrics on synthetic traces

def test_rise_time_linear_ramp():
    # ramp from 0 to 1 over one second, 90% level crossed at t=0.9
    t = np.linspace(0.0, 2.0, 201)
    pos = np.clip(t, 0.0, 1.0).reshape(-1, 1)
    rt = rise_time(pos, np.array([0.0]), np.array([1.0]), 100.0)
    assert rt[0] == pytest.approx(0.9, abs=0.011)


def test_rise_time_never_reached_is_nan():
    pos = np.full((50, 1), 0.2)
    rt = rise_time(pos, np.array([0.0]), np.array([1.0]), 100.0)
    assert np.isnan(rt[0])


def test_rise_time_zero_step():
    pos = np.zeros((50, 1))
    rt = rise_time(pos, np.array([0.0]), np.array([0.0]), 100.0)
    assert rt[0] == 0.0


def test_percent_overshoot_synthetic():
    pos = np.array([0.0, 0.5, 1.2, 0.9, 1.05, 1.0]).reshape(-1, 1)
    ov = percent_overshoot(pos, np.array([0.0]), np.array([1.0]))
    assert ov[0] == pytest.approx(20.0)
    under = np.array([0.0, 0.5, 0.9]).reshape(-1, 1)
    assert percent_overshoot(under, np.array([0.0]), np.array([1.0]))[0] == 0.0
    flat = np.zeros((5, 1))
    assert np.isnan(percent_overshoot(flat, np.array([0.0]), np.array([0.0]))[0])


def test_itae_exponential_decay():
    rate = 1000.0
    t = np.arange(0, 5.0 + 0.5 / rate, 1.0 / rate)
    pos = (1.0 - np.exp(-t)).reshape(-1, 1)
    got = itae(pos, np.array([1.0]), rate)
    assert got[0] == pytest.approx(EXP_ITAE, abs=1e-5)


def _second_order_trace(rate=1000.0, tf=10.0):
    # underdamped unit step response, zeta=0.5, wn=2, in closed form
    zeta, wn = 0.5, 2.0
    t = np.arange(int(tf * rate) + 1) / rate
    wd = wn * np.sqrt(1 - zeta**2)
    phi = np.arccos(zeta)
    q = 1.0 - np.exp(-zeta * wn * t) / np.sqrt(1 - zeta**2) * np.sin(wd * t + phi)
    return q.reshape(-1, 1)


def test_second_order_response_metrics():
    pos = _second_order_trace()
    start, goal = np.array([0.0]), np.array([1.0])
    ov = percent_overshoot(pos, start, goal)
    assert ov[0] == pytest.approx(SECOND_ORDER_OVERSHOOT, abs=0.05)
    rt = rise_time(pos, start, goal, 1000.0)
    assert rt[0] == pytest.approx(SECOND_ORDER_T90, abs=0.002)
    err = itae(pos, goal, 1000.0)
    assert err[0] == pytest.approx(SECOND_ORDER_ITAE, abs=1e-3)


# ---------------------------------------------------------------------------
# costs

def test_actual_cost_hand_sum():
    states = np.array([[1.0, 0.0], [0.5, -0.1], [0.2, 0.05]])
    inputs = np.array([[0.3], [-0.2]])
    Q = np.diag([2.0, 1.0])
    R = np.eye(1)
    goal = np.array([0.0, 0.0])
    want = 0.0
    for x in states:
        want += x @ Q @ x
    for u in inputs:
        want += u @ R @ u
    assert actual_cost(states, inputs, Q, R, goal) == pytest.approx(want, rel=1e-14)


def test_actual_cost_counts_every_state_sample():
    # one more state row than input rows: the final sample still contributes
    states = np.array([[1.0], [1.0]])
    inputs = np.array([[0.0]])
    a = actual_cost(states, inputs, np.eye(1), np.eye(1), np.zeros(1))
    assert a == pytest.approx(2.0)


def test_cost_ratio_and_normalization():
    assert cost_ratio(2.0, 4.0) == pytest.approx(0.5)
    assert np.isnan(cost_ratio(1.0, 0.0))


# ---------------------------------------------------------------------------
# plant perturbation

def test_error_multiplier_pendulum():
    base = make_plant("pendulum", 1).params
    heavy = make_plant("pendulum", 1, 1.3).params
    # mass and length both scale, so the inertia scales with the cube
    assert heavy.mass[0] * heavy.length[0] ** 2 == pytest.approx(1.3**3)
    assert heavy.gravity == base.gravity


def test_error_multiplier_nlink():
    base = make_plant("nlink", 3).params
    light = make_plant("nlink", 3, 0.7).params
    np.testing.assert_allclose(light.mass, 0.7 * base.mass)
    np.testing.assert_allclose(light.length, base.length)


def test_error_multiplier_rebuilds_chain_constants():
    # replace() reruns NLinkParams.__post_init__, so the derived inertia and
    # gravity weights follow the scaled masses
    from dataclasses import replace

    base = NLinkParams(links=4, gravity=9.81)
    heavy = replace(base, mass=base.mass * 2.0)
    fresh = NLinkParams(links=4, mass=2.0, gravity=9.81)
    rng = np.random.default_rng(3)
    for _ in range(5):
        q, qd, tau = rng.uniform(-2, 2, 4), rng.normal(size=4), rng.normal(size=4)
        np.testing.assert_array_equal(nlink_accel(heavy, q, qd, tau), nlink_accel(fresh, q, qd, tau))
        assert not np.array_equal(nlink_accel(heavy, q, qd, tau), nlink_accel(base, q, qd, tau))


def test_error_multiplier_validation():
    for multiplier in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            make_plant("pendulum", 1, multiplier)
        with pytest.raises(ValueError):
            make_plant("nlink", 2, multiplier)


# ---------------------------------------------------------------------------
# closed loop

def test_trace_shapes():
    plant = make_plant("pendulum_nograv", 1)
    template = _template(plant)
    res = run_closed_loop(
        plant, Controller("small"), template,
        x0=np.array([-0.5, 0.0]), x_goal=np.zeros(2), duration=0.5, rate=100.0,
    )
    assert res.states.shape == (51, 2)
    assert res.inputs.shape == (50, 1)
    assert len(res.opt_time) == 50 and len(res.mpc_time) == 50
    assert res.failures == 0


def test_regulator_reaches_goal():
    plant = make_plant("pendulum_nograv", 1)
    template = _template(plant)
    goal = np.array([0.8, 0.0])
    res = run_closed_loop(
        plant, Controller("small"), template,
        x0=np.zeros(2), x_goal=goal, duration=1.5, rate=100.0,
    )
    np.testing.assert_allclose(res.states[-1], goal, atol=0.02)


def test_equilibrium_stays_put():
    plant = make_plant("pendulum_nograv", 1)
    template = _template(plant)
    res = run_closed_loop(
        plant, Controller("small"), template,
        x0=np.zeros(2), x_goal=np.zeros(2), duration=0.3, rate=100.0,
    )
    np.testing.assert_allclose(res.states, 0.0, atol=1e-9)


def test_knot_controller_tracks_like_dense():
    plant = make_plant("pendulum_nograv", 1)
    template = _template(plant)
    goal = np.array([0.6, 0.0])
    dense = run_closed_loop(plant, Controller("small"), template,
                            x0=np.zeros(2), x_goal=goal, duration=1.0, rate=100.0)
    knots = run_closed_loop(plant, Controller("small_param", p=8), template,
                            x0=np.zeros(2), x_goal=goal, duration=1.0, rate=100.0)
    c_dense = actual_cost(dense.states, dense.inputs, template.Q, template.R, goal)
    c_knots = actual_cost(knots.states, knots.inputs, template.Q, template.R, goal)
    assert c_knots <= 1.02 * c_dense


def test_empc_controller_smoke():
    plant = make_plant("pendulum_nograv", 1)
    template = _template(plant, T=30)
    goal = np.array([0.4, 0.0])
    res = run_closed_loop(
        plant,
        Controller("empc", p=3, generations=2),
        template, x0=np.zeros(2), x_goal=goal, duration=0.5, rate=100.0,
    )
    assert res.states.shape == (51, 2)
    # every candidate is drawn in the box and every child clamped to it
    assert np.all((template.u_min <= res.inputs) & (res.inputs <= template.u_max))
    assert np.all(np.isfinite(res.states))


@pytest.mark.parametrize(
    "controller",
    [Controller("small_param", p=3), Controller("empc", p=3, generations=1)],
    ids=["small_param", "empc"],
)
def test_timing_columns_split_build_from_solve_for_every_controller(controller):
    # opt_time is the solve or search alone, mpc_time adds the problem build
    plant = make_plant("pendulum_nograv", 1)
    res = run_closed_loop(
        plant, controller, _template(plant, T=30),
        x0=np.zeros(2), x_goal=np.array([0.4, 0.0]), duration=0.1, rate=100.0,
    )
    assert np.all(res.opt_time > 0.0)
    assert np.all(res.opt_time < res.mpc_time)


def test_mismatched_controller_plant():
    plant = make_plant("pendulum_nograv", 1)
    wrong = make_plant("pendulum_nograv", 1, 1.3)
    template = _template(plant)
    res = run_closed_loop(
        plant, Controller("small"), template,
        x0=np.zeros(2), x_goal=np.array([0.5, 0.0]), duration=1.0, rate=100.0,
        controller_plant=wrong,
    )
    # still stabilizes, just less cleanly
    assert abs(res.states[-1, 0] - 0.5) < 0.1


def test_solver_failure_path(monkeypatch):
    # every step's QP gets an indefinite P (smallest eigenvalue -0.5), which
    # no solve can finish: each step counts a failure and holds the input
    from dataclasses import replace

    from knotmpc import closedloop
    from knotmpc.closedloop import QpSettings

    build = closedloop.build

    def indefinite(*args):
        prob = build(*args)
        shift = np.linalg.eigvalsh(prob.P)[0] + 0.5
        return replace(prob, P=prob.P - shift * np.eye(prob.q.size))

    monkeypatch.setattr(closedloop, "build", indefinite)
    plant = make_plant("pendulum_nograv", 1)
    template = _template(plant)
    res = run_closed_loop(
        plant, Controller("small"), template,
        x0=np.zeros(2), x_goal=np.array([0.5, 0.0]), duration=0.2, rate=100.0,
        qp_settings=QpSettings(max_iters=50),
    )
    assert res.failures == 20
    assert np.all(res.inputs == 0.0)


def test_spec_validated_once_per_run(monkeypatch):
    # each step swaps in its model without rerunning MpcSpec's checks, so
    # the number of validations does not grow with the run length
    plant = make_plant("pendulum_nograv", 1)
    template = _template(plant)
    validate = MpcSpec.__post_init__
    calls = []

    def counting(self):
        calls.append(1)
        validate(self)

    monkeypatch.setattr(MpcSpec, "__post_init__", counting)
    per_run = []
    for duration in (0.03, 0.2):
        calls.clear()
        run_closed_loop(plant, Controller("small_param", p=4), template,
                        x0=np.zeros(2), x_goal=np.array([0.3, 0.0]), duration=duration, rate=100.0)
        per_run.append(len(calls))
    assert per_run[0] == per_run[1] <= 1


def test_step_model_must_match_the_spec_dimensions():
    template = _template(make_plant("pendulum_nograv", 1))
    arm = NLinkArm(NLinkParams(links=2))
    wrong = discretize(linearize(arm.ode, np.zeros(arm.n), np.zeros(arm.m)), 0.01)
    with pytest.raises(ValueError, match=r"\(n, m\)"):
        template._with_model(wrong)
    swapped = template._with_model(template.model)
    assert swapped.model is template.model and swapped.Q is template.Q


def test_non_finite_endpoints_rejected_before_the_first_step(monkeypatch):
    import knotmpc.closedloop as closedloop

    def no_step(*args, **kwargs):
        raise AssertionError("linearized a non-finite state")

    monkeypatch.setattr(closedloop, "linearize", no_step)
    plant = make_plant("pendulum_nograv", 1)
    template = _template(plant)
    for x0, goal in (([np.nan, 0.0], [0.5, 0.0]), ([0.0, np.inf], [0.5, 0.0]), ([0.0, 0.0], [np.nan, 0.0])):
        with pytest.raises(ValueError, match="finite"):
            run_closed_loop(plant, Controller("small"), template, x0=np.array(x0),
                            x_goal=np.array(goal), duration=0.1, rate=100.0)


def test_arm_plant_steps_through_ode1(monkeypatch):
    # the true plant advances through the single-state derivative, 4 RK4
    # stages x 10 substeps per step; the batched ode serves only linearize
    from knotmpc.bench import _sample_endpoints, make_plant, make_template, preset_config

    cfg = preset_config("closedloop_arms")
    plant = make_plant(cfg.robot, 6)
    template = make_template(plant, cfg, cfg.T)
    x0, x_goal = _sample_endpoints(np.random.default_rng(0), plant.m)
    calls = {"ode": 0, "ode1": 0}

    def counting(name):
        f = getattr(plant, name)

        def wrapper(x, u):
            calls[name] += 1
            return f(x, u)

        return wrapper

    for name in calls:
        monkeypatch.setattr(plant, name, counting(name))
    res = run_closed_loop(plant, Controller("small_param", p=3), template, x0, x_goal, 5 / cfg.rate, cfg.rate)
    assert calls == {"ode": 5, "ode1": 5 * 4 * PLANT_SUBSTEPS}
    assert res.states.shape == (6, plant.n) and res.failures == 0


def test_warm_knot_solves_factor_about_once_each(monkeypatch):
    # the 6-link arm's knot QPs from the closedloop_arms trial-0 endpoints:
    # a warm start's dual pins the bounds the last solve ended on, so the
    # walk rarely has to discover them one factorization at a time
    from knotmpc import qp
    from knotmpc.bench import _sample_endpoints, _trial_rng, make_plant, make_template, preset_config

    cfg = preset_config("closedloop_arms")
    plant = make_plant(cfg.robot, 6)
    template = make_template(plant, cfg, cfg.T)
    x0, x_goal = _sample_endpoints(_trial_rng(cfg, 6, 0), plant.m)
    factors, warm_factors = [], []
    cho_factor, solve = qp.sla.cho_factor, qp.AdmmSolver.solve

    def counting_cho_factor(*args, **kwargs):
        factors.append(1)
        return cho_factor(*args, **kwargs)

    def counting_solve(self, prob, warm=None):
        before = len(factors)
        sol = solve(self, prob, warm)
        if warm is not None:
            warm_factors.append(len(factors) - before)
        return sol

    monkeypatch.setattr(qp.sla, "cho_factor", counting_cho_factor)
    monkeypatch.setattr(qp.AdmmSolver, "solve", counting_solve)
    res = run_closed_loop(plant, Controller("small_param", p=3), template, x0, x_goal, 30 / cfg.rate, cfg.rate)
    assert res.failures == 0 and len(warm_factors) == 29
    assert sum(warm_factors) / len(warm_factors) <= 2.5


class _PlantGoingNonFinite(NLinkArm):
    """A pendulum whose single-state derivative turns NaN after ``steps``
    control steps of 4 RK4 stages per substep."""

    def __init__(self, steps):
        super().__init__(make_plant("pendulum_nograv", 1).params)
        self.calls = 0
        self.after = steps * 4 * PLANT_SUBSTEPS

    def ode1(self, x, u):
        self.calls += 1
        return self.ode(x, u) if self.calls <= self.after else np.full(2, np.nan)


@pytest.mark.parametrize(
    "controller",
    [Controller("small_param", p=4), Controller("empc", p=3, generations=2)],
    ids=["small_param", "empc"],
)
def test_non_finite_plant_state_raises_at_its_step(controller):
    plant = _PlantGoingNonFinite(steps=3)
    template = _template(plant, T=30)
    with pytest.raises(FloatingPointError, match="non-finite at step 3"):
        run_closed_loop(plant, controller, template, x0=np.zeros(2), x_goal=np.array([0.4, 0.0]),
                        duration=0.1, rate=100.0)
    # the loop stopped at the step whose integration went non-finite
    assert plant.calls == 4 * 4 * PLANT_SUBSTEPS


def test_controller_validation():
    with pytest.raises(ValueError):
        Controller("medium")
    with pytest.raises(ValueError):
        Controller("small_param")  # needs p
    with pytest.raises(ValueError):
        Controller("empc", generations=1)  # needs p
    for kwargs in (
        {"kind": "small", "p": 3},  # the per-step kinds take no knot count
        {"kind": "large", "p": 50},
        {"kind": "small_param", "p": 0},
        {"kind": "empc", "p": -1, "generations": 1},
        {"kind": "empc", "p": 2},  # needs generations
        {"kind": "empc", "p": 2, "generations": 0},
        {"kind": "small", "generations": 1},  # only empc searches
        {"kind": "small_param", "p": 3, "generations": 1},
    ):
        with pytest.raises(ValueError):
            Controller(**kwargs)
    c = Controller("empc", p=2, generations=3, seed=7)
    assert (c.p, c.generations, c.seed) == (2, 3, 7)


def test_zero_step_run_rejected():
    # an empty trace would only fail later, inside compute_metrics
    plant = make_plant("pendulum_nograv", 1)
    with pytest.raises(ValueError, match="at least one control step"):
        run_closed_loop(plant, Controller("small"), _template(plant), x0=np.zeros(2),
                        x_goal=np.array([0.5, 0.0]), duration=0.004, rate=100.0)


def test_compute_metrics_quartiles():
    plant = make_plant("pendulum_nograv", 1)
    template = _template(plant)
    goal = np.array([0.5, 0.0])
    res = run_closed_loop(plant, Controller("small"), template,
                          x0=np.zeros(2), x_goal=goal, duration=1.0, rate=100.0)
    rep = compute_metrics(res, template.Q, template.R, goal, 100.0)
    assert rep.opt_time_q1 <= rep.opt_time_med <= rep.opt_time_q3
    assert rep.actual_cost > 0
    assert rep.failures == 0
    assert np.isfinite(rep.rise_time)


def _load_checks():
    """perfbench/checks.py, the benchmark's KKT check from outside the solver."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("token", ["large", "large_param:3"])
@pytest.mark.parametrize("links", [1, 2])
def test_sparse_solutions_pass_the_outside_kkt_check(token, links, monkeypatch):
    # every solve the sparse path calls "solved" satisfies the unscaled KKT
    # conditions as perfbench recomputes them from the problem data
    from knotmpc.bench import _sample_endpoints, _trial_rng, make_template, parse_controller_token, preset_config
    from knotmpc.qp import AdmmSolver, QpProblem, QpSettings

    checks = _load_checks()
    solves = []
    solve = AdmmSolver.solve

    def recording(self, prob, warm=None):
        sol = solve(self, prob, warm)
        solves.append((prob, sol))
        return sol

    monkeypatch.setattr(AdmmSolver, "solve", recording)
    cfg = preset_config("closedloop_arms")
    plant = make_plant(cfg.robot, links)
    x0, xg = _sample_endpoints(_trial_rng(cfg, links, 0), links)
    run_closed_loop(plant, parse_controller_token(token), make_template(plant, cfg, cfg.T), x0, xg, 0.2, cfg.rate)
    solved = [(prob, sol) for prob, sol in solves if sol.status == "solved"]
    assert solved and all(isinstance(prob, QpProblem) for prob, _ in solves)
    s = QpSettings()
    for prob, sol in solved:
        assert checks.kkt_problems(prob, sol.z, sol.dual, s.eps_prim, s.eps_dual) == []
