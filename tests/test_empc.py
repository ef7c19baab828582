"""Tests for the evolutionary knot-point search."""

import numpy as np
import pytest

from knotmpc.condense import MpcSpec, build_small_param, objective_constant
from knotmpc.dynamics import DiscreteLinearModel, rollout
from knotmpc.empc import (
    EmpcSettings,
    Population,
    evaluate_cost,
    evolve_generation,
    init_population,
    solve_empc,
)
from knotmpc.param import KnotSchedule, KnotTrajectory, expand
from knotmpc.qp import AdmmSolver


def _spec(T=20, seed=0):
    rng = np.random.default_rng(seed)
    Ad = np.array([[1.0, 0.02], [-0.4, 0.97]])
    Bd = np.array([[0.0], [0.05]])
    model = DiscreteLinearModel(Ad, Bd, np.zeros(2), 0.02)
    return MpcSpec(
        model, T, Q=np.diag([10.0, 0.1]), R=0.01 * np.eye(1),
        x_goal=np.array([0.5, 0.0]), u_goal=np.zeros(1),
        u_min=-np.array([4.0]), u_max=np.array([4.0]),
    )


SPEC = _spec()
SCHED = KnotSchedule(T=20, p=3)
X0 = np.array([-0.3, 0.1])


def _small_settings(**kw):
    base = dict(num_sims=64, num_parents=8, seed=7)
    base.update(kw)
    return EmpcSettings(**base)


def test_same_seed_reproduces_bitwise():
    s = _small_settings(generations=3)
    a = solve_empc(SPEC, SCHED, s, X0)
    b = solve_empc(SPEC, SCHED, s, X0)
    np.testing.assert_array_equal(a.best, b.best)
    np.testing.assert_array_equal(a.population.candidates, b.population.candidates)
    assert a.best_cost == b.best_cost


def test_different_seeds_differ():
    a = solve_empc(SPEC, SCHED, _small_settings(seed=1), X0)
    b = solve_empc(SPEC, SCHED, _small_settings(seed=2), X0)
    assert not np.array_equal(a.population.candidates, b.population.candidates)


def test_candidates_respect_input_bounds():
    s = _small_settings(generations=4)
    pop = init_population(SPEC, SCHED, s, X0)
    assert pop.candidates.shape == (64, 3, 1)
    assert np.all(pop.candidates >= SPEC.u_min) and np.all(pop.candidates <= SPEC.u_max)
    for _ in range(3):
        pop = evolve_generation(pop, SPEC, SCHED, s, X0)
        assert np.all(pop.candidates >= SPEC.u_min)
        assert np.all(pop.candidates <= SPEC.u_max)


def test_elitism_never_regresses():
    s = _small_settings()
    pop = init_population(SPEC, SCHED, s, X0)
    best = np.min(pop.costs)
    for _ in range(5):
        pop = evolve_generation(pop, SPEC, SCHED, s, X0)
        new_best = np.min(pop.costs)
        assert new_best <= best + 1e-12
        best = new_best


def test_evaluate_cost_matches_manual_rollout():
    rng = np.random.default_rng(3)
    cand = rng.uniform(-4.0, 4.0, size=(3, 1))
    got = evaluate_cost(cand, SPEC, SCHED, X0)
    U = expand(KnotTrajectory(cand, SCHED))
    X = rollout(SPEC.model, X0, U)
    want = 0.0
    for k in range(21):
        e = X[k] - SPEC.x_goal
        want += e @ SPEC.Q @ e
    for k in range(20):
        d = U[k] - SPEC.u_goal
        want += d @ SPEC.R @ d
    assert got == pytest.approx(want, rel=1e-12)


def test_population_costs_match_evaluate_cost():
    # the batch scorer and the single-candidate path must agree
    pop = init_population(SPEC, SCHED, _small_settings(), X0)
    for i in (0, 17, 63):
        assert pop.costs[i] == pytest.approx(
            evaluate_cost(pop.candidates[i], SPEC, SCHED, X0), rel=1e-8, abs=1e-8
        )


def test_condensed_scoring_matches_rollout_with_offsets():
    # non-diagonal Q, full R and a nonzero u_goal exercise every term of the
    # condensed quadratic and of objective_constant
    from knotmpc.empc import _CostModel
    base = _spec()
    spec = MpcSpec(
        base.model, 20, Q=np.array([[10.0, 1.5], [1.5, 0.4]]), R=0.01 * np.eye(1),
        x_goal=base.x_goal, u_goal=np.array([0.7]), u_min=base.u_min, u_max=base.u_max,
    )
    cands = np.random.default_rng(5).uniform(-4.0, 4.0, size=(16, 3, 1))
    got = _CostModel(spec, SCHED, X0)(cands)
    want = [evaluate_cost(c, spec, SCHED, X0) for c in cands]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_result_fields_consistent():
    res = solve_empc(SPEC, SCHED, _small_settings(generations=2), X0)
    assert res.best.shape == (3, 1)
    np.testing.assert_array_equal(res.u, res.best[0])
    assert res.best_cost == pytest.approx(evaluate_cost(res.best, SPEC, SCHED, X0), rel=1e-8)
    assert res.population.generation == 2


def test_long_search_approaches_qp_optimum():
    # with enough generations the search should land within a few percent of
    # the condensed QP solution over the same knot parameterization
    prob = build_small_param(SPEC, SCHED, X0)
    sol = AdmmSolver().solve(prob)
    assert sol.status == "solved"
    opt = sol.objective + objective_constant(SPEC, X0, "small_param")
    s = EmpcSettings(num_sims=256, num_parents=32, generations=120, seed=11)
    res = solve_empc(SPEC, SCHED, s, X0)
    assert res.best_cost <= 1.05 * opt


def test_warm_population_reused():
    s = _small_settings(generations=1)
    first = solve_empc(SPEC, SCHED, s, X0)
    again = solve_empc(SPEC, SCHED, s, X0, prev=first.population)
    assert again.best_cost <= first.best_cost + 1e-12
    assert again.population.generation == first.population.generation + 1


def test_single_knot_schedule():
    sched = KnotSchedule(T=20, p=1)
    res = solve_empc(SPEC, sched, _small_settings(), X0)
    assert res.best.shape == (1, 1)
    assert np.isfinite(res.best_cost)


def test_parents_equal_population_degenerate():
    s = _small_settings(num_sims=8, num_parents=8, generations=2)
    res = solve_empc(SPEC, SCHED, s, X0)
    assert np.isfinite(res.best_cost)


def test_settings_validation():
    with pytest.raises(ValueError):
        EmpcSettings(num_sims=0)
    with pytest.raises(ValueError):
        EmpcSettings(num_parents=100, num_sims=50)
    with pytest.raises(ValueError):
        EmpcSettings(generations=0)
    with pytest.raises(ValueError):
        EmpcSettings(mutation_prob=1.5)
    with pytest.raises(ValueError):
        EmpcSettings(crossover_prob=-0.1)


def test_state_bounded_spec_uses_rollout_scoring():
    # state bounds force the per-candidate rollout path; costs stay exact
    spec = MpcSpec(
        SPEC.model, 20, SPEC.Q, SPEC.R, SPEC.x_goal, SPEC.u_goal,
        SPEC.u_min, SPEC.u_max, x_min=-10.0 * np.ones(2), x_max=10.0 * np.ones(2),
    )
    pop = init_population(spec, SCHED, _small_settings(), X0)
    for i in (0, 31):
        assert pop.costs[i] == pytest.approx(
            evaluate_cost(pop.candidates[i], spec, SCHED, X0), rel=1e-10
        )


def test_infinite_input_bounds_rejected():
    from dataclasses import replace

    warm = solve_empc(SPEC, SCHED, _small_settings(), X0).population
    for lo, hi in ((-np.inf, 4.0), (-4.0, np.inf)):
        spec = replace(SPEC, u_min=np.array([lo]), u_max=np.array([hi]))
        for call in (
            lambda: init_population(spec, SCHED, _small_settings(), X0),
            lambda: solve_empc(spec, SCHED, _small_settings(), X0),
            lambda: solve_empc(spec, SCHED, _small_settings(), X0, prev=warm),
        ):
            with pytest.raises(ValueError, match="finite input bounds"):
                call()
