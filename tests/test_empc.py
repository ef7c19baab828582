"""Tests for the evolutionary knot-point search."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import knotmpc
from knotmpc import empc
from knotmpc.condense import MpcSpec, build
from knotmpc.dynamics import DiscreteLinearModel, rollout
from knotmpc.empc import (
    EmpcSettings,
    _coordinate_rows,
    _elite_order,
    _evolve,
    _rng,
    _scores,
    evaluate_cost,
    solve_empc,
)
from knotmpc.param import KnotSchedule, interpolation_matrix
from knotmpc.qp import AdmmSolver


def _spec(T=20, seed=0):
    rng = np.random.default_rng(seed)
    Ad = np.array([[1.0, 0.02], [-0.4, 0.97]])
    Bd = np.array([[0.0], [0.05]])
    model = DiscreteLinearModel(Ad, Bd, np.zeros(2), 0.02)
    return MpcSpec(
        model, T, Q=np.diag([10.0, 0.1]), R=0.01 * np.eye(1),
        x_goal=np.array([0.5, 0.0]),
        u_min=-np.array([4.0]), u_max=np.array([4.0]),
    )


SPEC = _spec()
SCHED = KnotSchedule(T=20, p=3)
X0 = np.array([-0.3, 0.1])


def _small_settings(**kw):
    base = dict(num_sims=64, num_parents=8, seed=7)
    base.update(kw)
    return EmpcSettings(**base)


def _search(spec, settings, x0=X0, prev=None, sched=SCHED):
    """``solve_empc`` as the closed loop runs it: build the knot QP, then search it."""
    return solve_empc(build("small_param", spec, x0, sched), spec, settings, x0, prev=prev)


def _cold(spec, settings):
    """The cold population: generation 0's uniform draw, scored."""
    return _search(spec, replace(settings, generations=1)).population


def _step(pop, spec, settings):
    """One generation of ``pop`` at X0."""
    prob = build("small_param", spec, X0, SCHED)
    return _evolve(pop, settings, prob, _coordinate_rows(prob, spec, X0))


def test_same_seed_reproduces_bitwise():
    s = _small_settings(generations=3)
    a = _search(SPEC, s)
    b = _search(SPEC, s)
    np.testing.assert_array_equal(a.best, b.best)
    np.testing.assert_array_equal(a.population.candidates, b.population.candidates)
    assert a.best_cost == b.best_cost


def test_different_seeds_differ():
    a = _search(SPEC, _small_settings(seed=1))
    b = _search(SPEC, _small_settings(seed=2))
    assert not np.array_equal(a.population.candidates, b.population.candidates)


def test_candidates_respect_input_bounds():
    s = _small_settings(generations=4)
    pop = _cold(SPEC, s)
    assert pop.candidates.shape == (64, 3, 1)
    assert np.all(pop.candidates >= SPEC.u_min) and np.all(pop.candidates <= SPEC.u_max)
    for _ in range(3):
        pop = _step(pop, SPEC, s)
        assert np.all(pop.candidates >= SPEC.u_min)
        assert np.all(pop.candidates <= SPEC.u_max)


def test_elitism_never_regresses():
    s = _small_settings()
    pop = _cold(SPEC, s)
    best = np.min(pop.costs)
    for _ in range(5):
        pop = _step(pop, SPEC, s)
        new_best = np.min(pop.costs)
        assert new_best <= best + 1e-12
        best = new_best


def test_evaluate_cost_matches_manual_rollout():
    rng = np.random.default_rng(3)
    cand = rng.uniform(-4.0, 4.0, size=(3, 1))
    got = evaluate_cost(cand, SPEC, SCHED, X0)
    U = interpolation_matrix(SCHED) @ cand
    X = rollout(SPEC.model, X0, U)
    want = 0.0
    for k in range(21):
        e = X[k] - SPEC.x_goal
        want += e @ SPEC.Q @ e
    for k in range(20):
        want += U[k] @ SPEC.R @ U[k]
    assert got == pytest.approx(want, rel=1e-12)


def test_population_costs_match_evaluate_cost():
    # the batch scorer and the single-candidate path must agree
    pop = _cold(SPEC, _small_settings())
    for i in (0, 17, 63):
        assert pop.costs[i] == pytest.approx(
            evaluate_cost(pop.candidates[i], SPEC, SCHED, X0), rel=1e-8, abs=1e-8
        )


def test_condensed_scoring_matches_rollout_with_offsets():
    # non-diagonal Q, full R and a nonzero x_goal exercise every term of the
    # condensed quadratic and of the problem's offset
    base = _spec()
    spec = MpcSpec(
        base.model, 20, Q=np.array([[10.0, 1.5], [1.5, 0.4]]), R=0.01 * np.eye(1),
        x_goal=base.x_goal, u_min=base.u_min, u_max=base.u_max,
    )
    cands = np.random.default_rng(5).uniform(-4.0, 4.0, size=(16, 3, 1))
    got = _scores(build("small_param", spec, X0, SCHED), cands)
    want = [evaluate_cost(c, spec, SCHED, X0) for c in cands]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_result_fields_consistent():
    res = _search(SPEC, _small_settings(generations=2))
    assert res.best.shape == (3, 1)
    np.testing.assert_array_equal(res.u, res.best[0])
    assert res.best_cost == pytest.approx(evaluate_cost(res.best, SPEC, SCHED, X0), rel=1e-8)
    assert res.population.generation == 2


def test_long_search_approaches_qp_optimum():
    # with enough generations the search should land within a few percent of
    # the condensed QP solution over the same knot parameterization
    prob = build("small_param", SPEC, X0, SCHED)
    sol = AdmmSolver().solve(prob)
    assert sol.status == "solved"
    opt = sol.objective + prob.offset
    s = EmpcSettings(num_sims=256, num_parents=32, generations=120, seed=11)
    res = solve_empc(prob, SPEC, s, X0)
    assert res.best_cost <= 1.05 * opt


def test_warm_population_reused():
    s = _small_settings(generations=1)
    first = _search(SPEC, s)
    again = _search(SPEC, s, prev=first.population)
    assert again.best_cost <= first.best_cost + 1e-12
    assert again.population.generation == first.population.generation + 1


def test_warm_population_from_a_wider_box_is_clamped_into_the_spec_box():
    s = _small_settings(generations=2)
    wide = _search(SPEC, s).population  # searched within +-4
    assert np.any(np.abs(wide.candidates) > 1.0)
    narrow = replace(SPEC, u_min=np.array([-1.0]), u_max=np.array([1.0]))
    res = _search(narrow, s, prev=wide)
    for arr in (res.u, res.best, res.population.candidates):
        assert np.all(arr >= -1.0) and np.all(arr <= 1.0)
    assert res.best_cost == pytest.approx(evaluate_cost(res.best, narrow, SCHED, X0), rel=1e-8)


_TIE_RNG = np.random.default_rng(17)


@pytest.mark.parametrize(
    "costs",
    [
        _TIE_RNG.standard_normal(1024),
        _TIE_RNG.integers(0, 5, 1024).astype(float),  # heavy ties, also at the cut
        np.array([3.0, 1.0, 3.0, 3.0, 0.0, 3.0, 1.0, 3.0]),
        np.where(_TIE_RNG.random(1024) < 0.05, np.nan, _TIE_RNG.standard_normal(1024)),  # NaNs past the cut
        np.where(_TIE_RNG.random(1024) < 0.97, np.inf, _TIE_RNG.integers(-2, 2, 1024)),  # cut at inf
        np.where(_TIE_RNG.random(1024) < 0.97, np.nan, -np.inf),  # cut at NaN
    ],
    ids=["random", "integer-ties", "small-ties", "nan-past-cut", "inf-cut", "nan-cut"],
)
def test_elite_cut_equals_stable_argsort(costs):
    for k in sorted({1, 3, min(64, costs.size), costs.size // 2, costs.size}):
        np.testing.assert_array_equal(_elite_order(costs, k), np.argsort(costs, kind="stable")[:k])


def test_single_knot_schedule():
    sched = KnotSchedule(T=20, p=1)
    res = _search(SPEC, _small_settings(), sched=sched)
    assert res.best.shape == (1, 1)
    assert np.isfinite(res.best_cost)


def test_parents_equal_population_degenerate():
    s = _small_settings(num_sims=8, num_parents=8, generations=2)
    res = _search(SPEC, s)
    assert np.isfinite(res.best_cost)


def test_settings_validation():
    with pytest.raises(ValueError):
        EmpcSettings(num_sims=0)
    with pytest.raises(ValueError):
        EmpcSettings(num_parents=100, num_sims=50)
    with pytest.raises(ValueError):
        EmpcSettings(generations=0)


def test_infinite_input_bounds_rejected():
    warm = _search(SPEC, _small_settings()).population
    for lo, hi in ((-np.inf, 4.0), (-4.0, np.inf)):
        spec = replace(SPEC, u_min=np.array([lo]), u_max=np.array([hi]))
        for call in (
            lambda: _search(spec, _small_settings()),
            lambda: _search(spec, _small_settings(), prev=warm),
        ):
            with pytest.raises(ValueError, match="finite input bounds"):
                call()


# ---------------------------------------------------------------------------
# one generation: draws, crossover, mutation, clamping


def _replay(pop, settings):
    """The elites a generation mates and the draws of its stream that pick
    the variation: per child its two parents, then the crossover and the
    mutation bit of each of its coordinates."""
    order = np.argsort(pop.costs, kind="stable")
    elites = pop.candidates[order[: settings.num_parents]].reshape(settings.num_parents, -1)
    n_children = settings.num_sims - settings.num_parents
    n = n_children * elites.shape[1]
    rng = _rng(settings.seed, pop.generation)
    parents = rng.integers(0, settings.num_parents, size=(n_children, 2))
    words = rng.bit_generator.random_raw(-(-2 * n // 64))
    bits = np.unpackbits(words.view(np.uint8), count=2 * n, bitorder="little").view(bool)
    crossover, mutated = bits.reshape(2, n_children, -1)
    return elites, parents, crossover, mutated


def test_unmutated_children_come_from_the_parent_their_bit_names():
    s = _small_settings(num_sims=512, num_parents=16)
    pop = _cold(SPEC, s)
    elites, parents, crossover, mutated = _replay(pop, s)
    children = _step(pop, SPEC, s).candidates[16:].reshape(496, 3)
    named = np.where(crossover, elites[parents[:, 1]], elites[parents[:, 0]])
    np.testing.assert_array_equal(children[~mutated], named[~mutated])
    # cold parents lie strictly inside the box, so every mutated one moved
    assert np.all(children[mutated] != named[mutated])


def test_mask_frequencies_are_fair_coins():
    s = EmpcSettings(num_sims=4096, num_parents=64, seed=3)
    _, _, crossover, mutated = _replay(_cold(SPEC, s), s)
    for mask in (crossover, mutated):
        n = mask.size
        assert abs(np.count_nonzero(mask) - n / 2) < 5.0 * np.sqrt(n / 4)


class _SetBits:
    """A generation's stream whose raw words carry given crossover and
    mutation masks; the parent and normal draws are the real stream's."""

    def __init__(self, rng, crossover, mutated):
        self._rng = rng
        self.bit_generator = self
        self._bits = np.concatenate([crossover.ravel(), mutated.ravel()])

    def integers(self, *args, **kw):
        return self._rng.integers(*args, **kw)

    def standard_normal(self, *args, **kw):
        return self._rng.standard_normal(*args, **kw)

    def random_raw(self, count):
        packed = np.zeros(8 * count, np.uint8)
        packed[: -(-self._bits.size // 8)] = np.packbits(self._bits, bitorder="little")
        return packed.view(np.uint64)


def _step_with_bits(pop, settings, crossover_prob, mutation_prob, monkeypatch):
    """One generation whose crossover and mutation bits are set with the
    given probabilities instead of the fair coins, and those masks."""
    n_children = settings.num_sims - settings.num_parents
    shape = (n_children, pop.candidates[0].size)
    masks = np.random.default_rng(11).random((2, *shape)) < np.array([crossover_prob, mutation_prob])[:, None, None]
    monkeypatch.setattr(empc, "_rng", lambda seed, generation: _SetBits(_rng(seed, generation), *masks))
    return _step(pop, SPEC, settings), masks


@pytest.mark.parametrize("crossover_prob", [0.0, 0.5, 1.0])
def test_unmutated_children_come_from_their_drawn_parents(crossover_prob, monkeypatch):
    s = _small_settings(num_sims=512, num_parents=16)
    pop = _cold(SPEC, s)
    elites, parents, _, _ = _replay(pop, s)
    nxt, (crossover, _) = _step_with_bits(pop, s, crossover_prob, 0.0, monkeypatch)
    children = nxt.candidates[16:].reshape(496, 3)
    first, second = elites[parents[:, 0]], elites[parents[:, 1]]
    np.testing.assert_array_equal(children, np.where(crossover, second, first))
    if crossover_prob == 0.0:
        np.testing.assert_array_equal(children, first)
    elif crossover_prob == 1.0:
        np.testing.assert_array_equal(children, second)
    else:
        assert np.any(children != first) and np.any(children != second)


@pytest.mark.parametrize("mutation_prob", [0.1, 0.5, 0.9])
def test_mutated_fraction_matches_mutation_prob(mutation_prob, monkeypatch):
    # with crossover off every child starts as its first parent, so the
    # changed coordinates are exactly the mutated ones (a parent drawn
    # uniformly inside the box is never exactly at a bound)
    s = EmpcSettings(num_sims=4096, num_parents=64, seed=3)
    pop = _cold(SPEC, s)
    elites, parents, _, _ = _replay(pop, s)
    nxt, (_, mutated) = _step_with_bits(pop, s, 0.0, mutation_prob, monkeypatch)
    changed = nxt.candidates[64:].reshape(-1, 3) != elites[parents[:, 0]]
    np.testing.assert_array_equal(changed, mutated)
    n = changed.size
    sd = np.sqrt(n * mutation_prob * (1.0 - mutation_prob))
    assert abs(np.count_nonzero(changed) - n * mutation_prob) < 5.0 * sd


_U_MIN, _U_MAX = np.array([-300.0, 10.0]), np.array([500.0, 12.0])


def _two_channel_spec(x_goal):
    """A two-input spec whose channels have different bounds, so a mixed-up
    channel shows."""
    Ad = np.array([[1.0, 0.02], [-0.4, 0.97]])
    Bd = np.array([[0.01, 0.0], [0.05, -0.03]])
    model = DiscreteLinearModel(Ad, Bd, np.zeros(2), 0.02)
    return MpcSpec(model, 20, Q=np.eye(2), R=0.01 * np.eye(2), x_goal=x_goal, u_min=_U_MIN, u_max=_U_MAX)


def test_unclamped_mutation_steps_have_std_sigma_per_channel():
    # the goal lies at rms distance 0.1 from X0, so the mutation std is 0.1 of
    # its full scale, 0.02 of each channel's range
    spec, u_min, u_max = _two_channel_spec(X0 + 0.1), _U_MIN, _U_MAX
    sigma = 0.2 * (u_max - u_min) * 0.1
    s = EmpcSettings(num_sims=4096, num_parents=64, seed=3)
    pop = _cold(spec, s)
    elites, parents, crossover, mutated = _replay(pop, s)
    children = _step(pop, spec, s).candidates[64:].reshape(4032, 3, 2)
    named = np.where(crossover, elites[parents[:, 1]], elites[parents[:, 0]]).reshape(4032, 3, 2)
    # a parent 6 std inside the box is clamped with probability ~1e-9, and
    # which parent that is does not depend on the step
    inner = (named - u_min > 6.0 * sigma) & (u_max - named > 6.0 * sigma)
    for c in range(2):
        steps = (children - named)[..., c][mutated.reshape(4032, 3, 2)[..., c] & inner[..., c]]
        n = steps.size
        assert n > 2000
        # a sample std has standard error sigma / sqrt(2 n); allow 5 of them
        assert abs(steps.std() / sigma[c] - 1.0) < 5.0 / np.sqrt(2 * n)
        assert abs(steps.mean()) < 5.0 * sigma[c] / np.sqrt(n)


def test_full_scale_mutation_stays_in_per_channel_bounds():
    # far from the goal the mutation std is its full 0.2 of each channel's
    # range, so many children leave the box and must be clamped back
    spec, u_min, u_max = _two_channel_spec(np.array([50.0, 0.0])), _U_MIN, _U_MAX
    s = _small_settings(num_sims=512, num_parents=16)
    pop = _cold(spec, s)
    for _ in range(3):
        pop = _step(pop, spec, s)
        assert np.all(pop.candidates >= u_min) and np.all(pop.candidates <= u_max)
    children = pop.candidates[16:]
    for bound in (u_min, u_max):
        assert np.all(np.any(children == bound, axis=(0, 1)))


class _ChunkedScores:
    """Scores candidates in fixed-size chunks, as a parallel evaluator would."""

    def __init__(self, size):
        self.size = size

    def __call__(self, prob, cands):
        return np.concatenate([_scores(prob, cands[i : i + self.size]) for i in range(0, len(cands), self.size)])


def test_chunked_scoring_changes_no_draw(monkeypatch):
    # scoring consumes no randomness, so a generation scored in chunks makes
    # byte-identical candidates; the costs come from batched BLAS products,
    # which may round differently for another batch size, so they agree to
    # a few ulps
    s = _small_settings(num_sims=300, num_parents=20)
    pop = _cold(SPEC, s)
    whole = _step(pop, SPEC, s)
    for size in (1, 7, 64, 257):
        monkeypatch.setattr(empc, "_scores", _ChunkedScores(size))
        chunked = _step(pop, SPEC, s)
        np.testing.assert_array_equal(chunked.candidates, whole.candidates)
        np.testing.assert_allclose(chunked.costs, whole.costs, rtol=1e-13, atol=0)


_SOLVE_IN_FRESH_PROCESS = """
import hashlib, sys
import numpy as np
from knotmpc.condense import MpcSpec, build
from knotmpc.dynamics import DiscreteLinearModel
from knotmpc.empc import EmpcSettings, solve_empc
from knotmpc.param import KnotSchedule
model = DiscreteLinearModel(np.array([[1.0, 0.02], [-0.4, 0.97]]), np.array([[0.0], [0.05]]), np.zeros(2), 0.02)
spec = MpcSpec(model, 20, np.diag([10.0, 0.1]), 0.01 * np.eye(1), np.array([0.5, 0.0]), -4.0, 4.0)
settings = EmpcSettings(num_sims=256, num_parents=16, generations=3, seed=int(sys.argv[1]))
sched, x0, x1 = KnotSchedule(20, 3), np.array([-0.3, 0.1]), np.array([-0.2, 0.1])
res = solve_empc(build("small_param", spec, x0, sched), spec, settings, x0)
res = solve_empc(build("small_param", spec, x1, sched), spec, settings, x1, prev=res.population)
print(hashlib.sha256(res.population.candidates.tobytes()).hexdigest(), res.best_cost.hex())
"""


def test_fresh_processes_reproduce_bytes():
    src = str(Path(knotmpc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outs = [
        subprocess.run(
            [sys.executable, "-c", _SOLVE_IN_FRESH_PROCESS, seed], capture_output=True, text=True, env=env, check=True
        ).stdout
        for seed in ("5", "5", "6")
    ]
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]
