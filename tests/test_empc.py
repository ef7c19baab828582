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


SEED = 7


def _population(monkeypatch, sims, parents):
    """Search with ``sims`` candidates and ``parents`` elites instead of
    ``empc``'s constants, where a test's point needs another size."""
    monkeypatch.setattr(empc, "_NUM_SIMS", sims)
    monkeypatch.setattr(empc, "_NUM_PARENTS", parents)


def _search(spec, generations=1, seed=SEED, x0=X0, prev=None, sched=SCHED):
    """``solve_empc`` as the closed loop runs it: build the knot QP, then search it."""
    return solve_empc(build("small_param", spec, x0, sched), spec, x0, generations, seed, prev=prev)


def _cold(spec, seed=SEED):
    """The cold population: generation 0's uniform draw, scored."""
    return _search(spec, seed=seed).population


def _step(pop, spec, seed=SEED):
    """One generation of ``pop`` at X0."""
    prob = build("small_param", spec, X0, SCHED)
    return _evolve(pop, seed, prob, _coordinate_rows(prob, spec, X0))


def test_same_seed_reproduces_bitwise():
    a = _search(SPEC, generations=3)
    b = _search(SPEC, generations=3)
    np.testing.assert_array_equal(a.best, b.best)
    np.testing.assert_array_equal(a.population.candidates, b.population.candidates)
    assert a.best_cost == b.best_cost


def test_different_seeds_differ():
    a = _search(SPEC, seed=1)
    b = _search(SPEC, seed=2)
    assert not np.array_equal(a.population.candidates, b.population.candidates)


def test_candidates_respect_input_bounds():
    pop = _cold(SPEC)
    assert pop.candidates.shape == (1024, 3, 1)
    assert np.all(pop.candidates >= SPEC.u_min) and np.all(pop.candidates <= SPEC.u_max)
    for _ in range(3):
        pop = _step(pop, SPEC)
        assert np.all(pop.candidates >= SPEC.u_min)
        assert np.all(pop.candidates <= SPEC.u_max)


def test_elitism_never_regresses():
    pop = _cold(SPEC)
    best = np.min(pop.costs)
    for _ in range(5):
        pop = _step(pop, SPEC)
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
    pop = _cold(SPEC)
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
    res = _search(SPEC, generations=2)
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
    res = solve_empc(prob, SPEC, X0, 120, 11)
    assert res.best_cost <= 1.05 * opt


def test_warm_population_reused():
    first = _search(SPEC)
    again = _search(SPEC, prev=first.population)
    assert again.best_cost <= first.best_cost + 1e-12
    assert again.population.generation == first.population.generation + 1


def test_warm_population_from_a_wider_box_is_clamped_into_the_spec_box():
    wide = _search(SPEC, generations=2).population  # searched within +-4
    assert np.any(np.abs(wide.candidates) > 1.0)
    narrow = replace(SPEC, u_min=np.array([-1.0]), u_max=np.array([1.0]))
    res = _search(narrow, generations=2, prev=wide)
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
    res = _search(SPEC, sched=sched)
    assert res.best.shape == (1, 1)
    assert np.isfinite(res.best_cost)


def test_parents_equal_population_degenerate(monkeypatch):
    _population(monkeypatch, sims=8, parents=8)
    res = _search(SPEC, generations=2)
    assert np.isfinite(res.best_cost)


def test_settings_validation():
    for generations in (0, -1):
        with pytest.raises(ValueError, match="generations must be >= 1"):
            _search(SPEC, generations=generations)


def test_infinite_input_bounds_rejected():
    warm = _search(SPEC).population
    for lo, hi in ((-np.inf, 4.0), (-4.0, np.inf)):
        spec = replace(SPEC, u_min=np.array([lo]), u_max=np.array([hi]))
        for call in (
            lambda: _search(spec),
            lambda: _search(spec, prev=warm),
        ):
            with pytest.raises(ValueError, match="finite input bounds"):
                call()


# ---------------------------------------------------------------------------
# one generation: draws, crossover, mutation, clamping


def _replay(pop, seed=SEED):
    """The elites a generation mates and the draws of its stream that pick
    the variation: per child its two parents, then the crossover and the
    mutation bit of each of its coordinates."""
    k = empc._NUM_PARENTS
    order = np.argsort(pop.costs, kind="stable")
    elites = pop.candidates[order[:k]].reshape(k, -1)
    n_children = empc._NUM_SIMS - k
    n = n_children * elites.shape[1]
    rng = _rng(seed, pop.generation)
    parents = rng.integers(0, k, size=(n_children, 2))
    words = rng.bit_generator.random_raw(-(-2 * n // 64))
    bits = np.unpackbits(words.view(np.uint8), count=2 * n, bitorder="little").view(bool)
    crossover, mutated = bits.reshape(2, n_children, -1)
    return elites, parents, crossover, mutated


def test_unmutated_children_come_from_the_parent_their_bit_names():
    pop = _cold(SPEC)
    elites, parents, crossover, mutated = _replay(pop)
    children = _step(pop, SPEC).candidates[64:].reshape(960, 3)
    named = np.where(crossover, elites[parents[:, 1]], elites[parents[:, 0]])
    np.testing.assert_array_equal(children[~mutated], named[~mutated])
    # cold parents lie strictly inside the box, so every mutated one moved
    assert np.all(children[mutated] != named[mutated])


def test_mask_frequencies_are_fair_coins(monkeypatch):
    _population(monkeypatch, sims=4096, parents=64)
    _, _, crossover, mutated = _replay(_cold(SPEC, seed=3), seed=3)
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


def _step_with_bits(pop, seed, crossover_prob, mutation_prob, monkeypatch):
    """One generation whose crossover and mutation bits are set with the
    given probabilities instead of the fair coins, and those masks."""
    n_children = empc._NUM_SIMS - empc._NUM_PARENTS
    shape = (n_children, pop.candidates[0].size)
    masks = np.random.default_rng(11).random((2, *shape)) < np.array([crossover_prob, mutation_prob])[:, None, None]
    monkeypatch.setattr(empc, "_rng", lambda seed, generation: _SetBits(_rng(seed, generation), *masks))
    return _step(pop, SPEC, seed), masks


@pytest.mark.parametrize("crossover_prob", [0.0, 0.5, 1.0])
def test_unmutated_children_come_from_their_drawn_parents(crossover_prob, monkeypatch):
    pop = _cold(SPEC)
    elites, parents, _, _ = _replay(pop)
    nxt, (crossover, _) = _step_with_bits(pop, SEED, crossover_prob, 0.0, monkeypatch)
    children = nxt.candidates[64:].reshape(960, 3)
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
    _population(monkeypatch, sims=4096, parents=64)
    pop = _cold(SPEC, seed=3)
    elites, parents, _, _ = _replay(pop, seed=3)
    nxt, (_, mutated) = _step_with_bits(pop, 3, 0.0, mutation_prob, monkeypatch)
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


def test_unclamped_mutation_steps_have_std_sigma_per_channel(monkeypatch):
    # the goal lies at rms distance 0.1 from X0, so the mutation std is 0.1 of
    # its full scale, 0.02 of each channel's range
    spec, u_min, u_max = _two_channel_spec(X0 + 0.1), _U_MIN, _U_MAX
    sigma = 0.2 * (u_max - u_min) * 0.1
    _population(monkeypatch, sims=4096, parents=64)
    pop = _cold(spec, seed=3)
    elites, parents, crossover, mutated = _replay(pop, seed=3)
    children = _step(pop, spec, seed=3).candidates[64:].reshape(4032, 3, 2)
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
    pop = _cold(spec)
    for _ in range(3):
        pop = _step(pop, spec)
        assert np.all(pop.candidates >= u_min) and np.all(pop.candidates <= u_max)
    children = pop.candidates[64:]
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
    pop = _cold(SPEC)
    whole = _step(pop, SPEC)
    for size in (1, 7, 64, 257):
        monkeypatch.setattr(empc, "_scores", _ChunkedScores(size))
        chunked = _step(pop, SPEC)
        np.testing.assert_array_equal(chunked.candidates, whole.candidates)
        np.testing.assert_allclose(chunked.costs, whole.costs, rtol=1e-13, atol=0)


_SOLVE_IN_FRESH_PROCESS = """
import hashlib, sys
import numpy as np
from knotmpc.condense import MpcSpec, build
from knotmpc.dynamics import DiscreteLinearModel
from knotmpc.empc import solve_empc
from knotmpc.param import KnotSchedule
model = DiscreteLinearModel(np.array([[1.0, 0.02], [-0.4, 0.97]]), np.array([[0.0], [0.05]]), np.zeros(2), 0.02)
spec = MpcSpec(model, 20, np.diag([10.0, 0.1]), 0.01 * np.eye(1), np.array([0.5, 0.0]), -4.0, 4.0)
seed = int(sys.argv[1])
sched, x0, x1 = KnotSchedule(20, 3), np.array([-0.3, 0.1]), np.array([-0.2, 0.1])
res = solve_empc(build("small_param", spec, x0, sched), spec, x0, 3, seed)
res = solve_empc(build("small_param", spec, x1, sched), spec, x1, 3, seed, prev=res.population)
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
