"""Evolutionary MPC over knot-point trajectories.

``solve_empc`` is the one entry point.  It searches the problem its caller
built: the condensed knot QP (``BoxQp``) that ``build("small_param", ...)``
returns for the QP controllers too.  Each candidate is a full set of knot
points (p, m), and one solver call runs the caller's number of
generations over a population of ``_NUM_SIMS`` candidates.  A generation
scores candidates by the problem's quadratic plus its offset, which equals
their tracking cost under the discrete model; the cheapest ``_NUM_PARENTS``
survive unchanged, and the rest of the population is refilled by
parameter-wise crossover of two random parents plus Gaussian mutation,
clamped to the problem's box.  Each child coordinate comes from its
second parent, and is mutated, on a fair coin each: one random bit.  The
first knot of the best candidate is the input to apply.  The box is the problem's only constraint, and the search never
leaves it: a warm population is clamped into it before scoring, and a
child coordinate can leave it only where mutated, so only those are
clamped.  ``evaluate_cost`` rolls one candidate out; it is the reference
for the scores.

Randomness comes from one SFC64 stream per (seed, generation), keyed by
``SeedSequence(seed, spawn_key=(generation,))``.  Generation 0 draws the
cold uniform population.  Every later generation of n children with d
coordinates each draws, in this order and all at the generation barrier:
the two parents of each child; ceil(2 n d / 64) raw words of the bit
generator, unpacked with ``np.unpackbits(..., bitorder="little")`` into
n d crossover bits (set: from the second parent), then n d mutation bits,
both in flat (child, knot, channel) order; and standard normals for the
mutated coordinates only, in the same order.  Candidate evaluation itself
consumes no randomness, so the draws are the same no matter how the
candidates are scored or batched.  The costs are per candidate as well,
but they come from batched BLAS products, which can round the last bit
differently for another batch size; ``solve_empc`` scores each population
in one call, so a seed's result is bit-identical across processes and
worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .condense import MpcSpec
from .condense import build_small_param  # noqa: F401  uncalled; perfbench/spans.py patches this name
from .dynamics import rollout
from .param import KnotSchedule, interpolation_matrix
from .qp import BoxQp

_SIGMA_SCALE = 0.2  # base mutation std as a fraction of the input range
_DIST_REF = 1.0  # goal distance at which mutation noise reaches full scale
_NUM_SIMS = 1024  # candidates per generation
_NUM_PARENTS = 64  # elites that survive each generation and parent the rest


@dataclass
class Population:
    """Current candidates, their costs, and the RNG generation counter."""

    candidates: np.ndarray  # (num_sims, p, m)
    costs: np.ndarray  # (num_sims,)
    generation: int


@dataclass
class EmpcResult:
    u: np.ndarray  # input to apply now (first knot of the best candidate)
    best: np.ndarray  # best candidate, (p, m)
    best_cost: float
    population: Population


def _rng(seed: int, generation: int) -> np.random.Generator:
    key = np.random.SeedSequence(entropy=seed, spawn_key=(generation,))
    return np.random.Generator(np.random.SFC64(key))


def _coordinate_rows(prob: BoxQp, spec: MpcSpec, x0) -> list[np.ndarray]:
    """Mutation std, lower and upper bound of each of a candidate's p m
    coordinates.  The std shrinks as the state approaches the goal."""
    # per-coordinate rms distance, so the schedule is state-dimension free
    err = spec.x_goal - np.asarray(x0, float)
    dist = float(np.linalg.norm(err)) / np.sqrt(err.size)
    sigma = _SIGMA_SCALE * (prob.ub - prob.lb) * min(1.0, dist / _DIST_REF)
    return [sigma, prob.lb, prob.ub]


def _scores(prob: BoxQp, cands: np.ndarray) -> np.ndarray:
    """Tracking cost of each candidate: with a linear model it is the
    condensed quadratic in the knot points plus the problem's offset, so a
    whole population is scored with one small matrix product instead of
    rollouts."""
    Z = cands.reshape(len(cands), prob.q.size)
    return np.einsum("ni,ni->n", Z @ prob.P, Z) + 2.0 * (Z @ prob.q) + prob.offset


def evaluate_cost(candidate, spec: MpcSpec, sched: KnotSchedule, x0) -> float:
    """Full tracking cost of one knot candidate, terminal state included,
    from a rollout of the discrete model: the reference for ``_scores``."""
    U = interpolation_matrix(sched) @ np.asarray(candidate, float).reshape(sched.p, spec.model.m)
    ex = rollout(spec.model, np.asarray(x0, float), U) - spec.x_goal
    return float(np.einsum("ti,ij,tj->", ex, spec.Q, ex) + np.einsum("ti,ij,tj->", U, spec.R, U))


def _elite_order(costs: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(costs, kind="stable")[:k]`` without sorting every cost:
    all costs below the k-th smallest, the ties at it in index order, then a
    stable sort of those k.  A non-finite cut takes the full sort."""
    cut = np.partition(costs, k - 1)[k - 1]
    if not np.isfinite(cut):
        return np.argsort(costs, kind="stable")[:k]
    keep = costs < cut
    keep[np.flatnonzero(costs == cut)[: k - np.count_nonzero(keep)]] = True
    idx = np.flatnonzero(keep)
    return idx[np.argsort(costs[idx], kind="stable")]


def _children(rng: np.random.Generator, elites: np.ndarray, n_sims: int, rows) -> np.ndarray:
    """The next flat population (n_sims, d): the flat elites (k, d), then
    their children by crossover and mutation.  ``rows`` holds the mutation
    std and the bounds of each coordinate (``_coordinate_rows``)."""
    k, d = elites.shape
    n_children = n_sims - k
    n = n_children * d
    # every draw of the generation, in the order the module docstring gives
    first, second = rng.integers(0, k, size=(n_children, 2)).T
    words = rng.bit_generator.random_raw(-(-2 * n // 64))
    bits = np.unpackbits(words.view(np.uint8), count=2 * n, bitorder="little").view(bool)
    mutated = np.flatnonzero(bits[n:])
    step = rng.standard_normal(mutated.size)
    # crossover: one gather from the flat elites; every index is in range, so mode="clip" only unbuffers out
    pick = bits[:n].reshape(n_children, d) * ((second - first) * d)[:, None]
    pick += (first * d)[:, None]
    pick += np.arange(d)
    flat = np.empty((n_sims, d))  # after pick, so the heap reuses the temporaries below it instead of trimming
    flat[:k] = elites
    np.take(elites, pick, out=flat[k:], mode="clip")
    # mutation: the elites lie in the box, so only mutated coordinates can leave it
    coordinate = np.remainder(mutated, d, dtype=np.int32, casting="unsafe")  # indices stay far below 2**31
    sigma, lo, hi = (row.take(coordinate) for row in rows)
    out = flat[k:].reshape(-1)
    step *= sigma
    step += out.take(mutated)
    out[mutated] = np.minimum(np.maximum(step, lo, out=step), hi, out=step)
    return flat


def _evolve(pop: Population, seed: int, prob: BoxQp, rows) -> Population:
    """One elitist generation: the ``_NUM_PARENTS`` cheapest candidates
    survive unchanged and their children fill the rest of the population."""
    k, n_sims = _NUM_PARENTS, _NUM_SIMS
    elite_idx = _elite_order(pop.costs, k)
    elites = pop.candidates.reshape(pop.costs.size, -1)[elite_idx]
    flat = _children(_rng(seed, pop.generation), elites, n_sims, rows)
    cands = flat.reshape(n_sims, *pop.candidates.shape[1:])
    costs = np.concatenate([pop.costs[elite_idx], _scores(prob, cands[k:])])
    return Population(cands, costs, pop.generation + 1)


def solve_empc(
    prob: BoxQp, spec: MpcSpec, x0, generations: int, seed: int, prev: Population | None = None
) -> EmpcResult:
    """Search ``prob``, the condensed knot QP of ``spec`` at state ``x0``,
    for ``generations`` generations drawn from ``seed``'s streams and pick
    the best candidate.

    The candidates are scored by ``prob`` and kept in its box, which must be
    finite; ``spec`` gives the input width m and the goal that scales the
    mutation.  Without ``prev`` the first generation is the cold uniform
    sample; with ``prev`` the previous candidates are clamped into this box
    and re-evaluated at the new state before mating, so stale costs never
    drive selection.
    """
    if generations < 1:
        raise ValueError(f"generations must be >= 1, got {generations}")
    # candidates are sampled, mutated and clamped within [lb, ub]
    if not (np.all(np.isfinite(prob.lb)) and np.all(np.isfinite(prob.ub))):
        raise ValueError(f"EMPC needs finite input bounds, got lb={prob.lb}, ub={prob.ub}")
    rows = _coordinate_rows(prob, spec, x0)  # mutation std, lower and upper bound
    if prev is None:
        # cold start: generation 0 draws candidates uniformly within the box
        flat = _rng(seed, 0).uniform(prob.lb, prob.ub, size=(_NUM_SIMS, prob.q.size))
        cands = flat.reshape(_NUM_SIMS, -1, spec.model.m)
        pop = Population(cands, _scores(prob, cands), generation=1)
        remaining = generations - 1
    else:
        # a population searched under other bounds is pulled into this box
        flat = np.maximum(prev.candidates.reshape(-1, prob.q.size), prob.lb)
        cands = np.minimum(flat, prob.ub, out=flat).reshape(prev.candidates.shape)
        pop = Population(cands, _scores(prob, cands), prev.generation)
        remaining = generations
    for _ in range(remaining):
        pop = _evolve(pop, seed, prob, rows)
    best = int(np.argmin(pop.costs))
    cand = pop.candidates[best]
    return EmpcResult(cand[0].copy(), cand.copy(), float(pop.costs[best]), pop)
