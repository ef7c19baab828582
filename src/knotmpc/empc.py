"""Evolutionary MPC over knot-point trajectories.

``solve_empc`` is the one entry point.  Each candidate is a full set of
knot points (p, m).  One solver call condenses the problem once
(``build_small_param``) and runs ``settings.generations`` generations.  A
generation scores candidates by the condensed quadratic plus its offset,
which equals their tracking cost under the discrete model; the cheapest
``num_parents`` survive unchanged, and the rest of the population is
refilled by parameter-wise crossover of two random parents plus Gaussian
mutation, clamped to the input bounds.  Each child coordinate comes from
its second parent with probability ``_CROSSOVER_PROB`` and is mutated with
probability ``_MUTATION_PROB``; both are fixed at 0.5.  The first knot of
the best candidate is the input to apply.  The input box is the spec's
only constraint, and the search never leaves it.  ``evaluate_cost`` rolls
one candidate out; it is the reference for the condensed scores.

Randomness comes from one SFC64 stream per (seed, generation), keyed by
``SeedSequence(seed, spawn_key=(generation,))``.  Generation 0 draws the
cold uniform population.  Every later generation draws, in this order and
all at the generation barrier: the two parents of each child, one block
of uniforms holding the crossover mask and the mutation mask of every
child coordinate, each compared with its probability, and standard
normals for the mutated coordinates only, in flat (child, knot, channel)
order.  Candidate evaluation itself consumes no randomness, so the draws
are the same no matter how the candidates are scored or batched.  The
costs are per candidate as well, but they come from batched BLAS
products, which can round the last bit differently for another batch
size; ``solve_empc`` scores each population in one call, so a seed's
result is bit-identical across processes and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .condense import MpcSpec, build_small_param
from .dynamics import rollout
from .param import KnotSchedule, interpolation_matrix

_SIGMA_SCALE = 0.2  # base mutation std as a fraction of the input range
_DIST_REF = 1.0  # goal distance at which mutation noise reaches full scale
_CROSSOVER_PROB = 0.5  # chance a child coordinate comes from its second parent
_MUTATION_PROB = 0.5  # chance a child coordinate gets Gaussian noise


@dataclass(frozen=True)
class EmpcSettings:
    """Population shape, search length and seed."""

    num_sims: int = 1024
    num_parents: int = 64
    generations: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.num_sims < 1 or not 1 <= self.num_parents <= self.num_sims:
            raise ValueError("need 1 <= num_parents <= num_sims")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")


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


def _mutation_sigma(spec: MpcSpec, x0: np.ndarray) -> np.ndarray:
    """Per-channel mutation std, shrinking as the state approaches the goal."""
    base = _SIGMA_SCALE * (spec.u_max - spec.u_min)
    # per-coordinate rms distance, so the schedule is state-dimension free
    err = spec.x_goal - np.asarray(x0, float)
    dist = float(np.linalg.norm(err)) / np.sqrt(err.size)
    return base * min(1.0, dist / _DIST_REF)


class _CostModel:
    """Batch candidate scoring for one (spec, schedule, state) triple.

    With a linear model the tracking cost is a fixed quadratic in the knot
    points, so the problem is condensed once per solve and every generation
    is scored with one small matrix product instead of a rollout.  The
    condensing is the QP controller's: one prediction recursion and one
    Gram product give P, q and the ``offset``, the additive constant
    between the condensed objective and the full tracking cost.
    """

    def __init__(self, spec: MpcSpec, sched: KnotSchedule, x0):
        prob = build_small_param(spec, sched, np.asarray(x0, float))
        self.P, self.q, self.offset = prob.P, prob.q, prob.offset

    def __call__(self, cands: np.ndarray) -> np.ndarray:
        Z = cands.reshape(cands.shape[0], -1)
        return np.einsum("ni,ni->n", Z @ self.P, Z) + 2.0 * (Z @ self.q) + self.offset


def evaluate_cost(candidate, spec: MpcSpec, sched: KnotSchedule, x0) -> float:
    """Full tracking cost of one knot candidate, terminal state included,
    from a rollout of the discrete model: the reference for ``_CostModel``."""
    U = interpolation_matrix(sched) @ np.asarray(candidate, float).reshape(sched.p, spec.model.m)
    ex = rollout(spec.model, np.asarray(x0, float), U) - spec.x_goal
    return float(np.einsum("ti,ij,tj->", ex, spec.Q, ex) + np.einsum("ti,ij,tj->", U, spec.R, U))


def _check_searchable(spec: MpcSpec) -> None:
    # candidates are sampled, mutated and clamped within [u_min, u_max]
    if not (np.all(np.isfinite(spec.u_min)) and np.all(np.isfinite(spec.u_max))):
        raise ValueError(f"EMPC needs finite input bounds, got u_min={spec.u_min}, u_max={spec.u_max}")


def _children(
    rng: np.random.Generator, elites: np.ndarray, n_children: int, spec: MpcSpec, settings: EmpcSettings, x0
) -> np.ndarray:
    """Crossover and mutation of the elites (num_parents, p, m), clamped to
    the input bounds.  Its (n_children, p m) temporaries are freed on
    return, before the children are scored."""
    _, p, m = elites.shape
    d = p * m
    # every draw of the generation, in the order the module docstring gives
    first, second = rng.integers(0, settings.num_parents, size=(n_children, 2)).T
    masks = rng.random((2, n_children * d)) < [[_CROSSOVER_PROB], [_MUTATION_PROB]]
    mutated = np.flatnonzero(masks[1])
    noise = np.zeros((n_children, d))
    noise.reshape(-1)[mutated] = rng.standard_normal(mutated.size)

    # crossover: each child coordinate is read from its chosen parent by
    # one gather on the flat elites, pick = first + take_second (second - first)
    pick = masks[0].reshape(n_children, d).astype(np.intp)
    pick *= (second - first)[:, None]
    pick += first[:, None]
    pick *= d
    pick += np.arange(d)
    children = elites.reshape(-1)[pick]
    # mutation: the noise is exactly zero off the mutated coordinates
    noise *= np.tile(_mutation_sigma(spec, x0), p)
    children += noise
    np.minimum(children, np.tile(spec.u_max, p), out=children)
    np.maximum(children, np.tile(spec.u_min, p), out=children)
    return children.reshape(n_children, p, m)


def _evolve(pop: Population, spec: MpcSpec, settings: EmpcSettings, x0, cost: _CostModel) -> Population:
    """One elitist generation at a fixed state x0."""
    order = np.argsort(pop.costs, kind="stable")
    elite_idx = order[: settings.num_parents]
    elites = pop.candidates[elite_idx]
    elite_costs = pop.costs[elite_idx]

    n_children = settings.num_sims - settings.num_parents
    if n_children == 0:
        return Population(elites.copy(), elite_costs.copy(), pop.generation + 1)

    children = _children(_rng(settings.seed, pop.generation), elites, n_children, spec, settings, x0)
    cands = np.concatenate([elites, children])
    costs = np.concatenate([elite_costs, cost(children)])
    return Population(cands, costs, pop.generation + 1)


def solve_empc(
    spec: MpcSpec,
    sched: KnotSchedule,
    settings: EmpcSettings,
    x0,
    prev: Population | None = None,
) -> EmpcResult:
    """Run ``settings.generations`` generations and pick the best candidate.

    Without ``prev`` the first generation is the cold uniform sample; with
    ``prev`` the previous population is re-evaluated at the new state
    before mating, so stale costs never drive selection.
    """
    _check_searchable(spec)
    x0 = np.asarray(x0, float)
    cost = _CostModel(spec, sched, x0)
    if prev is None:
        # cold start: generation 0 draws candidates uniformly within the input bounds
        shape = (settings.num_sims, sched.p, spec.model.m)
        cands = _rng(settings.seed, 0).uniform(spec.u_min, spec.u_max, size=shape)
        pop = Population(cands, cost(cands), generation=1)
        remaining = settings.generations - 1
    else:
        pop = Population(prev.candidates, cost(prev.candidates), prev.generation)
        remaining = settings.generations
    for _ in range(remaining):
        pop = _evolve(pop, spec, settings, x0, cost)
    best = int(np.argmin(pop.costs))
    cand = pop.candidates[best]
    return EmpcResult(cand[0].copy(), cand.copy(), float(pop.costs[best]), pop)
