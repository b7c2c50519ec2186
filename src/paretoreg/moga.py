"""Elitist multi-objective genetic algorithm over variable-selection masks.

The population is a multiset of evaluated masks.  Each iteration:

1. the non-dominated set of the current population is computed;
2. offspring are bred by single-point crossover between one parent drawn
   uniformly from the non-dominated set and one drawn uniformly from the
   whole population, then mutated bitwise;
3. parents and offspring are merged and the merged pool is trimmed back
   to the population size by repeatedly deleting dominated members with
   the highest variable count (environmental selection).

Elitism is implicit: a member is only ever displaced by the trimming
rule, so the best error seen at any represented complexity cannot get
worse from one generation to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, EvaluatedModel
from .objectives import ObjectiveEvaluator, ObjectiveSpec
from .pareto import Frontier, _dominance_matrix, nondominated


@dataclass(frozen=True)
class GAConfig:
    """Run parameters for :func:`run_moga`.

    ``None`` fields fall back to data-dependent defaults at run time:
    population size defaults to the number of predictors K, but at least
    2 (the search needs two members); offspring count defaults to the
    population size and mutation probability to 1/K.  ``complexity_bounds``
    restricts the search to masks whose selected count lies in the given
    closed range; out-of-range masks are repaired by random bit flips
    before evaluation.  ``archive=True`` reports the non-dominated set of
    every model ever evaluated instead of the final population only.
    """

    population_size: int | None = None
    iterations: int = 500
    crossover_prob: float = 0.9
    mutation_prob: float | None = None
    n_offspring: int | None = None
    seed: int = 0
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    complexity_bounds: tuple[int, int] | None = None
    snapshot_every: int | None = None
    archive: bool = False


@dataclass(frozen=True)
class Snapshot:
    """Objective scatter of the population after ``generation`` iterations.

    Generation 0 is the freshly evaluated random initial population.
    """

    generation: int
    complexities: tuple[int, ...]
    errors: tuple[float, ...]


@dataclass(frozen=True)
class MogaResult:
    frontier: Frontier
    snapshots: tuple[Snapshot, ...]
    generations: int
    evaluations: int
    unique_models: int
    population: tuple[EvaluatedModel, ...]


def init_population(n_members: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random initial masks: each bit set with probability 1/2.

    Returns a (n_members, k) boolean array.  Expected selected count per
    member is k/2; no starting guesses are used.
    """
    if n_members < 1 or k < 1:
        raise ValueError(f"need n_members >= 1 and k >= 1, got {n_members}, {k}")
    return rng.random((n_members, k)) < 0.5


def crossover(
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    rng: np.random.Generator,
    crossover_prob: float = 0.9,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-point crossover of two masks.

    With probability ``crossover_prob`` a cut point c is drawn uniformly
    from {1..K-1} and the suffixes from c on are exchanged; otherwise the
    parents are returned unchanged (as copies).  Masks of length < 2 have
    no valid cut point and are always copied through.
    """
    a = np.asarray(parent_a, dtype=np.bool_)
    b = np.asarray(parent_b, dtype=np.bool_)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"parent shapes differ: {a.shape} vs {b.shape}")
    k = a.shape[0]
    if k < 2 or rng.random() >= crossover_prob:
        return a.copy(), b.copy()
    c = int(rng.integers(1, k))
    child_a = np.concatenate((a[:c], b[c:]))
    child_b = np.concatenate((b[:c], a[c:]))
    return child_a, child_b


def mutate(mask: np.ndarray, mutation_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability ``mutation_prob``."""
    mask = np.asarray(mask, dtype=np.bool_)
    if not 0.0 <= mutation_prob <= 1.0:
        raise ValueError(f"mutation_prob must be in [0, 1], got {mutation_prob}")
    flips = rng.random(mask.shape[0]) < mutation_prob
    return mask ^ flips


def repair_bounds(
    mask: np.ndarray, lo: int, hi: int, rng: np.random.Generator
) -> np.ndarray:
    """Force the selected count into [lo, hi] by random single-bit flips."""
    mask = np.asarray(mask, dtype=np.bool_).copy()
    count = int(mask.sum())
    while count > hi:
        on = np.flatnonzero(mask)
        mask[on[rng.integers(on.size)]] = False
        count -= 1
    while count < lo:
        off = np.flatnonzero(~mask)
        mask[off[rng.integers(off.size)]] = True
        count += 1
    return mask


def environmental_selection(
    models: Sequence[EvaluatedModel], n_keep: int
) -> list[EvaluatedModel]:
    """Trim a merged population down to ``n_keep`` members.

    Repeatedly deletes one removable member with the highest complexity
    (ties broken by highest error, then by lexicographically largest
    mask bits).  A member is removable when it is dominated by a live
    member or when it is an extra copy of a mask that is already
    present.  Whenever no member is removable, the member with the
    highest complexity is deleted instead.  Dominance is re-derived
    after each deletion; survivors keep their input order.

    Treating extra copies as removable is what keeps the search stable:
    offspring frequently clone existing members, the clones are never
    dominated, and if they could only displace distinct members the
    highest complexities would leak out of the population one
    generation at a time.  Duplicates still survive when there is room
    for them, which matters when ``n_keep`` exceeds the number of
    distinct masks.
    """
    if len(models) < n_keep:
        raise ValueError(
            f"cannot keep {n_keep} members from a pool of {len(models)}"
        )
    m = len(models)
    phi1 = np.fromiter((x.objective.complexity for x in models), dtype=np.int64)
    phi2 = np.fromiter((x.objective.error for x in models), dtype=np.float64)
    keys = [x.mask_key() for x in models]
    copies: dict[bytes, int] = {}
    for key in keys:
        copies[key] = copies.get(key, 0) + 1
    # Pairwise dominance never changes; removing a dominator just lowers
    # the victim's count, so counts stand in for re-deriving the relation.
    dom = _dominance_matrix(phi1, phi2)
    dom_count = dom.sum(axis=0)
    alive = np.ones(m, dtype=bool)
    n_alive = m
    while n_alive > n_keep:
        candidates = [
            i
            for i in range(m)
            if alive[i] and (dom_count[i] > 0 or copies[keys[i]] > 1)
        ]
        if not candidates:
            candidates = [i for i in range(m) if alive[i]]
        worst = max(candidates, key=lambda i: (phi1[i], phi2[i], keys[i]))
        alive[worst] = False
        copies[keys[worst]] -= 1
        dom_count = dom_count - dom[worst]
        n_alive -= 1
    return [models[i] for i in range(m) if alive[i]]


def run_moga(
    data: Dataset,
    config: GAConfig | None = None,
    progress: Callable[[int, int, float], None] | None = None,
) -> MogaResult:
    """Run the evolutionary frontier search on a dataset.

    Parameters
    ----------
    data : Dataset
        Predictors and response.
    config : GAConfig, optional
        Run parameters; defaults follow the published guidelines
        (population K, crossover 0.9, mutation 1/K, offspring equal to
        the population).  The default population is raised to 2 when
        K = 1.
    progress : callable, optional
        Called after each iteration with (iteration, frontier size,
        best error in the population).

    Returns
    -------
    MogaResult
        Frontier, optional population snapshots, and evaluation counts.
        With ``config.archive`` the frontier covers every model ever
        evaluated; otherwise only the final population, matching the
        published procedure.

    Notes
    -----
    Identical data, config and library versions reproduce the result
    exactly: all randomness flows from one generator seeded with
    ``config.seed``, and evaluation order is fixed.
    """
    config = config or GAConfig()
    k = data.k
    n_pop = (
        config.population_size if config.population_size is not None else max(k, 2)
    )
    n_off = config.n_offspring if config.n_offspring is not None else n_pop
    p_mut = config.mutation_prob if config.mutation_prob is not None else 1.0 / k
    p_cross = config.crossover_prob
    bounds = config.complexity_bounds

    if n_pop < 2:
        raise ValueError(f"population size must be >= 2, got {n_pop}")
    if n_off < 1:
        raise ValueError(f"offspring count must be >= 1, got {n_off}")
    if config.iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {config.iterations}")
    if not 0.0 <= p_cross <= 1.0:
        raise ValueError(f"crossover_prob must be in [0, 1], got {p_cross}")
    if not 0.0 <= p_mut <= 1.0:
        raise ValueError(f"mutation_prob must be in [0, 1], got {p_mut}")
    if bounds is not None:
        lo, hi = bounds
        if not 0 <= lo <= hi <= k:
            raise ValueError(
                f"complexity bounds must satisfy 0 <= lo <= hi <= {k}, got {bounds}"
            )
    if config.snapshot_every is not None and config.snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")

    rng = np.random.default_rng(config.seed)
    evaluator = ObjectiveEvaluator(data, config.objective)

    masks = init_population(n_pop, k, rng)
    if bounds is not None:
        masks = np.stack([repair_bounds(row, lo, hi, rng) for row in masks])
    population = evaluator.evaluate_many(list(masks))

    snapshots: list[Snapshot] = []

    def record(generation: int) -> None:
        snapshots.append(
            Snapshot(
                generation=generation,
                complexities=tuple(m.objective.complexity for m in population),
                errors=tuple(m.objective.error for m in population),
            )
        )

    if config.snapshot_every is not None:
        record(0)

    for iteration in range(1, config.iterations + 1):
        elite = nondominated(population)
        child_masks: list[np.ndarray] = []
        while len(child_masks) < n_off:
            p1 = elite[int(rng.integers(len(elite)))].mask
            p2 = population[int(rng.integers(len(population)))].mask
            c1, c2 = crossover(p1, p2, rng, p_cross)
            child_masks.append(c1)
            if len(child_masks) < n_off:
                child_masks.append(c2)
        child_masks = [mutate(mk, p_mut, rng) for mk in child_masks]
        if bounds is not None:
            child_masks = [repair_bounds(mk, lo, hi, rng) for mk in child_masks]
        offspring = evaluator.evaluate_many(child_masks)
        population = environmental_selection(list(population) + offspring, n_pop)
        if (
            config.snapshot_every is not None
            and iteration % config.snapshot_every == 0
        ):
            record(iteration)
        if progress is not None:
            progress(
                iteration,
                len(nondominated(population)),
                min(m.objective.error for m in population),
            )

    pool = evaluator.archive() if config.archive else population
    frontier = Frontier.from_models(pool)
    return MogaResult(
        frontier=frontier,
        snapshots=tuple(snapshots),
        generations=config.iterations,
        evaluations=evaluator.evaluations,
        unique_models=evaluator.unique_models,
        population=tuple(population),
    )
