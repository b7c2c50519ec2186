"""Elitist multi-objective genetic algorithm over variable-selection masks.

The population is a multiset of evaluated masks.  Each iteration:

1. the non-dominated set of the current population is computed;
2. offspring are bred by single-point crossover between one parent drawn
   uniformly from the non-dominated set and one drawn uniformly from the
   whole population, then mutated bitwise;
3. parents and offspring are merged and the merged pool is trimmed back
   to the population size by deleting dominated members and extra copies
   with the highest variable count first (environmental selection).

Elitism is implicit: a member is only ever displaced by the trimming
rule, so the best error seen at any represented complexity cannot get
worse from one generation to the next.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, EvaluatedModel
from .objectives import ObjectiveEvaluator, ObjectiveSpec
from .pareto import Frontier, nondominated, sweep


@dataclass(frozen=True)
class GAConfig:
    """Run parameters for :func:`run_moga`.

    The defaults follow the published guidelines.  ``None`` fields fall
    back to data-dependent defaults at run time: population size defaults
    to the number of predictors K, but at least 2 (the search needs two
    members); offspring count defaults to the population size and
    mutation probability to 1/K.  ``complexity_bounds`` restricts the
    search to masks whose selected count lies in the given closed range;
    out-of-range masks are repaired by random bit flips before
    evaluation.  ``archive=True`` reports the non-dominated set of every
    model ever evaluated instead of the final population only.

    Construction refuses a value that is out of range whatever the data;
    :func:`run_moga` checks only that the bounds do not exceed K.
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

    def __post_init__(self) -> None:
        least = {"population_size": 2, "n_offspring": 1, "iterations": 1, "snapshot_every": 1}
        for name, low in least.items():
            value = getattr(self, name)
            if value is not None and not (isinstance(value, Integral) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value}")
        for name in ("crossover_prob", "mutation_prob"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        bounds = self.complexity_bounds
        if bounds is not None and bounds[0] > bounds[1]:
            raise ValueError(f"complexity_bounds {bounds} is an empty range")
        if bounds is not None and not all(isinstance(b, Integral) and b >= 0 for b in bounds):
            raise ValueError(f"complexity_bounds must be integers >= 0, got {bounds}")


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
    """What :func:`run_moga` returns.

    ``config`` is the configuration the run used, with the data-dependent
    defaults (population size, offspring count, mutation probability)
    resolved to their values.
    """

    frontier: Frontier
    snapshots: tuple[Snapshot, ...]
    evaluations: int
    unique_models: int
    population: tuple[EvaluatedModel, ...]
    config: GAConfig


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

    The rule: repeatedly delete one removable member with the highest
    key (complexity, then error, then mask bits; among equal keys the
    lowest input index).  A member is removable when a live member
    dominates it or another live member has the same mask.  Whenever no
    member is removable, the member with the highest key is deleted
    instead.  Survivors keep their input order.

    Two sweeps in descending key order apply this rule exactly.  A
    member's dominators all have lower keys, so they are alive when the
    sweep reaches it and its dominated flag is the one from the whole
    pool.  Deletions only lower dominator and copy counts, so a member
    that is not removable when reached never becomes removable later.
    The first sweep therefore deletes every member that is removable
    when reached, and the second trims what is left in the same order.

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
    keys, order, dominated = sweep(models)
    copies = Counter(key[2] for key in keys)
    # reverse=True keeps equal keys in ascending index order
    descending = sorted(order, key=keys.__getitem__, reverse=True)
    alive = [True] * len(models)
    n_alive = len(models)
    for only_removable in (True, False):
        for i in descending:
            if n_alive == n_keep:
                break
            if alive[i] and (
                not only_removable or dominated[i] or copies[keys[i][2]] > 1
            ):
                alive[i] = False
                copies[keys[i][2]] -= 1
                n_alive -= 1
    return [m for m, keep in zip(models, alive) if keep]


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
        Run parameters; :class:`GAConfig` holds their defaults and checks.
    progress : callable, optional
        Called after each iteration with (iteration, frontier size,
        best error in the population).

    Returns
    -------
    MogaResult
        Frontier, optional population snapshots, evaluation counts and
        the resolved configuration.
        With ``config.archive`` the frontier covers every model ever
        evaluated; otherwise only the final population, matching the
        published procedure.

    Notes
    -----
    Identical data, config and library versions reproduce the result
    exactly under the same BLAS thread setting: all randomness flows
    from one generator seeded with ``config.seed``, and evaluation order
    is fixed.  The fitted bits can differ between BLAS thread counts
    (for example ``OPENBLAS_NUM_THREADS=1`` against the default), because
    the Gram products are not yet computed in a fixed order.
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
    if bounds is not None:
        lo, hi = bounds
        if hi > k:
            raise ValueError(f"complexity_bounds must have hi <= K = {k}, got {bounds}")

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
        evaluations=evaluator.evaluations,
        unique_models=evaluator.unique_models,
        population=tuple(population),
        config=replace(
            config, population_size=n_pop, n_offspring=n_off, mutation_prob=p_mut
        ),
    )
