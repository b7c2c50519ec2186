"""Classical subset-selection baselines.

Exhaustive search reports the best model at every complexity, which is
the ground-truth frontier for small predictor counts.  Forward, backward
and stepwise selection are the textbook partial-F procedures; they return
a single path through model space rather than a frontier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import CHUNK_ELEMENTS, GramStats, is_zero_error, ols_batch
from .data import Dataset, EvaluatedModel
from .pareto import Frontier

EXHAUSTIVE_K_LIMIT = 25


def _chunked_combinations(k: int, d: int, chunk: int):
    it = itertools.combinations(range(k), d)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        masks = np.zeros((len(block), k), dtype=np.bool_)
        cols = np.array(block, dtype=np.intp).reshape(len(block), d)
        masks[np.arange(len(block))[:, None], cols] = True
        yield masks


def best_subset_table(
    data: Dataset,
    max_complexity: int | None = None,
    force: bool = False,
) -> list[EvaluatedModel]:
    """Best in-sample model at every complexity 0..max_complexity.

    Enumerates all masks of each size and keeps the minimum-error one
    (ties go to the lexicographically smallest bit pattern).  Cost grows
    as 2^k, so k above 25 is refused unless ``force=True``.  Masks are
    fitted in chunks whose coefficient block holds at most
    ``CHUNK_ELEMENTS`` entries, which bounds memory at large k.
    """
    k = data.k
    d_max = k if max_complexity is None else max_complexity
    if not 0 <= d_max <= k:
        raise ValueError(f"max_complexity must be in [0, {k}], got {d_max}")
    if k > EXHAUSTIVE_K_LIMIT and not force:
        raise ValueError(
            f"exhaustive search over k={k} predictors needs force=True "
            f"(limit {EXHAUSTIVE_K_LIMIT})"
        )

    stats = GramStats.of(data.X, data.y)
    table: list[EvaluatedModel] = []
    for d in range(d_max + 1):
        best = None
        for masks in _chunked_combinations(k, d, max(1, CHUNK_ELEMENTS // k)):
            intercepts, coefs, mses, _ = ols_batch(data.X, data.y, masks, stats=stats)
            # masks come in descending bit-pattern order, so the last
            # minimum is the smallest mask of the chunk, and a later chunk
            # wins a tie against an earlier one
            i = mses.size - 1 - int(np.argmin(mses[::-1]))
            if best is None or mses[i] <= best[3]:
                best = (masks[i], intercepts[i], coefs[i], mses[i])
        table.append(EvaluatedModel.from_fit(*best))
    return table


def exhaustive_frontier(
    data: Dataset,
    max_complexity: int | None = None,
    force: bool = False,
) -> Frontier:
    """Exact complexity/error frontier from exhaustive enumeration."""
    return Frontier.from_models(best_subset_table(data, max_complexity, force))


@dataclass(frozen=True)
class Trajectory:
    """Path taken by a sequential selection method.

    ``steps`` holds the model after each accepted add or drop, in order;
    the starting model is not included, so a search that accepts nothing
    has an empty trajectory.  ``final`` is the last model examined
    (equal to the start when ``steps`` is empty).
    """

    method: str
    steps: tuple[EvaluatedModel, ...]
    final: EvaluatedModel


def _partial_f(
    sse_small: float, sse_big: float, n: int, small_size: int, sst: float
) -> float:
    """F statistic for adding one variable to a model of ``small_size``.

    Guards: a perfect larger model gives +inf (or 0 if the smaller model
    was already perfect); a non-positive residual degree of freedom gives
    -inf so the step is never accepted.  "Perfect" is the kernel's SSE
    zero floor relative to ``sst``, the total sum of squares about the
    mean.
    """
    df = n - small_size - 2
    if df <= 0:
        return -math.inf
    if is_zero_error(sse_big, n, sst):
        return 0.0 if is_zero_error(sse_small, n, sst) else math.inf
    return (sse_small - sse_big) / (sse_big / df)


def _step(
    data: Dataset,
    stats: GramStats,
    current: EvaluatedModel,
    add: bool,
    threshold: float,
) -> EvaluatedModel | None:
    """One partial-F add or drop step away from ``current``.

    With ``add`` every unselected column is tried and the largest
    partial-F is accepted when it exceeds ``threshold``; otherwise every
    selected column is tried for removal and the smallest partial-F is
    accepted when it is below ``threshold``.  Ties go to the lowest
    column index.  Returns the accepted model, or None when no candidate
    exists or none passes.  ``stats`` is ``GramStats.of(data.X, data.y)``,
    built once per trajectory.
    """
    n = data.n
    mask = current.mask
    size = int(mask.sum())
    sse = current.objective.error * n
    cols = np.flatnonzero(~mask if add else mask)
    if cols.size == 0:
        return None
    sst = float(stats.gram[-1, -1])
    cands = np.repeat(mask[None, :], cols.size, axis=0)
    cands[np.arange(cols.size), cols] = add
    intercepts, coefs, mses, _ = ols_batch(data.X, data.y, cands, stats=stats)
    if add:
        fstats = np.array([_partial_f(sse, e * n, n, size, sst) for e in mses])
        i = int(np.argmax(fstats))
        accepted = fstats[i] > threshold
    else:
        fstats = np.array([_partial_f(e * n, sse, n, size - 1, sst) for e in mses])
        i = int(np.argmin(fstats))
        accepted = fstats[i] < threshold
    if not accepted:
        return None
    return EvaluatedModel.from_fit(cands[i], intercepts[i], coefs[i], mses[i])


def _max_rank_start(data: Dataset, stats: GramStats) -> np.ndarray:
    """Greedy full-rank starting mask for backward elimination.

    The full mask is used when it is not rank deficient; otherwise
    columns are admitted one by one, keeping each column that does not
    introduce rank deficiency.
    """
    full = np.ones(data.k, dtype=np.bool_)
    _, _, _, deficient = ols_batch(data.X, data.y, full[None, :], stats=stats)
    if not deficient[0]:
        return full
    mask = np.zeros(data.k, dtype=np.bool_)
    for j in range(data.k):
        trial = mask.copy()
        trial[j] = True
        _, _, _, deficient = ols_batch(data.X, data.y, trial[None, :], stats=stats)
        if not deficient[0]:
            mask = trial
    return mask


def _select(
    data: Dataset,
    method: str,
    enter_threshold: float | None,
    exit_threshold: float | None,
) -> Trajectory:
    """The partial-F selection loop shared by the three methods.

    A threshold that is set must be >= 0 (NaN is refused), and exit
    must not exceed enter.  With ``enter_threshold`` set the search
    starts from the intercept-only model and each round makes one add
    step, stopping when no variable enters; with ``exit_threshold`` set
    every accepted step is followed by drop steps until none leaves.
    Backward elimination sets only ``exit_threshold``: it starts from
    :func:`_max_rank_start` and stops when no variable leaves.  Each step
    moves the model size by one within 0..K, so only stepwise selection
    can reach the cap of 4K steps.
    """
    for name, threshold in (("enter", enter_threshold), ("exit", exit_threshold)):
        if threshold is not None and not threshold >= 0:
            raise ValueError(f"{name}_threshold must be >= 0, got {threshold}")
    if enter_threshold is not None and exit_threshold is not None:
        if exit_threshold > enter_threshold:
            raise ValueError(
                f"exit_threshold {exit_threshold} must not exceed "
                f"enter_threshold {enter_threshold}"
            )
    stats = GramStats.of(data.X, data.y)
    add = enter_threshold is not None
    start = np.zeros(data.k, dtype=np.bool_) if add else _max_rank_start(data, stats)
    intercepts, coefs, mses, _ = ols_batch(data.X, data.y, start[None, :], stats=stats)
    current = EvaluatedModel.from_fit(start, intercepts[0], coefs[0], mses[0])
    steps: list[EvaluatedModel] = []
    while len(steps) < 4 * data.k:
        threshold = enter_threshold if add else exit_threshold
        accepted = _step(data, stats, current, add, threshold)
        if accepted is not None:
            current = accepted
            steps.append(current)
            add = exit_threshold is None
        elif add or enter_threshold is None:
            break
        else:
            add = True
    return Trajectory(method=method, steps=tuple(steps), final=current)


def forward_selection(data: Dataset, enter_threshold: float = 4.0) -> Trajectory:
    """Forward selection by partial-F.

    Starting from the intercept-only model, repeatedly adds the variable
    with the largest partial-F statistic while that statistic exceeds
    ``enter_threshold``.  Ties go to the lowest column index.
    """
    return _select(data, "forward", enter_threshold, None)


def backward_elimination(data: Dataset, exit_threshold: float = 4.0) -> Trajectory:
    """Backward elimination by partial-F.

    Starting from the full model (or the largest numerically full-rank
    subset when the full fit is rank deficient), repeatedly drops the
    variable with the smallest partial-F statistic while that statistic
    is below ``exit_threshold``.
    """
    return _select(data, "backward", None, exit_threshold)


def stepwise_selection(
    data: Dataset, enter_threshold: float = 4.0, exit_threshold: float = 4.0
) -> Trajectory:
    """Forward steps with a backward sweep after each accepted addition.

    ``exit_threshold`` must not exceed ``enter_threshold``; otherwise a
    variable could be dropped immediately after entering and the search
    would cycle.  Every accepted add and drop is recorded as a step.
    """
    return _select(data, "stepwise", enter_threshold, exit_threshold)
