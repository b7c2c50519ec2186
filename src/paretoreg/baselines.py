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

from ._kernels import ols_batch
from .data import Dataset, EvaluatedModel, ObjectiveVector
from .pareto import Frontier

EXHAUSTIVE_K_LIMIT = 25
_CHUNK = 2048


def _model_from_fit(
    mask: np.ndarray, intercept: float, coefs_dense: np.ndarray, mse: float
) -> EvaluatedModel:
    return EvaluatedModel(
        mask=mask,
        objective=ObjectiveVector(complexity=int(mask.sum()), error=float(mse)),
        intercept=float(intercept),
        coefficients=np.asarray(coefs_dense)[mask],
    )


def _chunked_combinations(k: int, d: int, chunk: int):
    it = itertools.combinations(range(k), d)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        masks = np.zeros((len(block), k), dtype=np.bool_)
        for row, cols in enumerate(block):
            masks[row, list(cols)] = True
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
    fitted in chunks of 2048, which bounds memory at large k.
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

    table: list[EvaluatedModel] = []
    for d in range(d_max + 1):
        best = None
        for masks in _chunked_combinations(k, d, _CHUNK):
            intercepts, coefs, mses, _ = ols_batch(data.X, data.y, masks)
            for i in range(masks.shape[0]):
                cand = (mses[i], masks[i].tobytes())
                if best is None or cand < best[0]:
                    best = (cand, masks[i], intercepts[i], coefs[i])
        (mse, _), mask, intercept, coef = best
        table.append(_model_from_fit(mask, intercept, coef, mse))
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

    @property
    def model_sizes(self) -> tuple[int, ...]:
        return tuple(m.objective.complexity for m in self.steps)


def _fit_one(data: Dataset, mask: np.ndarray) -> EvaluatedModel:
    intercepts, coefs, mses, _ = ols_batch(data.X, data.y, mask[None, :])
    return _model_from_fit(mask, intercepts[0], coefs[0], mses[0])


def _partial_f(sse_small: float, sse_big: float, n: int, small_size: int) -> float:
    """F statistic for adding one variable to a model of ``small_size``.

    Guards: a perfect larger model gives +inf (or 0 if the smaller model
    was already perfect); a non-positive residual degree of freedom gives
    -inf so the step is never accepted.
    """
    df = n - small_size - 2
    if df <= 0:
        return -math.inf
    if sse_big <= 0.0:
        return math.inf if sse_small > 0.0 else 0.0
    return (sse_small - sse_big) / (sse_big / df)


def _step(
    data: Dataset, current: EvaluatedModel, add: bool, threshold: float
) -> EvaluatedModel | None:
    """One partial-F add or drop step away from ``current``.

    With ``add`` every unselected column is tried and the largest
    partial-F is accepted when it exceeds ``threshold``; otherwise every
    selected column is tried for removal and the smallest partial-F is
    accepted when it is below ``threshold``.  Ties go to the lowest
    column index.  Returns the accepted model, or None when no candidate
    exists or none passes.
    """
    n = data.n
    mask = current.mask
    size = int(mask.sum())
    sse = current.objective.error * n
    cols = np.flatnonzero(~mask if add else mask)
    if cols.size == 0:
        return None
    cands = np.repeat(mask[None, :], cols.size, axis=0)
    cands[np.arange(cols.size), cols] = add
    intercepts, coefs, mses, _ = ols_batch(data.X, data.y, cands)
    if add:
        fstats = np.array([_partial_f(sse, e * n, n, size) for e in mses])
        i = int(np.argmax(fstats))
        accepted = fstats[i] > threshold
    else:
        fstats = np.array([_partial_f(e * n, sse, n, size - 1) for e in mses])
        i = int(np.argmin(fstats))
        accepted = fstats[i] < threshold
    if not accepted:
        return None
    return _model_from_fit(cands[i], intercepts[i], coefs[i], mses[i])


def forward_selection(
    data: Dataset, enter_threshold: float = 4.0, max_steps: int | None = None
) -> Trajectory:
    """Forward selection by partial-F.

    Starting from the intercept-only model, repeatedly adds the variable
    with the largest partial-F statistic while that statistic exceeds
    ``enter_threshold``.  Ties go to the lowest column index.
    """
    if enter_threshold < 0:
        raise ValueError(f"enter_threshold must be >= 0, got {enter_threshold}")
    limit = max_steps if max_steps is not None else data.k
    current = _fit_one(data, np.zeros(data.k, dtype=np.bool_))
    steps: list[EvaluatedModel] = []
    while len(steps) < limit:
        accepted = _step(data, current, True, enter_threshold)
        if accepted is None:
            break
        current = accepted
        steps.append(current)
    return Trajectory(method="forward", steps=tuple(steps), final=current)


def _max_rank_start(data: Dataset) -> np.ndarray:
    """Greedy full-rank starting mask for backward elimination.

    The full mask is used when it is not rank deficient; otherwise
    columns are admitted one by one, keeping each column that does not
    introduce rank deficiency.
    """
    full = np.ones(data.k, dtype=np.bool_)
    _, _, _, deficient = ols_batch(data.X, data.y, full[None, :])
    if not deficient[0]:
        return full
    mask = np.zeros(data.k, dtype=np.bool_)
    for j in range(data.k):
        trial = mask.copy()
        trial[j] = True
        _, _, _, deficient = ols_batch(data.X, data.y, trial[None, :])
        if not deficient[0]:
            mask = trial
    return mask


def backward_elimination(
    data: Dataset, exit_threshold: float = 4.0, max_steps: int | None = None
) -> Trajectory:
    """Backward elimination by partial-F.

    Starting from the full model (or the largest numerically full-rank
    subset when the full fit is rank deficient), repeatedly drops the
    variable with the smallest partial-F statistic while that statistic
    is below ``exit_threshold``.
    """
    if exit_threshold < 0:
        raise ValueError(f"exit_threshold must be >= 0, got {exit_threshold}")
    limit = max_steps if max_steps is not None else data.k
    current = _fit_one(data, _max_rank_start(data))
    steps: list[EvaluatedModel] = []
    while len(steps) < limit:
        accepted = _step(data, current, False, exit_threshold)
        if accepted is None:
            break
        current = accepted
        steps.append(current)
    return Trajectory(method="backward", steps=tuple(steps), final=current)


def stepwise_selection(
    data: Dataset,
    enter_threshold: float = 4.0,
    exit_threshold: float = 4.0,
    max_steps: int | None = None,
) -> Trajectory:
    """Forward steps with a backward sweep after each accepted addition.

    ``exit_threshold`` must not exceed ``enter_threshold``; otherwise a
    variable could be dropped immediately after entering and the search
    would cycle.  Every accepted add and drop is recorded as a step.
    """
    if exit_threshold > enter_threshold:
        raise ValueError(
            f"exit_threshold {exit_threshold} must not exceed "
            f"enter_threshold {enter_threshold}"
        )
    limit = max_steps if max_steps is not None else 4 * data.k
    current = _fit_one(data, np.zeros(data.k, dtype=np.bool_))
    steps: list[EvaluatedModel] = []
    while len(steps) < limit:
        accepted = _step(data, current, True, enter_threshold)
        if accepted is None:
            break
        current = accepted
        steps.append(current)
        # backward sweep until nothing else leaves
        while len(steps) < limit:
            accepted = _step(data, current, False, exit_threshold)
            if accepted is None:
                break
            current = accepted
            steps.append(current)
    return Trajectory(method="stepwise", steps=tuple(steps), final=current)
