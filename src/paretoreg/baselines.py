"""Classical subset-selection baselines.

Best-subset search reports the best model at every complexity, found by
branch and bound but exactly as full enumeration would; it is the
ground-truth frontier for small predictor counts.  Forward, backward
and stepwise selection are the textbook partial-F procedures; they return
a single path through model space rather than a frontier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import GramStats, chunk_size, drop_scores, ols_batch, zero_floor
from .data import Dataset, EvaluatedModel
from .pareto import Frontier

EXHAUSTIVE_K_LIMIT = 25

# Relative margin of the bound tests in best_subset_table.  A score is
# an RSS that ols_batch computes, an RSS from a refined residual on the
# Gram path (ols_batch's own arithmetic, good to a few eps relative or to
# rounding far below the SSE zero floor), or such an RSS plus one drop
# increment beta_j^2 / [G^-1]_jj.  The increment comes from a system that
# passed the fallback rule: beta_j is refined and [G^-1]_jj is not, so the
# increment, which is at most the child's RSS, carries the unrefined
# factor's forward error, about GRAM_COND_MAX * eps ~ 2.2e-10 of it (the
# largest seen against ols_batch, over 2,000 random systems near that
# limit, was 2.4e-10).  A bound test weighs two scores, each at most one
# drop step from ols_batch's RSS, so 1e-9 covers both errors and
# ols_batch's own.  The SSE zero floor, added to every bound, keeps tied
# every mask that ols_batch reports at 0.0.
_MARGIN = 1e-9


def best_subset_table(
    data: Dataset,
    max_complexity: int | None = None,
    force: bool = False,
) -> list[EvaluatedModel]:
    """Best in-sample model at every complexity 0..max_complexity.

    The lowest-error mask of each size wins, and a tie goes to the
    lexicographically smallest bit pattern, exactly as if every mask were
    fitted.  The search is Furnival & Wilson's branch and bound
    ("Regressions by leaps and bounds", *Technometrics* 16:499-511, 1974)
    over a deletion tree.  The RSS of a set bounds that of each of its
    subsets, so a subtree is skipped when its root's RSS exceeds, beyond
    a margin, the best found at every size the subtree reaches; one factor
    of a node scores all its children.  The masks that end within the
    margin of the best of their size are refitted by ``ols_batch`` and
    compared on its errors.

    The cost grows with the number of masks that come near the best of
    their size, not as 2^k: a few hundred factors at k=15 on noisy data,
    but every superset of the fitting columns when many masks fit
    exactly, and every node from the full set down when its systems fail
    the fallback rule (p > n).  It never exceeds one factor per mask of
    size at most ``max_complexity``, since the tree starts from the sets
    of that size.  k above 25 is refused unless ``force=True``.
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

    n = data.n
    stats = GramStats.of(data.X, data.y)
    floor = zero_floor(n, float(stats.gram[-1, -1]))
    # positions in the tree run over the columns by drop cost in the full
    # model, most costly first, so that the large subtrees, which delete
    # the costly columns, have high roots; the order never moves a result
    _, costs, ok = drop_scores(stats, np.arange(k)[None, :])
    order = np.argsort(-costs[0], kind="stable") if ok[0] else np.arange(k)
    best = np.full(d_max + 1, np.inf)
    # (score, positions) of every mask scored within the margin of the
    # best of its size at the time
    near: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(d_max + 1)]
    # a node is (score, positions kept, last deleted position, whether
    # the score bounds the subtree); the free positions, which its
    # subtree may delete, are last + 1 .. k - 1
    stack: list[tuple[float, tuple[int, ...], int, bool]] = []

    def limit(score):
        return (score + floor) * (1.0 + _MARGIN)

    def masks_of(sets):
        masks = np.zeros((len(sets), k), dtype=np.bool_)
        for row, positions in zip(masks, sets):
            row[order[list(positions)]] = True
        return masks

    def fitted(sets):
        return ols_batch(data.X, data.y, masks_of(sets), stats=stats)[2] * n

    def record(sets, scores):
        for positions, score in zip(sets, scores.tolist()):
            d = len(positions)
            best[d] = min(best[d], score)
            if score <= limit(best[d]):
                near[d].append((score, positions))

    def expand(nodes):
        """Score the children of same-size nodes, and push the inner ones.

        A node whose system fails the fallback rule has its children
        fitted by ``ols_batch``, and they bound nothing: where the SVD
        fits take over, the computed RSS need not grow as columns go.
        """
        sets = [positions for positions, _ in nodes]
        cols = order[np.array(sets, dtype=np.intp).reshape(len(sets), -1)]
        rss, dropped, ok = drop_scores(stats, cols)
        for (positions, last), drops, good in zip(nodes, dropped, ok.tolist()):
            first = len(positions) - (k - 1 - last)
            children = [positions[:i] + positions[i + 1 :] for i in range(first, len(positions))]
            if not children:
                continue
            scores = drops[first:] if good else fitted(children)
            record(children, scores)
            # worst first, so that the best child is expanded next
            for i in np.argsort(-scores, kind="stable").tolist():
                if positions[first + i] < k - 1:
                    stack.append((scores[i], children[i], positions[first + i], good))
        return rss, ok

    # the tree starts at every set of d_max positions; a smaller set hangs
    # below the one root that adds back its largest missing positions.
    # Roots come in blocks of one kernel chunk, each walked before the
    # next, so the stack stays small however many there are.
    roots = itertools.combinations(range(k), d_max)
    while block := list(itertools.islice(roots, chunk_size(d_max, n))):
        nodes = [(c, max(set(range(k)).difference(c), default=-1)) for c in block]
        rss, ok = expand(nodes)
        if not ok.all():
            rss[~ok] = fitted([c for c, good in zip(block, ok) if not good])
        record(block, rss)
        while stack:
            score, positions, last, bounding = stack.pop()
            size = len(positions)
            if bounding and score > limit(best[size - (k - 1 - last) : size].max()):
                continue
            expand([(positions, last)])

    sets = [p for d in range(d_max + 1) for s, p in near[d] if s <= limit(best[d])]
    masks = masks_of(sets)
    intercepts, coefs, mses, _ = ols_batch(data.X, data.y, masks, stats=stats)
    sizes = masks.sum(axis=1)
    table = []
    for d in range(d_max + 1):
        i = min(np.flatnonzero(sizes == d), key=lambda i: (mses[i], masks[i].tobytes()))
        table.append(EvaluatedModel.from_fit(masks[i], intercepts[i], coefs[i], mses[i]))
    return table


def exhaustive_frontier(
    data: Dataset,
    max_complexity: int | None = None,
    force: bool = False,
) -> Frontier:
    """Exact complexity/error frontier: the non-dominated rows of :func:`best_subset_table`."""
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
    floor = zero_floor(n, sst)
    if sse_big <= floor:
        return 0.0 if sse_small <= floor else math.inf
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
