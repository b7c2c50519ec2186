"""Search objectives: in-sample and cross-validated error, information criteria.

The error objective attached to a mask is either the in-sample mean
squared error of the full-data fit or a k-fold cross-validation estimate.
For cross-validation the fold partition is drawn once per run and reused
for every mask, so all candidates face identical folds and their errors
are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import FoldStats, GramStats, fold_errors, ols_batch
from .data import Dataset, EvaluatedModel

IN_SAMPLE = "in_sample"
CROSS_VALIDATION = "cross_validation"


@dataclass(frozen=True)
class FoldPartition:
    """A fixed disjoint partition of row indices into validation folds,
    each a 1-D integer numpy array (copied and made read-only)."""

    n: int
    folds: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.folds) < 2:
            raise ValueError("need at least 2 folds")
        for f in self.folds:
            if not isinstance(f, np.ndarray) or f.ndim != 1 or f.dtype.kind not in "iu":
                raise ValueError("each fold must be a 1-D numpy array of integer row indices")
        if any(f.size == 0 for f in self.folds):
            raise ValueError("folds must be non-empty")
        folds = tuple(f.astype(np.int64) for f in self.folds)
        seen = np.concatenate(folds)
        if seen.size != self.n or np.unique(seen).size != self.n:
            raise ValueError("folds must partition range(n) exactly")
        if seen.min() != 0 or seen.max() != self.n - 1:
            raise ValueError("fold indices out of range")
        for f in folds:
            f.flags.writeable = False
        object.__setattr__(self, "folds", folds)

    @property
    def n_folds(self) -> int:
        return len(self.folds)

    def train_indices(self, fold: int) -> np.ndarray:
        """All row indices outside the given validation fold."""
        keep = np.ones(self.n, dtype=bool)
        keep[self.folds[fold]] = False
        return np.flatnonzero(keep)


def make_partition(n: int, n_folds: int, seed: int) -> FoldPartition:
    """Randomly partition ``range(n)`` into ``n_folds`` validation folds.

    Rows are permuted once and cut into consecutive slices; fold sizes
    differ by at most one.  Deterministic in ``seed``.
    """
    if not 2 <= n_folds <= n:
        raise ValueError(f"need 2 <= n_folds <= n, got n_folds={n_folds}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base, extra = divmod(n, n_folds)
    folds = []
    start = 0
    for i in range(n_folds):
        size = base + (1 if i < extra else 0)
        folds.append(perm[start : start + size])
        start += size
    return FoldPartition(n=n, folds=tuple(folds))


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which error objective to attach to candidate models.

    ``kind`` is ``"in_sample"`` or ``"cross_validation"``.  For
    cross-validation, ``folds``/``seed`` describe the partition, which
    :class:`ObjectiveEvaluator` draws by :func:`make_partition` once the
    row count is known.
    """

    kind: str = IN_SAMPLE
    folds: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (IN_SAMPLE, CROSS_VALIDATION):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == CROSS_VALIDATION and self.folds < 2:
            raise ValueError("cross-validation needs at least 2 folds")


class ObjectiveEvaluator:
    """Evaluates masks against one dataset and objective, with memoisation.

    Results are cached on the raw mask bit pattern, so re-evaluating a
    duplicate mask costs a dictionary lookup rather than a fit.  Callers
    should prefer :meth:`evaluate_many` to amortise the per-call overhead.

    Every mask's intercept and coefficients come from one full-data fit
    by :func:`ols_batch`, against centred statistics (:class:`GramStats`)
    built once per evaluator; for the in-sample objective that fit's MSE
    is the error.  For cross-validation the fold training statistics
    (:class:`~paretoreg._kernels.FoldStats`) are built once too, and
    fresh masks are scored by
    :func:`~paretoreg._kernels.fold_errors`.  A mask whose system fails
    the fallback rule in any fold is refitted fold by fold by
    :func:`ols_batch`; :attr:`svd_fallbacks` counts those masks.

    The search's error objectives come from this class; the baselines
    take their in-sample MSEs from :func:`ols_batch` directly.
    """

    def __init__(self, data: Dataset, spec: ObjectiveSpec | None = None) -> None:
        self.data = data
        self.spec = spec or ObjectiveSpec()
        self._cache: dict[bytes, EvaluatedModel] = {}
        self._queries = 0
        self._svd_fallbacks = 0
        self._stats = GramStats.of(data.X, data.y)
        self._partition = None
        if self.spec.kind == CROSS_VALIDATION:
            self._partition = make_partition(data.n, self.spec.folds, self.spec.seed)
            self._folds = FoldStats.of(self._stats, self._partition.folds)

    @property
    def partition(self) -> FoldPartition | None:
        """The cross-validation folds, ``make_partition(data.n,
        spec.folds, spec.seed)``; None for the in-sample objective."""
        return self._partition

    @property
    def evaluations(self) -> int:
        """Total masks submitted, including cache hits."""
        return self._queries

    @property
    def unique_models(self) -> int:
        """Distinct masks fitted so far."""
        return len(self._cache)

    @property
    def svd_fallbacks(self) -> int:
        """Cross-validated masks whose fold refits went to :func:`ols_batch`."""
        return self._svd_fallbacks

    def archive(self) -> list[EvaluatedModel]:
        """Every distinct model evaluated so far, in first-seen order."""
        return list(self._cache.values())

    def evaluate(self, mask) -> EvaluatedModel:
        return self.evaluate_many([mask])[0]

    def evaluate_many(self, masks: Sequence) -> list[EvaluatedModel]:
        """Evaluate masks in order, fitting only the uncached ones."""
        arrs = [self.data.validate_mask(m) for m in masks]
        self._queries += len(arrs)
        keys = [a.tobytes() for a in arrs]
        fresh_keys: list[bytes] = []
        fresh_masks: list[np.ndarray] = []
        seen = set()
        for key, arr in zip(keys, arrs):
            if key in self._cache or key in seen:
                continue
            seen.add(key)
            fresh_keys.append(key)
            fresh_masks.append(arr)
        if fresh_masks:
            batch = np.stack(fresh_masks)
            for key, model in zip(fresh_keys, self._evaluate_batch(batch)):
                self._cache[key] = model
        return [self._cache[key] for key in keys]

    def _evaluate_batch(self, masks: np.ndarray) -> list[EvaluatedModel]:
        data = self.data
        intercepts, coefs, mses, _ = ols_batch(data.X, data.y, masks, stats=self._stats)
        errors = mses if self.spec.kind == IN_SAMPLE else self._cv_errors(masks)
        return [
            EvaluatedModel.from_fit(masks[i], intercepts[i], coefs[i], errors[i])
            for i in range(masks.shape[0])
        ]

    def _cv_errors(self, masks: np.ndarray) -> np.ndarray:
        """Cross-validated errors: Gram fold solves, SVD refits as fallback."""
        errors, solved = fold_errors(self._folds, masks)
        if not solved.all():
            fallback = np.flatnonzero(~solved)
            self._svd_fallbacks += fallback.size
            errors[fallback] = self._cv_refit(masks[fallback])
        return errors

    def _cv_refit(self, masks: np.ndarray) -> np.ndarray:
        """CV errors by one :func:`ols_batch` refit per fold.

        Each mask's predictions are their own product and its mean runs
        along its own row, so no mask's error depends on the others.  A
        response with no spread is fitted exactly in every fold, so its
        errors are 0 without a refit.
        """
        X, y = self.data.X, self.data.y
        part = self._partition
        errors = np.zeros(masks.shape[0], dtype=np.float64)
        if not self._stats.gram[-1, -1]:
            return errors
        for f, val in enumerate(part.folds):
            train = part.train_indices(f)
            b0, b, _, _ = ols_batch(X[train], y[train], masks)
            preds = b0[:, None] + (X[val] @ b[:, :, None])[:, :, 0]
            errors += np.mean((y[val] - preds) ** 2, axis=1)
        return errors / part.n_folds


def aic(mse: float, k: int, n: int) -> float:
    """Akaike information criterion per observation, up to constants.

    ``2k/n + ln(mse)``; lower is better.
    """
    _check_ic_args(mse, k, n)
    return 2.0 * k / n + math.log(mse)


def bic(mse: float, k: int, n: int) -> float:
    """Bayesian information criterion per observation, up to constants.

    ``k ln(n)/n + ln(mse)``; lower is better.
    """
    _check_ic_args(mse, k, n)
    return k * math.log(n) / n + math.log(mse)


def _check_ic_args(mse: float, k: int, n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if not (mse > 0 and math.isfinite(mse)):
        raise ValueError(f"information criteria need mse > 0, got {mse}")
