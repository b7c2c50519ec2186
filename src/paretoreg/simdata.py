"""Synthetic benchmark generators with known ground truth.

Two families are provided: a nonlinear additive benchmark whose sparse
truth lives in a deterministic feature expansion of five raw inputs, and
a heavily correlated linear benchmark with ten true predictors out of
many.  Both return the dataset together with a :class:`TrueModel` so
recovery can be scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset

_EXPANSION_SUFFIXES = ("lin", "sq", "cube", "log", "exp")


@dataclass(frozen=True)
class TrueModel:
    """Ground truth behind a synthetic dataset.

    ``space_names`` lists every variable of the space the truth refers
    to (the expanded space for the additive benchmark); ``names`` and
    ``coefficients`` describe the terms actually present in the response.
    """

    names: tuple[str, ...]
    coefficients: np.ndarray
    intercept: float
    noise_sd: float
    space_names: tuple[str, ...]

    def __post_init__(self) -> None:
        coefs = np.asarray(self.coefficients, dtype=np.float64).copy()
        if coefs.shape != (len(self.names),):
            raise ValueError("one coefficient per true term required")
        missing = [nm for nm in self.names if nm not in self.space_names]
        if missing:
            raise ValueError(f"true terms not in variable space: {missing}")
        coefs.flags.writeable = False
        object.__setattr__(self, "coefficients", coefs)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "space_names", tuple(self.space_names))

    @property
    def mask(self) -> np.ndarray:
        """Boolean mask of the true terms over ``space_names`` order."""
        true_set = set(self.names)
        return np.array([nm in true_set for nm in self.space_names], dtype=np.bool_)


def expanded_names(raw_names: Sequence[str]) -> tuple[str, ...]:
    """Names of the deterministic expansion, grouped by raw variable.

    Each raw variable v contributes, in order: v_lin, v_sq, v_cube,
    v_log, v_exp.
    """
    return tuple(
        f"{nm}_{suffix}" for nm in raw_names for suffix in _EXPANSION_SUFFIXES
    )


def expand_features(data: Dataset) -> Dataset:
    """Expand every predictor into {x, x^2, x^3, ln x, e^x} columns.

    All predictors must be strictly positive because of the log term.
    The response is carried over unchanged; column order follows
    :func:`expanded_names`.
    """
    for j, nm in enumerate(data.names):
        if (data.X[:, j] <= 0).any():
            raise ValueError(
                f"column {nm!r} must be strictly positive for the log expansion"
            )
    blocks = []
    for j in range(data.k):
        col = data.X[:, j]
        blocks.extend([col, col**2, col**3, np.log(col), np.exp(col)])
    return Dataset(
        X=np.column_stack(blocks),
        y=data.y,
        names=expanded_names(data.names),
        target_name=data.target_name,
    )


def _positive_uniform(rng: np.random.Generator, high: float, n: int) -> np.ndarray:
    """Uniform(0, high) draws with exact zeros rejected and redrawn."""
    col = rng.uniform(0.0, high, n)
    while True:
        zeros = np.flatnonzero(col == 0.0)
        if zeros.size == 0:
            return col
        col[zeros] = rng.uniform(0.0, high, zeros.size)


def gen_additive(
    n: int, seed: int = 0, noise_sd: float = 0.2
) -> tuple[Dataset, TrueModel]:
    """Nonlinear additive benchmark over five raw inputs.

    Draws x1..x5 uniformly on (0, u_j) with upper bounds (1, 2, 1, 4, 5)
    and builds

        y = 10 + 5 x1 + 2 e^{x2} + 5 x3 + 3 x3^3 + 0.1 x4^3 + noise

    with Gaussian noise of standard deviation ``noise_sd``.  x5 is pure
    nuisance.  The returned truth lives in the 25-column expanded space
    (see :func:`expand_features`): terms x1_lin, x2_exp, x3_lin, x3_cube
    and x4_cube with coefficients (5, 2, 5, 3, 0.1) and intercept 10.

    Draw order is fixed (columns x1..x5, then noise), so results are
    reproducible for a given seed.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 rows, got {n}")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    rng = np.random.default_rng(seed)
    highs = (1.0, 2.0, 1.0, 4.0, 5.0)
    cols = [_positive_uniform(rng, h, n) for h in highs]
    noise = rng.standard_normal(n)
    x1, x2, x3, x4, _ = cols
    y = 10.0 + 5.0 * x1 + 2.0 * np.exp(x2) + 5.0 * x3 + 3.0 * x3**3 + 0.1 * x4**3
    y = y + noise_sd * noise
    raw_names = tuple(f"x{j + 1}" for j in range(5))
    data = Dataset(X=np.column_stack(cols), y=y, names=raw_names)
    truth = TrueModel(
        names=("x1_lin", "x2_exp", "x3_lin", "x3_cube", "x4_cube"),
        coefficients=np.array([5.0, 2.0, 5.0, 3.0, 0.1]),
        intercept=10.0,
        noise_sd=noise_sd,
        space_names=expanded_names(raw_names),
    )
    return data, truth


def gen_correlated(
    n: int, p: int = 100, seed: int = 0, noise_sd: float = 1.0
) -> tuple[Dataset, TrueModel]:
    """Correlated linear benchmark: ten true predictors out of ``p``.

    Each predictor is x_j = 2 z + d_j with z and d_j independent unit
    Gaussians drawn per row, giving every pair of predictors correlation
    0.8.  The response is

        y = sum_{j=1..10} (j / 10) x_j + noise

    so the true model is x1..x10 with coefficients 0.1..1.0 and no
    intercept.  Requires ``p >= 10``.

    Draw order is fixed: z, then the d matrix row-major, then noise.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 rows, got {n}")
    if p < 10:
        raise ValueError(f"need p >= 10 predictors, got {p}")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    delta = rng.standard_normal((n, p))
    X = 2.0 * z[:, None] + delta
    noise = rng.standard_normal(n)
    coefs = np.arange(1, 11) / 10.0
    y = X[:, :10] @ coefs + noise_sd * noise
    names = tuple(f"x{j + 1}" for j in range(p))
    data = Dataset(X=X, y=y, names=names)
    truth = TrueModel(
        names=names[:10],
        coefficients=coefs,
        intercept=0.0,
        noise_sd=noise_sd,
        space_names=names,
    )
    return data, truth


def truncate_predictors(data: Dataset, k: int) -> Dataset:
    """Dataset restricted to its first ``k`` predictor columns."""
    if not 1 <= k <= data.k:
        raise ValueError(f"need 1 <= k <= {data.k}, got {k}")
    return Dataset(
        X=data.X[:, :k],
        y=data.y,
        names=data.names[:k],
        target_name=data.target_name,
    )
