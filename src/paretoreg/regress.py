"""Ordinary least squares on masked predictor subsets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import ols_batch
from .data import Dataset


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one masked submodel.

    ``coefficients`` holds one entry per selected predictor in ascending
    column order.  ``mse`` is the mean squared residual over all rows with
    divisor n, so nested models can never have larger error.
    ``rank_deficient`` is a flag, not an error: the minimum-norm solution
    is returned either way.
    """

    intercept: float
    coefficients: np.ndarray
    mse: float
    rank_deficient: bool


def fit_ols(data: Dataset, mask) -> FitResult:
    """Fit intercept + selected columns by least squares.

    The solve is SVD-based: singular values of the intercept-augmented
    submatrix below ``max(n, k+1) * eps * smax`` are treated as zero and
    the minimum-norm solution is taken, which keeps collinear expansions
    (for example a column and its own log) from blowing up.

    Parameters
    ----------
    data : Dataset
        Rows and predictor columns to fit against.
    mask : boolean array, length data.k
        Selected predictors.  The empty mask fits the intercept alone.

    Returns
    -------
    FitResult
    """
    mask = data.validate_mask(mask)
    intercepts, coefs, mses, deficient = ols_batch(data.X, data.y, mask[None, :])
    return FitResult(
        intercept=float(intercepts[0]),
        coefficients=coefs[0][mask],
        mse=float(mses[0]),
        rank_deficient=bool(deficient[0]),
    )


def predict(fit: FitResult, mask, X) -> np.ndarray:
    """Apply a fitted submodel to new rows.

    ``X`` must have the same column layout the model was fitted on; the
    mask picks out the columns matching ``fit.coefficients``.
    """
    X = np.asarray(X, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.bool_)
    if X.ndim != 2 or X.shape[1] != mask.shape[0]:
        raise ValueError(
            f"X shape {X.shape} does not match mask length {mask.shape[0]}"
        )
    if int(mask.sum()) != fit.coefficients.shape[0]:
        raise ValueError("mask does not match fitted coefficient count")
    return fit.intercept + X[:, mask] @ fit.coefficients

