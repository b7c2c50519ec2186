"""Batch least-squares kernel.

Every submodel fit in the package funnels through :func:`ols_batch`, which
solves many masked least-squares problems in one call.  Each fit is an
SVD-based minimum-norm solve of the intercept-augmented submatrix, with
singular values below ``max(n, k+1) * eps * smax`` treated as zero.  Rank
deficiency is flagged, not fatal; the minimum-norm solution is still
returned.
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


def active_backend() -> str:
    """Name of the kernel implementation; always ``"numpy"``."""
    return "numpy"


def ols_batch(X, y, masks):
    """Fit one least-squares model per mask row.

    Parameters
    ----------
    X : ndarray, shape (n, k_total)
        Predictor matrix (float64).
    y : ndarray, shape (n,)
        Response (float64).
    masks : ndarray, shape (m, k_total), bool
        One candidate model per row; True marks a selected column.

    Returns
    -------
    intercepts : ndarray, shape (m,)
    coefs : ndarray, shape (m, k_total)
        Dense coefficients; zero at unselected columns.
    mses : ndarray, shape (m,)
        Mean squared residual over all n rows (divisor n).
    deficient : ndarray, shape (m,), bool
        True where the augmented submatrix was numerically rank deficient.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    masks = np.ascontiguousarray(masks, dtype=np.bool_)
    if X.ndim != 2 or y.ndim != 1 or masks.ndim != 2:
        raise ValueError("X must be (n,k), y (n,), masks (m,k)")
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"y length {y.shape[0]} does not match n={X.shape[0]}")
    if masks.shape[1] != X.shape[1]:
        raise ValueError(
            f"mask width {masks.shape[1]} does not match k={X.shape[1]}"
        )
    m, k_total = masks.shape
    n = X.shape[0]
    intercepts = np.zeros(m, dtype=np.float64)
    coefs = np.zeros((m, k_total), dtype=np.float64)
    mses = np.zeros(m, dtype=np.float64)
    deficient = np.zeros(m, dtype=np.bool_)
    ones = np.ones((n, 1), dtype=np.float64)
    for i in range(m):
        cols = np.flatnonzero(masks[i])
        k = cols.size
        A = np.concatenate((ones, X[:, cols]), axis=1)
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        tol = max(n, k + 1) * _EPS * s[0]
        rank = int((s > tol).sum())
        w = (U[:, :rank].T @ y) / s[:rank]
        beta = Vt[:rank].T @ w
        resid = y - A @ beta
        intercepts[i] = beta[0]
        coefs[i, cols] = beta[1:]
        mses[i] = float(resid @ resid) / n
        deficient[i] = rank < k + 1
    return intercepts, coefs, mses, deficient
