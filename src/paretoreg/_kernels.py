"""Batch least-squares kernel and the package's numerical policy.

Every submodel fit in the package funnels through :func:`ols_batch`, which
solves many masked least-squares problems in one call.  Each fit is an
SVD-based minimum-norm solve of the intercept-augmented submatrix, with
singular values below ``max(n, k+1) * eps * smax`` treated as zero.  Rank
deficiency is flagged, not fatal; the minimum-norm solution is still
returned.

:func:`gram_solve` solves stacks of small normal-equation systems for the
cross-validation path.  Normal equations lose accuracy as cond(A)^2, not
cond(A) (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
ed., ch. 20), so a system is solved there only when it passes the
fallback rule; every other system is refitted by :func:`ols_batch`.
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

# Rank tolerance of the SVD kernel: a singular value of an n x d
# submatrix counts as zero when it is at most max(n, d) * eps * s_max.
#
# Fallback rule of the Gram solves: a system scaled to unit diagonal is
# solved from its normal equations only when its Cholesky factor exists
# and the condition estimate of :func:`gram_solve` (an upper bound on the
# 2-norm condition number) is at most GRAM_COND_MAX.  Forward errors then
# stay near GRAM_COND_MAX * eps ~ 2e-10 in the worst case.
GRAM_COND_MAX = 1e6

# Zero floor of the residual sum of squares: an SSE at or below
# SSE_ZERO_FACTOR * n * eps * SST, where SST is the total sum of squares
# about the mean (the intercept-only model's SSE), is zero up to rounding.
# The same test holds in MSE units, with the intercept-only MSE as SST.
SSE_ZERO_FACTOR = 10.0


def active_backend() -> str:
    """Name of the kernel implementation; always ``"numpy"``."""
    return "numpy"


def is_zero_error(error: float, n: int, reference: float) -> bool:
    """True when ``error`` is zero up to rounding (the SSE zero floor).

    ``error`` and ``reference`` share units: an SSE and the total sum of
    squares about the mean, or an MSE and the intercept-only MSE.  The
    reference is centred because every model carries an intercept; a
    floor on the raw ``||y||^2`` would call real fits zero for a response
    with a large mean and a small spread.
    """
    return error <= SSE_ZERO_FACTOR * n * _EPS * reference


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


def _cholesky(C):
    """Cholesky factors of a stack, and which of them exist.

    numpy raises for the whole stack when one matrix is not positive
    definite, so a failing stack is halved until each failure is alone.
    """
    try:
        return np.linalg.cholesky(C), np.ones(C.shape[0], dtype=np.bool_)
    except np.linalg.LinAlgError:
        if C.shape[0] == 1:
            return np.zeros_like(C), np.zeros(1, dtype=np.bool_)
    half = C.shape[0] // 2
    L_a, ok_a = _cholesky(C[:half])
    L_b, ok_b = _cholesky(C[half:])
    return np.concatenate((L_a, L_b)), np.concatenate((ok_a, ok_b))


def gram_solve(G, b):
    """Solve stacked symmetric systems ``G x = b`` that pass the fallback rule.

    Each system is scaled to unit diagonal, C = D G D with
    D = diag(G)^(-1/2), and solved through the Cholesky factor C = L L'.
    The condition estimate is ``||C||_inf * trace(C^-1)``, with
    trace(C^-1) = ||L^-1||_F^2: both factors bound the extreme
    eigenvalues from outside, so the estimate is never below cond_2(C).

    Parameters
    ----------
    G : ndarray, shape (m, d, d)
    b : ndarray, shape (m, d)

    Returns
    -------
    x : ndarray, shape (m, d)
        Solutions; zero where ``ok`` is False.
    ok : ndarray, shape (m,), bool
        False where a diagonal entry is not positive, the Cholesky
        factorisation fails or the estimate exceeds ``GRAM_COND_MAX``.
        Those systems must be solved another way.
    """
    d = b.shape[1]
    diag = np.einsum("mii->mi", G)
    ok = np.all(diag > 0.0, axis=1)
    scale = np.ones_like(diag)
    scale[ok] = 1.0 / np.sqrt(diag[ok])
    C = G * scale[:, :, None] * scale[:, None, :]
    C[~ok] = np.eye(d)
    L, factored = _cholesky(C)
    ok &= factored
    L[~ok] = np.eye(d)
    L_inv = np.linalg.inv(L)
    estimate = np.abs(C).sum(axis=2).max(axis=1) * np.einsum(
        "mij,mij->m", L_inv, L_inv
    )
    ok &= estimate <= GRAM_COND_MAX
    z = np.swapaxes(L_inv, 1, 2) @ (L_inv @ (scale * b)[:, :, None])
    x = scale * z[:, :, 0]
    x[~ok] = 0.0
    return x, ok
