"""Batch least-squares kernel and the package's numerical policy.

Every submodel fit in the package funnels through :func:`ols_batch`, which
solves many masked least-squares problems in one call.  It works from the
centred statistics of :class:`GramStats`, built once per dataset: the
intercept is absorbed by centring, and each mask's coefficients solve its
block of the centred normal equations.  Masks are grouped by size, in
chunks of :func:`chunk_size` systems, and the systems of a chunk are
solved together by ``_solve``: one factor by :func:`gram_factor`, a solve
by :func:`gram_apply`, and one step of iterative refinement against the
residual on the n rows.  :func:`drop_scores`, which bounds the
best-subset search, is one ``_solve`` plus the RSS after dropping each
column.  The cross-validation fold downdates scale their stacked systems
by :func:`unit_diagonal` and solve them with :func:`gram_factor` and
:func:`gram_apply`.

Normal equations lose accuracy as cond(A)^2, not cond(A) (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 20), so a
system is solved from them only when it passes the fallback rule below.
Every other mask is fitted by an SVD-based minimum-norm solve of its
intercept-augmented submatrix, with singular values below
``max(n, k+1) * eps * smax`` treated as zero.  Rank deficiency found
there is flagged, not fatal; the minimum-norm solution is still returned.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

# Rank tolerance of the SVD kernel: a singular value of an n x d
# submatrix counts as zero when it is at most max(n, d) * eps * s_max.
#
# Fallback rule of the Gram solves: a system scaled to unit diagonal is
# solved from its normal equations only when its Cholesky factor exists
# and the condition estimate of :func:`gram_factor` (an upper bound on the
# 2-norm condition number) is at most GRAM_COND_MAX.  Forward errors then
# stay near GRAM_COND_MAX * eps ~ 2e-10 in the worst case.
GRAM_COND_MAX = 1e6

# Zero floor of the residual sum of squares: an SSE at or below
# SSE_ZERO_FACTOR * n * eps * SST, where SST is the total sum of squares
# about the mean (the intercept-only model's SSE), is zero up to rounding.
# The same test holds in MSE units, with the intercept-only MSE as SST.
SSE_ZERO_FACTOR = 10.0

# Upper bound on the elements of the temporaries of one chunk of
# same-size systems (in ols_batch the gathered columns, the systems and
# the residuals); larger groups are solved chunk by chunk.
CHUNK_ELEMENTS = 1 << 16


def chunk_size(d: int, n: int) -> int:
    """Systems of d columns on n rows per chunk (at least one).

    A chunk's gathered columns, systems and residuals then hold at most
    ``CHUNK_ELEMENTS`` elements.
    """
    return max(1, CHUNK_ELEMENTS // (d * (d + n) + n))


def active_backend() -> str:
    """Name of the kernel implementation; always ``"numpy"``."""
    return "numpy"


def zero_floor(n: int, reference):
    """The SSE zero floor on ``n`` rows: ``SSE_ZERO_FACTOR * n * eps * reference``.

    ``reference`` is the total sum of squares about the mean for an SSE
    floor, or the intercept-only MSE for an MSE floor.  It is centred
    because every model carries an intercept; a floor on the raw
    ``||y||^2`` would call real fits zero for a response with a large
    mean and a small spread.
    """
    return SSE_ZERO_FACTOR * n * _EPS * reference


def is_zero_error(error: float, n: int, reference: float) -> bool:
    """True when ``error`` is zero up to rounding: at or below :func:`zero_floor`.

    ``error`` and ``reference`` share units, an SSE or an MSE.
    """
    return error <= zero_floor(n, reference)


class GramStats(NamedTuple):
    """Centred statistics of one dataset, shared by every fit against it.

    ``gram`` is the Gram matrix of ``[X - mean(X), y - mean(y)]``: its
    leading k x k block is Xc'Xc, its last column holds Xc'yc and its
    corner yc'yc.  ``unit`` is Xc'Xc scaled to unit diagonal by
    ``scale`` = diag(Xc'Xc)^(-1/2) (1 for a column with no spread), so
    that a mask's scaled system is a submatrix of ``unit``.  ``xct`` is
    Xc transposed (k, n), so that the rows of a mask's columns are
    contiguous.
    """

    x_mean: np.ndarray
    y_mean: float
    xct: np.ndarray
    yc: np.ndarray
    gram: np.ndarray
    unit: np.ndarray
    scale: np.ndarray

    @classmethod
    def of(cls, X, y) -> "GramStats":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        A = np.column_stack((X - x_mean, y - y_mean))
        # A constant column whose mean is inexact centres to the same
        # rounding error in every row, which unit scaling would blow up to
        # a unit column.  The mean of n equal values is off by at most
        # about n/4 eps relative, so a centred norm within n eps of the
        # raw norm is set to exactly zero: the column has no spread, and
        # every mask holding it goes to the SVD.
        n = X.shape[0]
        flat = (A[:, :-1] ** 2).sum(axis=0) <= (n * _EPS) ** 2 * (X**2).sum(axis=0)
        A[:, :-1][:, flat] = 0.0
        # A response whose values are all equal is fitted exactly by the
        # intercept, so its rounding residue is zeroed and every Gram-path
        # fit reports an error of 0.  Only exact equality counts: a
        # response with a small real spread about a large mean keeps it.
        if np.ptp(y) == 0.0:
            A[:, -1] = 0.0
        xct = np.ascontiguousarray(A[:, :-1].T)
        gram = A.T @ A
        unit, scale = unit_diagonal(gram[None, :-1, :-1])
        return cls(x_mean, y_mean, xct, np.ascontiguousarray(A[:, -1]), gram, unit[0], scale[0])


def ols_batch(X, y, masks, stats: GramStats | None = None):
    """Fit one least-squares model per mask row.

    Parameters
    ----------
    X : ndarray, shape (n, k_total)
        Predictor matrix (float64).
    y : ndarray, shape (n,)
        Response (float64).
    masks : ndarray, shape (m, k_total), bool
        One candidate model per row; True marks a selected column.
    stats : GramStats, optional
        ``GramStats.of(X, y)``, for callers that fit many batches against
        one dataset; built here when omitted.  Results do not depend on
        whether it is passed, nor on which other masks share the batch.

    Returns
    -------
    intercepts : ndarray, shape (m,)
    coefs : ndarray, shape (m, k_total)
        Dense coefficients; zero at unselected columns.
    mses : ndarray, shape (m,)
        Mean squared residual over all n rows (divisor n); exactly 0.0
        at or below the SSE zero floor.
    deficient : ndarray, shape (m,), bool
        True where the centred system failed the fallback rule and the
        SVD of the augmented submatrix then found it rank deficient.
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
    if stats is None:
        stats = GramStats.of(X, y)
    elif stats.xct.shape != X.shape[::-1]:
        raise ValueError(f"stats built for shape {stats.xct.shape[::-1]}, X is {X.shape}")
    m, k_total = masks.shape
    n = X.shape[0]
    if m == 0:
        return np.zeros(0), np.zeros((0, k_total)), np.zeros(0), np.zeros(0, dtype=np.bool_)
    # masks in size order, and all their column indices in that order
    sizes = np.count_nonzero(masks, axis=1)
    order = np.argsort(sizes, kind="stable")
    columns = np.nonzero(masks[order])[1]
    fits = []
    offset = 0
    for d, count in enumerate(np.bincount(sizes, minlength=1).tolist()):
        step = chunk_size(d, n)
        for lo in range(0, count, step):
            size = min(step, count - lo)
            cols = columns[offset + lo * d : offset + (lo + size) * d].reshape(size, d)
            beta, rss, _, ok = _solve(stats, cols)
            b0 = stats.y_mean - (stats.x_mean[cols][:, None, :] @ beta[:, :, None])[:, 0, 0]
            fits.append((b0, beta.ravel(), rss / n, ok))
        offset += count * d
    b0, beta, mse, ok = (np.concatenate(part) for part in zip(*fits))
    intercepts = np.empty(m, dtype=np.float64)
    coefs = np.zeros((m, k_total), dtype=np.float64)
    mses = np.empty(m, dtype=np.float64)
    solved = np.empty(m, dtype=np.bool_)
    intercepts[order] = b0
    coefs[np.repeat(order, sizes[order]), columns] = beta
    mses[order] = mse
    solved[order] = ok
    deficient = np.zeros(m, dtype=np.bool_)
    for i in np.flatnonzero(~solved).tolist():
        cols = np.flatnonzero(masks[i])
        k = cols.size
        A = np.column_stack((np.ones(n), X[:, cols]))
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
    mses[is_zero_error(mses, n, stats.gram[-1, -1] / n)] = 0.0
    return intercepts, coefs, mses, deficient


def _solve(stats: GramStats, cols: np.ndarray):
    """Refined solves of same-size column sets from the centred normal equations.

    ``cols`` (m, d) lists each set's columns.  Returns the coefficients
    (m, d) after one step of iterative refinement against the residual on
    the n rows, with the same factor; the RSS (m,) of the refined
    residual; the factor's ``m_inv`` (m, d, d); and which systems passed
    the fallback rule (``ok``, m).  Where ``ok`` is False nothing is a
    fit.  Every product runs item by item over the stack, so a row's bits
    do not depend on the others.
    """
    m, d = cols.shape
    yc = stats.yc
    if d == 0:
        return np.zeros((m, 0)), np.full(m, float(yc @ yc)), np.zeros((m, 0, 0)), np.ones(m, bool)
    factor = gram_factor(stats.unit[cols[:, :, None], cols[:, None, :]], stats.scale[cols])
    beta = gram_apply(factor, stats.gram[cols, -1])
    xs = stats.xct[cols]
    resid = yc - (beta[:, None, :] @ xs)[:, 0, :]
    beta += gram_apply(factor, (xs @ resid[:, :, None])[:, :, 0])
    resid = yc - (beta[:, None, :] @ xs)[:, 0, :]
    rss = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
    return beta, rss, factor.m_inv, factor.ok


def drop_scores(stats: GramStats, cols: np.ndarray):
    """Residual sums of squares of same-size column sets, and after each drop.

    ``cols`` (m, d) lists each set's columns, at most
    ``chunk_size(d, n)`` of them.  Returns ``rss`` (m,), the RSS of each
    set from its refined residual as :func:`ols_batch` fits it;
    ``dropped`` (m, d), the RSS after removing each listed column,
    RSS(S without j) = RSS(S) + beta_j^2 / [G^-1]_jj (Furnival & Wilson,
    *Technometrics* 16:499-511, 1974); and ``ok`` (m,), which systems
    passed the fallback rule.  Where ``ok`` is False, ``rss`` and
    ``dropped`` hold no score.  Nothing is floored at the SSE zero floor.
    """
    beta, rss, m_inv, ok = _solve(stats, cols)
    # G^-1 = m_inv' m_inv, so its diagonal is the column sums of m_inv^2
    inv_diag = (m_inv * m_inv).sum(axis=1)
    inv_diag[~ok] = 1.0
    return rss, rss[:, None] + beta * beta / inv_diag, ok


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


class GramFactor(NamedTuple):
    """Stacked systems factored by :func:`gram_factor`.

    ``m_inv`` is L^-1 D per system, so that G^-1 = m_inv' m_inv; it is
    zero for systems that failed the fallback rule (``ok`` False).
    """

    m_inv: np.ndarray
    ok: np.ndarray


def unit_diagonal(G):
    """Stacked systems scaled to unit diagonal: (D G D, D), D = diag(G)^(-1/2).

    A diagonal entry that is not positive keeps a scale of 1, so the
    Cholesky factorisation of that system fails.
    """
    diag = G.diagonal(axis1=1, axis2=2)
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    return G * scale[:, :, None] * scale[:, None, :], scale


def gram_factor(C, scale) -> GramFactor:
    """Factor stacked systems G = C / (scale scale') and apply the fallback rule.

    ``C`` (m, d, d) holds the systems scaled to unit diagonal and
    ``scale`` (m, d) the scale D = diag(G)^(-1/2), so C = D G D; C is
    factored as L L'.  The condition estimate is
    ``||C||_inf * trace(C^-1)``, with trace(C^-1) = ||L^-1||_F^2: both
    factors bound the extreme eigenvalues from outside, so the estimate
    is never below cond_2(C).  ``ok`` is False where the factorisation
    fails or the estimate exceeds ``GRAM_COND_MAX``; those systems must
    be solved another way.
    """
    L, ok = _cholesky(C)
    if not ok.all():
        L[~ok] = np.eye(C.shape[1])
    l_inv = np.linalg.inv(L)
    estimate = np.abs(C).sum(axis=2).max(axis=1) * (l_inv * l_inv).sum(axis=(1, 2))
    ok &= estimate <= GRAM_COND_MAX
    m_inv = l_inv * scale[:, None, :]
    if not ok.all():
        m_inv[~ok] = 0.0
    return GramFactor(m_inv, ok)


def gram_apply(factor: GramFactor, b):
    """Solve ``G x = b`` for each system of ``factor``; zero where not ``ok``."""
    m_inv = factor.m_inv
    return (np.swapaxes(m_inv, 1, 2) @ (m_inv @ b[:, :, None]))[:, :, 0]
