"""Batch least-squares kernel and the package's numerical policy.

Every submodel fit in the package funnels through this module.
:func:`ols_batch` fits masks from the centred statistics of
:class:`GramStats`, built once per dataset: the intercept is absorbed by
centring, and each mask's coefficients solve its block of the centred
normal equations, with one step of iterative refinement (``_solve``).
:func:`fold_errors` scores masks by k-fold cross-validation from the
fold training Grams of :class:`FoldStats`, built once per partition.
Both group masks by size into chunks (``_size_chunks``), gather each
system from statistics scaled to unit diagonal when they were built,
and factor a chunk's systems together.  :func:`drop_scores`, which
bounds the best-subset search, is one ``_solve`` plus the RSS after
dropping each column.

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
# and the condition estimate of ``_gram_factor`` (an upper bound on the
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
# the residuals; in fold_errors the fold systems and the held-out
# residuals); larger groups are solved chunk by chunk.
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

    An error at or below it is zero up to rounding.  ``reference`` is the total sum of squares about the mean for an SSE
    floor, or the intercept-only MSE for an MSE floor.  It is centred
    because every model carries an intercept; a floor on the raw
    ``||y||^2`` would call real fits zero for a response with a large
    mean and a small spread.  A reference of exactly 0 is a response with
    no spread, which the intercept alone fits: every error is then
    rounding, and the floor is infinite.
    """
    return SSE_ZERO_FACTOR * n * _EPS * reference if reference else np.inf


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
        unit, scale = _unit_diagonal(gram[None, :-1, :-1])
        return cls(x_mean, y_mean, xct, np.ascontiguousarray(A[:, -1]), gram, unit[0], scale[0])


class FoldStats(NamedTuple):
    """Training statistics of each validation fold of one dataset.

    ``gram`` (f, w, w) holds each fold's training Gram: the Gram of
    A = [1, X - mean(X), y - mean(y)], which is ``GramStats.gram``
    bordered by n and the centred columns' sums (zero only up to the
    rounding in the means), minus the fold's held-out rows' own Gram.
    ``unit`` and ``scale`` scale its block without y to unit diagonal, as
    ``GramStats.unit``/``.scale`` do.  ``val`` (f, v, w) holds each fold's
    rows of A, zero-padded to a common length (a zero row adds nothing to
    a residual sum of squares), and ``sizes`` (f,) their counts.
    """

    gram: np.ndarray
    unit: np.ndarray
    scale: np.ndarray
    val: np.ndarray
    sizes: np.ndarray

    @classmethod
    def of(cls, stats: GramStats, folds) -> "FoldStats":
        n = stats.yc.size
        A = np.column_stack((np.ones(n), stats.xct.T, stats.yc))
        gram = np.zeros((A.shape[1], A.shape[1]))
        gram[0, 0] = n
        gram[0, 1:] = gram[1:, 0] = A[:, 1:].sum(axis=0)
        gram[1:, 1:] = stats.gram
        val = np.zeros((len(folds), max(f.size for f in folds), A.shape[1]))
        for i, f in enumerate(folds):
            val[i, : f.size] = A[f]
        train = gram - np.swapaxes(val, 1, 2) @ val
        unit, scale = _unit_diagonal(train[:, :-1, :-1])
        sizes = np.array([f.size for f in folds], dtype=np.float64)
        return cls(train, unit, scale, val, sizes)


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
    order, rows, columns, chunks = _size_chunks(masks, lambda d: chunk_size(d, n))
    fits = []
    for cols in chunks:
        beta, rss, _, ok = _solve(stats, cols)
        b0 = stats.y_mean - (stats.x_mean[cols][:, None, :] @ beta[:, :, None])[:, 0, 0]
        fits.append((b0, beta.ravel(), rss / n, ok))
    b0, beta, mse, ok = (np.concatenate(part) for part in zip(*fits))
    intercepts = np.empty(m, dtype=np.float64)
    coefs = np.zeros((m, k_total), dtype=np.float64)
    mses = np.empty(m, dtype=np.float64)
    solved = np.empty(m, dtype=np.bool_)
    intercepts[order] = b0
    coefs[order[rows], columns] = beta
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
    mses[mses <= zero_floor(n, stats.gram[-1, -1] / n)] = 0.0
    return intercepts, coefs, mses, deficient


def _size_chunks(masks: np.ndarray, per_chunk):
    """Mask rows by size (a stable sort), in chunks of at most ``per_chunk(d)``.

    Returns that row ``order``; the position in it (``rows``) and the
    column of every selected entry; and the chunks, one (size, d) array
    of column indices each, whose results concatenate in ``order``.
    """
    sizes = np.count_nonzero(masks, axis=1)
    order = np.argsort(sizes, kind="stable")
    rows, columns = np.nonzero(masks[order])
    chunks = []
    offset = 0
    for d, count in enumerate(np.bincount(sizes, minlength=1).tolist()):
        step = per_chunk(d)
        for lo in range(0, count, step):
            size = min(step, count - lo)
            chunks.append(columns[offset + lo * d : offset + (lo + size) * d].reshape(size, d))
        offset += count * d
    return order, rows, columns, chunks


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
    m_inv, ok = _gram_factor(stats.unit[cols[:, :, None], cols[:, None, :]], stats.scale[cols])
    beta = _gram_apply(m_inv, stats.gram[cols, -1])
    xs = stats.xct[cols]
    resid = yc - (beta[:, None, :] @ xs)[:, 0, :]
    beta += _gram_apply(m_inv, (xs @ resid[:, :, None])[:, :, 0])
    resid = yc - (beta[:, None, :] @ xs)[:, 0, :]
    rss = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
    return beta, rss, m_inv, ok


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


def fold_errors(folds: FoldStats, masks: np.ndarray):
    """Cross-validated errors of boolean ``masks`` (m, k) from ``folds``.

    Each (fold, mask) system, the intercept and the mask's columns, is
    solved against the fold's training Gram and scored on its held-out
    rows.  Returns the errors (m,), the mean over folds of the held-out
    MSE, and ``ok`` (m,), which masks passed the fallback rule in every
    fold; where ``ok`` is False the error is no fit.
    """
    n_folds, width = folds.gram.shape[:2]
    # per mask and fold: a system, a coefficient row and the held-out residuals
    rest = n_folds * width + folds.val[..., 0].size
    order, _, _, chunks = _size_chunks(
        masks, lambda d: max(1, CHUNK_ELEMENTS // (n_folds * (d + 1) ** 2 + rest))
    )
    f = np.arange(n_folds)[:, None]
    parts = []
    for cols in chunks:
        m, d = cols.shape
        # columns of A per mask: the intercept, then the selected predictors
        at = np.zeros((m, 1, d + 1), dtype=np.intp)
        at[:, 0, 1:] = cols + 1
        system = folds.unit[f[:, :, None], at[..., None], at[:, :, None, :]]
        m_inv, ok = _gram_factor(system.reshape(-1, d + 1, d + 1), folds.scale[f, at].reshape(-1, d + 1))
        beta = _gram_apply(m_inv, folds.gram[f, at, -1].reshape(-1, d + 1))
        # w = (beta, -1) on A's columns, so A_v w is minus the residual;
        # one product per (mask, fold), so no row depends on the others
        w = np.zeros((m, n_folds, width))
        w[..., -1] = -1.0
        w[np.arange(m)[:, None, None], f, at] = beta.reshape(m, n_folds, d + 1)
        resid = (folds.val @ w[..., None])[..., 0]
        fold_mse = (resid[..., None, :] @ resid[..., None])[..., 0, 0] / folds.sizes
        parts.append((fold_mse.mean(axis=1), ok.reshape(m, n_folds).all(axis=1)))
    errors = np.empty(masks.shape[0], dtype=np.float64)
    passed = np.empty(masks.shape[0], dtype=np.bool_)
    if parts:
        errors[order], passed[order] = (np.concatenate(part) for part in zip(*parts))
    return errors, passed


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


def _unit_diagonal(G):
    """Stacked systems scaled to unit diagonal: (D G D, D), D = diag(G)^(-1/2).

    A diagonal entry that is not positive keeps a scale of 1, so the
    Cholesky factorisation of that system fails.  Each entry is scaled as
    ``(G_ij * D_i) * D_j``, so a submatrix of a scaled system equals the
    scaled submatrix bit for bit.
    """
    diag = G.diagonal(axis1=1, axis2=2)
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    return G * scale[:, :, None] * scale[:, None, :], scale


def _gram_factor(C, scale):
    """Factor stacked systems G = C / (scale scale') and apply the fallback rule.

    ``C`` (m, d, d) holds the systems scaled to unit diagonal and
    ``scale`` (m, d) the scale D = diag(G)^(-1/2), so C = D G D; C is
    factored as L L'.  The condition estimate is
    ``||C||_inf * trace(C^-1)``, with trace(C^-1) = ||L^-1||_F^2: both
    factors bound the extreme eigenvalues from outside, so the estimate
    is never below cond_2(C).  Returns ``m_inv`` = L^-1 D per system, so
    that G^-1 = m_inv' m_inv, and ``ok``, False where the factorisation
    fails or the estimate exceeds ``GRAM_COND_MAX``; those systems must
    be solved another way, and their ``m_inv`` is zero.
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
    return m_inv, ok


def _gram_apply(m_inv, b):
    """Solve ``G x = b`` for each system factored as ``m_inv``; zero where not ok."""
    return (np.swapaxes(m_inv, 1, 2) @ (m_inv @ b[:, :, None]))[:, :, 0]
