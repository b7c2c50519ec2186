"""Output checks that do not use the library's own fitting code.

Every reported model is refitted here with ``numpy.linalg.lstsq`` on
the intercept-augmented submatrix and compared at a relative tolerance
of 1e-10.  Frontiers must be strictly monotone, and the hypervolume
uses the reference point (K+1, intercept-only error).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

REL_TOL = 1e-10


class Model(NamedTuple):
    """One reported model, in the form the checks compare."""

    mask: np.ndarray
    complexity: int
    error: float
    intercept: float
    coefs: np.ndarray


def digest(models: Sequence[Model]) -> tuple:
    """Bit-exact fingerprint of a frontier."""
    return tuple(
        (m.mask.tobytes(), m.complexity, float(m.error).hex(), float(m.intercept).hex(), m.coefs.tobytes())
        for m in models
    )


def lstsq_fit(X: np.ndarray, y: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, float]:
    """(intercept and coefficients, mean squared residual) by lstsq."""
    A = np.column_stack([np.ones(X.shape[0]), X[:, mask]])
    beta = np.linalg.lstsq(A, y, rcond=None)[0]
    resid = y - A @ beta
    return beta, float(resid @ resid) / X.shape[0]


def cv_error(X: np.ndarray, y: np.ndarray, mask: np.ndarray, folds) -> float:
    """Unweighted mean of validation MSEs over the given folds."""
    total = 0.0
    for val in folds:
        train = np.ones(X.shape[0], dtype=bool)
        train[val] = False
        beta, _ = lstsq_fit(X[train], y[train], mask)
        resid = y[val] - (beta[0] + X[val][:, mask] @ beta[1:])
        total += float(resid @ resid) / len(val)
    return total / len(folds)


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(scale), np.finfo(np.float64).tiny)


def refit_failures(X, y, models: Sequence[Model], folds=None) -> list[str]:
    """Models whose coefficients or error disagree with an lstsq refit.

    Coefficients are always full-data fits; the error is the in-sample
    MSE, or with ``folds`` the cross-validated error recomputed per fold.
    """
    out = []
    for m in models:
        if int(m.mask.sum()) != m.complexity or m.coefs.shape != (m.complexity,):
            out.append(f"complexity {m.complexity}: mask and coefficients disagree")
            continue
        beta, mse = lstsq_fit(X, y, m.mask)
        scale = float(np.max(np.abs(beta)))
        got = np.concatenate(([m.intercept], m.coefs))
        if not all(_close(g, b, scale) for g, b in zip(got, beta)):
            out.append(f"complexity {m.complexity}: coefficients differ from lstsq")
        ref = mse if folds is None else cv_error(X, y, m.mask, folds)
        if not _close(m.error, ref, ref):
            out.append(f"complexity {m.complexity}: error {m.error!r} != refit {ref!r}")
    return out


def monotone_failures(models: Sequence[Model]) -> list[str]:
    """A frontier's complexities rise and its errors fall, strictly."""
    out = []
    for prev, cur in zip(models, models[1:]):
        if not (cur.complexity > prev.complexity and cur.error < prev.error):
            out.append(
                f"not strictly monotone at complexity {prev.complexity} -> {cur.complexity}"
            )
    return out


def hypervolume(models: Sequence[Model], k: int, err0: float) -> float:
    """Area dominated by the frontier inside [0, K+1] x [0, err0], over its size.

    ``err0`` is the intercept-only model's error, so the reference point
    is (K+1, err0) and the value lies in [0, 1]; higher is better.
    """
    pts = sorted((m.complexity, m.error) for m in models)
    area = 0.0
    for i, (c, e) in enumerate(pts):
        nxt = pts[i + 1][0] if i + 1 < len(pts) else k + 1
        area += (nxt - c) * max(0.0, err0 - e)
    return area / ((k + 1) * err0)


def exact_gap(models: Sequence[Model], exact: dict[int, float]) -> float:
    """Largest relative excess of a reported error over the exact optimum
    at the same complexity."""
    return max((m.error - exact[m.complexity]) / exact[m.complexity] for m in models)
