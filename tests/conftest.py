import numpy as np
import pytest

from paretoreg.data import Dataset


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def toy_data():
    """Well-conditioned 40x6 dataset with a known sparse signal."""
    gen = np.random.default_rng(7)
    X = gen.standard_normal((40, 6))
    y = 1.5 + 2.0 * X[:, 1] - 3.0 * X[:, 4] + 0.1 * gen.standard_normal(40)
    return Dataset(X=X, y=y, names=[f"v{i}" for i in range(6)])


def lstsq_fit(X, y, mask):
    """Reference OLS via numpy lstsq on the intercept-augmented submatrix.

    Independent of the package kernels; used as the numeric oracle.
    """
    A = np.column_stack([np.ones(len(y)), X[:, np.asarray(mask, dtype=bool)]])
    beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ beta
    return beta[0], beta[1:], float(resid @ resid) / len(y), rank


def lstsq_cv_error(X, y, mask, folds):
    """Reference k-fold CV error: one lstsq refit per fold.

    The unweighted mean over ``folds`` (arrays of held-out row indices)
    of each fold's validation MSE; independent of the package kernels.
    """
    total = 0.0
    for val in folds:
        train = np.ones(len(y), dtype=bool)
        train[val] = False
        b0, b, _, _ = lstsq_fit(X[train], y[train], mask)
        resid = y[val] - (b0 + X[val][:, np.asarray(mask, dtype=bool)] @ b)
        total += float(resid @ resid) / len(val)
    return total / len(folds)
