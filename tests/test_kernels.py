import numpy as np
import pytest

from paretoreg._kernels import active_backend, ols_batch

from conftest import lstsq_fit


def fit_one(X, y, mask):
    """One mask through the batch kernel: (intercept, selected coefs, mse, flag)."""
    mask = np.asarray(mask, dtype=bool)
    intercepts, coefs, mses, deficient = ols_batch(X, y, mask[None, :])
    return float(intercepts[0]), coefs[0][mask], float(mses[0]), bool(deficient[0])


def random_problem(seed, n=30, k=5):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, k))
    y = gen.standard_normal(n)
    return X, y


class TestAgainstLstsq:
    def test_matches_reference_on_random_masks(self):
        X, y = random_problem(0, n=50, k=8)
        gen = np.random.default_rng(1)
        masks = gen.random((20, 8)) < 0.5
        intercepts, coefs, mses, deficient = ols_batch(X, y, masks)
        for i in range(20):
            b0, b, mse, _ = lstsq_fit(X, y, masks[i])
            assert intercepts[i] == pytest.approx(b0, abs=1e-10)
            np.testing.assert_allclose(coefs[i][masks[i]], b, atol=1e-10)
            assert mses[i] == pytest.approx(mse, rel=1e-12, abs=1e-12)
            assert not deficient[i]

    def test_empty_mask_fits_mean(self):
        X, y = random_problem(2)
        b0, coefs, mse, deficient = fit_one(X, y, np.zeros(5, dtype=bool))
        assert b0 == pytest.approx(y.mean(), abs=1e-12)
        assert coefs.size == 0
        assert mse == pytest.approx(float(np.var(y)), rel=1e-12)
        assert not deficient

    def test_full_mask(self):
        X, y = random_problem(3)
        b0, coefs, mse, _ = fit_one(X, y, np.ones(5, dtype=bool))
        rb0, rb, rmse, _ = lstsq_fit(X, y, np.ones(5, dtype=bool))
        assert b0 == pytest.approx(rb0, abs=1e-10)
        np.testing.assert_allclose(coefs, rb, atol=1e-10)
        assert mse == pytest.approx(rmse, rel=1e-12)


class TestRankDeficiency:
    def test_duplicate_column_flagged_minimum_norm(self):
        gen = np.random.default_rng(5)
        base = gen.standard_normal(40)
        X = np.column_stack([base, base, gen.standard_normal(40)])
        y = 2.0 * base + gen.standard_normal(40) * 0.1
        b0, coefs, mse, deficient = fit_one(X, y, np.array([True, True, False]))
        assert deficient
        # minimum-norm solution splits the weight across the twin columns
        assert coefs[0] == pytest.approx(coefs[1], abs=1e-8)
        assert coefs[0] + coefs[1] == pytest.approx(2.0, abs=0.1)
        # fit quality is unharmed by the degeneracy
        only_one, _, mse_one, _ = fit_one(X, y, np.array([True, False, False]))
        assert mse == pytest.approx(mse_one, rel=1e-9)

    def test_more_parameters_than_rows(self):
        gen = np.random.default_rng(6)
        X = gen.standard_normal((4, 6))
        y = gen.standard_normal(4)
        b0, coefs, mse, deficient = fit_one(X, y, np.ones(6, dtype=bool))
        assert deficient
        # underdetermined system interpolates
        assert mse == pytest.approx(0.0, abs=1e-18)

    def test_constant_column_flagged(self):
        # a constant predictor is collinear with the intercept
        gen = np.random.default_rng(7)
        X = np.column_stack([np.full(30, 3.0), gen.standard_normal(30)])
        y = gen.standard_normal(30)
        _, _, _, deficient = fit_one(X, y, np.array([True, False]))
        assert deficient


class TestDeterminismAndBackends:
    def test_bit_identical_repeat(self):
        X, y = random_problem(8, n=60, k=7)
        masks = np.random.default_rng(9).random((10, 7)) < 0.5
        first = ols_batch(X, y, masks)
        second = ols_batch(X, y, masks)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_active_backend_reports(self):
        assert active_backend() == "numpy"

    def test_fortran_and_c_layouts_agree(self):
        X, y = random_problem(12, n=35, k=5)
        masks = np.random.default_rng(13).random((6, 5)) < 0.5
        out_c = ols_batch(np.ascontiguousarray(X), y, masks)
        out_f = ols_batch(np.asfortranarray(X), y, masks)
        for a, b in zip(out_c, out_f):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestValidation:
    def test_shape_errors(self):
        X, y = random_problem(14)
        with pytest.raises(ValueError):
            ols_batch(X, y[:-1], np.ones((1, 5), dtype=bool))
        with pytest.raises(ValueError):
            ols_batch(X, y, np.ones((1, 4), dtype=bool))

    def test_zero_masks_ok(self):
        X, y = random_problem(15)
        intercepts, coefs, mses, deficient = ols_batch(X, y, np.zeros((0, 5), dtype=bool))
        assert intercepts.shape == (0,)
        assert coefs.shape == (0, 5)
