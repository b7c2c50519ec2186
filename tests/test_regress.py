import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoreg.data import Dataset
from paretoreg.regress import fit_ols, predict

from conftest import lstsq_fit


class TestFitOls:
    def test_matches_reference(self, toy_data):
        mask = np.array([False, True, False, False, True, False])
        fit = fit_ols(toy_data, mask)
        b0, b, ref_mse, _ = lstsq_fit(toy_data.X, toy_data.y, mask)
        assert fit.intercept == pytest.approx(b0, abs=1e-10)
        np.testing.assert_allclose(fit.coefficients, b, atol=1e-10)
        assert fit.mse == pytest.approx(ref_mse, rel=1e-12)
        assert not fit.rank_deficient

    def test_recovers_known_signal(self, toy_data):
        fit = fit_ols(toy_data, np.array([False, True, False, False, True, False]))
        assert fit.intercept == pytest.approx(1.5, abs=0.1)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=0.1)
        assert fit.coefficients[1] == pytest.approx(-3.0, abs=0.1)

    def test_deterministic_bits(self, toy_data):
        mask = np.array([True, True, False, True, False, False])
        a, b = fit_ols(toy_data, mask), fit_ols(toy_data, mask)
        assert a.intercept == b.intercept
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert a.mse == b.mse

    def test_mask_length_checked(self, toy_data):
        with pytest.raises(ValueError):
            fit_ols(toy_data, np.array([True, False]))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_nested_models_never_fit_worse(self, seed):
        gen = np.random.default_rng(seed)
        X = gen.standard_normal((25, 6))
        y = gen.standard_normal(25)
        data = Dataset(X=X, y=y, names=[f"c{i}" for i in range(6)])
        small = gen.random(6) < 0.4
        big = small | (gen.random(6) < 0.4)
        assert fit_ols(data, big).mse <= fit_ols(data, small).mse + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.01, 100.0))
    def test_column_scaling_equivariance(self, seed, scale):
        gen = np.random.default_rng(seed)
        X = gen.standard_normal((30, 4))
        y = gen.standard_normal(30)
        mask = np.array([True, True, False, True])
        base = fit_ols(Dataset(X=X, y=y, names=list("abcd")), mask)
        X2 = X.copy()
        X2[:, 1] *= scale
        scaled = fit_ols(Dataset(X=X2, y=y, names=list("abcd")), mask)
        assert scaled.mse == pytest.approx(base.mse, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(
            scaled.coefficients,
            base.coefficients / np.array([1.0, scale, 1.0]),
            rtol=1e-8,
            atol=1e-12,
        )

    def test_residual_orthogonality(self, toy_data):
        mask = np.array([True, False, True, False, True, False])
        fit = fit_ols(toy_data, mask)
        resid = toy_data.y - predict(fit, mask, toy_data.X)
        scale = np.linalg.norm(toy_data.y)
        assert abs(resid.sum()) <= 1e-8 * scale
        for j in np.flatnonzero(mask):
            assert abs(resid @ toy_data.X[:, j]) <= 1e-8 * scale


class TestPredict:
    def test_empty_mask_predicts_constant(self, toy_data):
        mask = np.zeros(6, dtype=bool)
        fit = fit_ols(toy_data, mask)
        out = predict(fit, mask, toy_data.X)
        np.testing.assert_allclose(out, np.full(toy_data.n, toy_data.y.mean()))

    def test_new_rows(self, toy_data):
        mask = np.array([False, True, False, False, True, False])
        fit = fit_ols(toy_data, mask)
        Xnew = np.array([[0.0, 1.0, 0.0, 0.0, -1.0, 0.0]])
        expected = fit.intercept + fit.coefficients[0] - fit.coefficients[1] * 1.0
        assert predict(fit, mask, Xnew)[0] == pytest.approx(expected, rel=1e-12)

    def test_shape_validation(self, toy_data):
        mask = np.array([False, True, False, False, True, False])
        fit = fit_ols(toy_data, mask)
        with pytest.raises(ValueError):
            predict(fit, mask, np.ones((2, 4)))
        with pytest.raises(ValueError):
            predict(fit, np.ones(6, dtype=bool), toy_data.X)
