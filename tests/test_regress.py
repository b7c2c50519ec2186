"""Least-squares fits of masked submodels and their predictions.

Every model comes from ``ObjectiveEvaluator(data).evaluate(mask)``; its
in-sample error is the MSE with divisor n and ``predict`` applies it to
new rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoreg._kernels import ols_batch
from paretoreg.data import Dataset
from paretoreg.objectives import ObjectiveEvaluator

from conftest import lstsq_fit


class TestFitOls:
    """The full-data fit behind every model: intercept, coefficients, MSE."""

    def test_matches_reference(self, toy_data):
        mask = np.array([False, True, False, False, True, False])
        fit = ObjectiveEvaluator(toy_data).evaluate(mask)
        b0, b, ref_mse, _ = lstsq_fit(toy_data.X, toy_data.y, mask)
        assert fit.intercept == pytest.approx(b0, abs=1e-10)
        np.testing.assert_allclose(fit.coefficients, b, atol=1e-10)
        assert fit.objective.error == pytest.approx(ref_mse, rel=1e-12)
        assert not ols_batch(toy_data.X, toy_data.y, mask[None])[3][0]

    def test_recovers_known_signal(self, toy_data):
        fit = ObjectiveEvaluator(toy_data).evaluate(
            np.array([False, True, False, False, True, False])
        )
        assert fit.intercept == pytest.approx(1.5, abs=0.1)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=0.1)
        assert fit.coefficients[1] == pytest.approx(-3.0, abs=0.1)

    def test_deterministic_bits(self, toy_data):
        mask = np.array([True, True, False, True, False, False])
        a = ObjectiveEvaluator(toy_data).evaluate(mask)
        b = ObjectiveEvaluator(toy_data).evaluate(mask)
        assert a.intercept == b.intercept
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert a.objective.error == b.objective.error

    def test_mask_length_checked(self, toy_data):
        with pytest.raises(ValueError):
            ObjectiveEvaluator(toy_data).evaluate(np.array([True, False]))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_nested_models_never_fit_worse(self, seed):
        gen = np.random.default_rng(seed)
        X = gen.standard_normal((25, 6))
        y = gen.standard_normal(25)
        ev = ObjectiveEvaluator(Dataset(X=X, y=y, names=[f"c{i}" for i in range(6)]))
        small = gen.random(6) < 0.4
        big = small | (gen.random(6) < 0.4)
        assert ev.evaluate(big).objective.error <= ev.evaluate(small).objective.error + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.01, 100.0))
    def test_column_scaling_equivariance(self, seed, scale):
        gen = np.random.default_rng(seed)
        X = gen.standard_normal((30, 4))
        y = gen.standard_normal(30)
        mask = np.array([True, True, False, True])
        base = ObjectiveEvaluator(Dataset(X=X, y=y, names=list("abcd"))).evaluate(mask)
        X2 = X.copy()
        X2[:, 1] *= scale
        scaled = ObjectiveEvaluator(Dataset(X=X2, y=y, names=list("abcd"))).evaluate(mask)
        assert scaled.objective.error == pytest.approx(
            base.objective.error, rel=1e-9, abs=1e-12
        )
        np.testing.assert_allclose(
            scaled.coefficients,
            base.coefficients / np.array([1.0, scale, 1.0]),
            rtol=1e-8,
            atol=1e-12,
        )

    def test_residual_orthogonality(self, toy_data):
        mask = np.array([True, False, True, False, True, False])
        fit = ObjectiveEvaluator(toy_data).evaluate(mask)
        resid = toy_data.y - fit.predict(toy_data.X)
        scale = np.linalg.norm(toy_data.y)
        assert abs(resid.sum()) <= 1e-8 * scale
        for j in np.flatnonzero(mask):
            assert abs(resid @ toy_data.X[:, j]) <= 1e-8 * scale


class TestPredict:
    def test_empty_mask_predicts_constant(self, toy_data):
        fit = ObjectiveEvaluator(toy_data).evaluate(np.zeros(6, dtype=bool))
        np.testing.assert_allclose(
            fit.predict(toy_data.X), np.full(toy_data.n, toy_data.y.mean())
        )

    def test_new_rows(self, toy_data):
        fit = ObjectiveEvaluator(toy_data).evaluate(
            np.array([False, True, False, False, True, False])
        )
        Xnew = np.array([[0.0, 1.0, 0.0, 0.0, -1.0, 0.0]])
        expected = fit.intercept + fit.coefficients[0] - fit.coefficients[1] * 1.0
        assert fit.predict(Xnew)[0] == pytest.approx(expected, rel=1e-12)

    def test_shape_validation(self, toy_data):
        fit = ObjectiveEvaluator(toy_data).evaluate(
            np.array([False, True, False, False, True, False])
        )
        with pytest.raises(ValueError):
            fit.predict(np.ones((2, 4)))
        with pytest.raises(ValueError):
            fit.predict(np.ones(6))
