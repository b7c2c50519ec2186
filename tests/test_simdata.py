import math

import numpy as np
import pytest

from paretoreg.data import Dataset
from paretoreg.objectives import ObjectiveEvaluator
from paretoreg.simdata import (
    TrueModel,
    expand_features,
    expanded_names,
    gen_additive,
    gen_correlated,
    truncate_predictors,
)


class TestExpandedNames:
    def test_order_and_suffixes(self):
        names = expanded_names(("a", "b"))
        assert names == (
            "a_lin", "a_sq", "a_cube", "a_log", "a_exp",
            "b_lin", "b_sq", "b_cube", "b_log", "b_exp",
        )


class TestExpandFeatures:
    def test_columns_match_elementwise_oracle(self):
        X = np.array([[0.5, 2.0], [1.0, 3.0], [2.5, 0.1]])
        data = Dataset(X=X, y=np.array([1.0, 2.0, 3.0]), names=("u", "v"))
        out = expand_features(data)
        assert out.k == 10
        assert out.names == expanded_names(("u", "v"))
        for j, col in enumerate(("u", "v")):
            raw = X[:, j]
            base = 5 * j
            np.testing.assert_allclose(out.X[:, base + 0], raw)
            np.testing.assert_allclose(out.X[:, base + 1], [v * v for v in raw])
            np.testing.assert_allclose(out.X[:, base + 2], [v**3 for v in raw])
            np.testing.assert_allclose(out.X[:, base + 3], [math.log(v) for v in raw])
            np.testing.assert_allclose(out.X[:, base + 4], [math.exp(v) for v in raw])
        np.testing.assert_allclose(out.y, data.y)

    def test_rejects_nonpositive_column(self):
        X = np.array([[1.0, -2.0], [2.0, 3.0]])
        data = Dataset(X=X, y=np.array([0.0, 1.0]), names=("ok", "bad"))
        with pytest.raises(ValueError, match="bad"):
            expand_features(data)


class TestGenAdditive:
    def test_deterministic(self):
        d1, t1 = gen_additive(50, seed=9)
        d2, t2 = gen_additive(50, seed=9)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.y, d2.y)
        assert t1.names == t2.names

    def test_shapes_and_support(self):
        data, _ = gen_additive(300, seed=1)
        assert data.X.shape == (300, 5)
        assert data.names == ("x1", "x2", "x3", "x4", "x5")
        highs = (1.0, 2.0, 1.0, 4.0, 5.0)
        for j, h in enumerate(highs):
            col = data.X[:, j]
            assert (col > 0).all() and (col < h).all()

    def test_noiseless_response_formula(self):
        data, _ = gen_additive(40, seed=3, noise_sd=0.0)
        x1, x2, x3, x4 = (data.X[:, j] for j in range(4))
        want = 10 + 5 * x1 + 2 * np.exp(x2) + 5 * x3 + 3 * x3**3 + 0.1 * x4**3
        np.testing.assert_allclose(data.y, want, atol=1e-12)

    def test_mean_response_matches_analytic_value(self):
        # closed-form term means for U(0, h) inputs:
        #   E[x] = h/2, E[x^3] = h^3/4, E[e^x] = (e^h - 1)/h
        expected = (
            10.0
            + 5 * 0.5
            + 2 * (math.e**2 - 1) / 2
            + 5 * 0.5
            + 3 * 0.25
            + 0.1 * 4.0**3 / 4
        )
        data, _ = gen_additive(20000, seed=5)
        assert abs(data.y.mean() - expected) < 0.2

    def test_truth_indices_in_expanded_space(self):
        _, truth = gen_additive(10, seed=0)
        assert truth.names == ("x1_lin", "x2_exp", "x3_lin", "x3_cube", "x4_cube")
        np.testing.assert_allclose(truth.coefficients, [5, 2, 5, 3, 0.1])
        assert truth.intercept == 10.0
        assert len(truth.space_names) == 25
        space = truth.space_names
        idx = np.flatnonzero(truth.mask)
        assert [space[i] for i in idx] == sorted(
            truth.names, key=space.index
        )
        assert set(idx) == {0, 9, 10, 12, 17}

    def test_true_model_fit_recovers_coefficients(self):
        data, truth = gen_additive(2000, seed=17)
        wide = expand_features(data)
        fit = ObjectiveEvaluator(wide).evaluate(truth.mask)
        assert abs(fit.intercept - 10.0) < 0.3
        np.testing.assert_allclose(
            fit.coefficients, [5, 2, 5, 3, 0.1], atol=0.3
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_additive(1)
        with pytest.raises(ValueError):
            gen_additive(10, noise_sd=-0.1)


class TestGenCorrelated:
    def test_deterministic(self):
        d1, _ = gen_correlated(40, p=12, seed=4)
        d2, _ = gen_correlated(40, p=12, seed=4)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.y, d2.y)

    def test_pairwise_correlation_near_design_value(self):
        # x_j = 2z + d_j gives corr 4 / (4 + 1) = 0.8 for every pair
        data, _ = gen_correlated(800, p=20, seed=2)
        corr = np.corrcoef(data.X.T)
        off = corr[~np.eye(20, dtype=bool)]
        assert abs(off.mean() - 0.8) < 0.05

    def test_noiseless_response_formula(self):
        data, truth = gen_correlated(30, p=15, seed=6, noise_sd=0.0)
        want = data.X[:, :10] @ (np.arange(1, 11) / 10.0)
        np.testing.assert_allclose(data.y, want, atol=1e-12)
        assert truth.intercept == 0.0
        assert truth.names == tuple(f"x{j}" for j in range(1, 11))

    def test_truth_mask(self):
        _, truth = gen_correlated(20, p=14, seed=0)
        mask = truth.mask
        assert mask[:10].all() and not mask[10:].any()

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_correlated(1)
        with pytest.raises(ValueError):
            gen_correlated(20, p=9)
        with pytest.raises(ValueError):
            gen_correlated(20, noise_sd=-1.0)


class TestTruncation:
    def test_truncate_predictors(self):
        data, _ = gen_correlated(25, p=30, seed=1)
        cut = truncate_predictors(data, 15)
        assert cut.k == 15
        assert cut.names == data.names[:15]
        np.testing.assert_array_equal(cut.X, data.X[:, :15])
        np.testing.assert_array_equal(cut.y, data.y)
        with pytest.raises(ValueError):
            truncate_predictors(data, 0)
        with pytest.raises(ValueError):
            truncate_predictors(data, 31)

    def test_truth_truncation_keeps_terms(self):
        # the truth of a dataset cut to its first 15 columns is the first
        # 15 entries of the mask, and they hold every true term
        _, truth = gen_correlated(20, p=40, seed=0)
        assert truth.mask[:15].sum() == len(truth.names) == 10
        assert truth.mask[:9].sum() < len(truth.names)

    def test_additive_truth_truncation_limit(self):
        _, truth = gen_additive(10, seed=0)
        # x4_cube sits at index 17
        assert truth.mask[:18].sum() == len(truth.names)
        assert truth.mask[:17].sum() < len(truth.names)


class TestTrueModelValidation:
    def test_coefficient_length(self):
        with pytest.raises(ValueError):
            TrueModel(
                names=("a",),
                coefficients=np.array([1.0, 2.0]),
                intercept=0.0,
                noise_sd=1.0,
                space_names=("a", "b"),
            )

    def test_unknown_term(self):
        with pytest.raises(ValueError):
            TrueModel(
                names=("zz",),
                coefficients=np.array([1.0]),
                intercept=0.0,
                noise_sd=1.0,
                space_names=("a", "b"),
            )
