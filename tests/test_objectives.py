import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoreg.data import Dataset
from paretoreg.objectives import (
    CROSS_VALIDATION,
    IN_SAMPLE,
    FoldPartition,
    ObjectiveEvaluator,
    ObjectiveSpec,
    aic,
    bic,
    make_partition,
)

from paretoreg.simdata import (
    expand_features,
    gen_additive,
    gen_correlated,
    truncate_predictors,
)

from conftest import lstsq_cv_error, lstsq_fit


class TestFoldPartition:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 60),
        folds=st.integers(2, 10),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_partition_properties(self, n, folds, seed):
        if folds > n:
            return
        part = make_partition(n, folds, seed)
        sizes = [len(f) for f in part.folds]
        all_idx = np.concatenate(part.folds)
        assert sorted(all_idx.tolist()) == list(range(n))
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        a = make_partition(30, 5, seed=3)
        b = make_partition(30, 5, seed=3)
        for fa, fb in zip(a.folds, b.folds):
            assert np.array_equal(fa, fb)

    def test_train_indices_complement(self):
        part = make_partition(20, 4, seed=0)
        for i, fold in enumerate(part.folds):
            train = part.train_indices(i)
            assert sorted(np.concatenate([train, fold]).tolist()) == list(range(20))

    def test_validation(self):
        with pytest.raises(ValueError):
            FoldPartition(n=10, folds=(np.arange(10),))  # single fold
        with pytest.raises(ValueError):
            FoldPartition(n=10, folds=(np.arange(5), np.arange(4)))  # not a partition
        with pytest.raises(ValueError):
            make_partition(3, 5, seed=0)  # more folds than rows
        with pytest.raises(ValueError):
            # 0.5 would truncate to row 0: row 1 lost, row 0 held out twice
            FoldPartition(n=3, folds=(np.array([0, 0.5]), np.array([2])))
        with pytest.raises(ValueError):
            FoldPartition(n=3, folds=([0, 1], np.array([2])))  # a list, not an array


def toy_dataset(n=24, k=4, seed=11):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, k))
    y = 0.5 + 1.2 * X[:, 0] - 0.7 * X[:, 2] + 0.05 * gen.normal(size=n)
    return Dataset(X=X, y=y, names=tuple(f"x{i + 1}" for i in range(k)))


class TestInSample:
    def test_matches_reference(self, toy_data):
        mask = np.array([False, True, False, False, True, False])
        ev = ObjectiveEvaluator(toy_data, ObjectiveSpec(kind=IN_SAMPLE))
        o = ev.evaluate(mask).objective
        _, _, mse_ref, _ = lstsq_fit(toy_data.X, toy_data.y, mask)
        assert o.complexity == 2
        assert abs(o.error - mse_ref) < 1e-10

    def test_empty_mask_variance(self, toy_data):
        ev = ObjectiveEvaluator(toy_data, ObjectiveSpec(kind=IN_SAMPLE))
        o = ev.evaluate(np.zeros(6, dtype=bool)).objective
        assert abs(o.error - np.var(toy_data.y)) < 1e-10


class TestCrossValidation:
    def test_two_fold_hand_oracle(self):
        # small enough to trace the estimator by hand with explicit refits
        data = toy_dataset(n=12, k=3, seed=5)
        mask = np.array([True, False, True])
        ev = ObjectiveEvaluator(data, ObjectiveSpec(kind=CROSS_VALIDATION, folds=2, seed=9))
        o = ev.evaluate(mask).objective
        part = ev.partition

        errs = []
        for i, fold in enumerate(part.folds):
            tr = part.train_indices(i)
            b0, b, _, _ = lstsq_fit(data.X[tr], data.y[tr], mask)
            pred = b0 + data.X[np.ix_(fold, np.flatnonzero(mask))] @ b
            errs.append(np.mean((data.y[fold] - pred) ** 2))
        assert abs(o.error - np.mean(errs)) < 1e-10
        assert o.complexity == 2

    def test_loo_equals_nfold_n(self):
        data = toy_dataset(n=10, k=3, seed=1)
        mask = np.array([True, True, False])
        ev = ObjectiveEvaluator(data, ObjectiveSpec(kind=CROSS_VALIDATION, folds=10, seed=0))
        o = ev.evaluate(mask).objective
        part = ev.partition
        errs = []
        for i in range(10):
            tr = part.train_indices(i)
            b0, b, _, _ = lstsq_fit(data.X[tr], data.y[tr], mask)
            row = part.folds[i][0]
            pred = b0 + data.X[row, np.flatnonzero(mask)] @ b
            errs.append((data.y[row] - pred) ** 2)
        assert abs(o.error - np.mean(errs)) < 1e-10

    def test_partition_reuse_is_deterministic(self):
        data = toy_dataset()
        spec = ObjectiveSpec(kind=CROSS_VALIDATION, folds=4, seed=7)
        ev1 = ObjectiveEvaluator(data, spec)
        ev2 = ObjectiveEvaluator(data, spec)
        mask = np.array([True, False, True, False])
        assert ev1.evaluate(mask).objective == ev2.evaluate(mask).objective


def duplicate_column_dataset():
    """12 rows, 8 columns, column 6 a copy of column 3."""
    gen = np.random.default_rng(9)
    X = gen.standard_normal((12, 8))
    X[:, 5] = X[:, 2]
    y = 1.0 + X[:, 0] - 2.0 * X[:, 2] + 0.3 * gen.standard_normal(12)
    return Dataset(X=X, y=y, names=tuple(f"v{i}" for i in range(8)))


def gram_cases():
    full, _ = gen_correlated(200, p=30, seed=3)
    raw, _ = gen_additive(300, seed=4)
    return {
        "correlated": (full, 10),
        "example1": (expand_features(raw), 10),
        # 2 folds of 6 rows: every mask of 6 or more columns has fewer
        # training rows than coefficients
        "duplicate_column": (duplicate_column_dataset(), 2),
    }


class TestGramCrossValidation:
    """The evaluator's fold-downdate CV errors against per-fold lstsq refits."""

    @pytest.mark.parametrize("case", ["correlated", "example1", "duplicate_column"])
    def test_matches_cv_objective(self, case):
        # the oracle is the CV objective's definition, refitted fold by
        # fold with lstsq
        data, folds = gram_cases()[case]
        spec = ObjectiveSpec(kind=CROSS_VALIDATION, folds=folds, seed=5)
        gen = np.random.default_rng(6)
        masks = gen.random((500, data.k)) < gen.random((500, 1))
        ev = ObjectiveEvaluator(data, spec)
        for mask, model in zip(masks, ev.evaluate_many(list(masks))):
            want = lstsq_cv_error(data.X, data.y, mask, ev.partition.folds)
            assert model.objective.complexity == int(mask.sum())
            assert model.objective.error == pytest.approx(want, rel=1e-10, abs=0)
        assert ev.svd_fallbacks < ev.unique_models
        if case == "correlated":
            assert ev.svd_fallbacks == 0
        else:
            assert ev.svd_fallbacks > 0

    @pytest.mark.parametrize("case", ["correlated_k30", "example1"])
    def test_errors_do_not_depend_on_the_batch(self, case):
        # a mask scored in a batch of 300 gets the same bytes as the mask
        # scored alone, on the Gram fold solves and on the fold refits
        if case == "example1":
            data, folds = gram_cases()[case]
        else:
            data, folds = truncate_predictors(gen_correlated(200, p=100, seed=1)[0], 30), 10
        spec = ObjectiveSpec(kind=CROSS_VALIDATION, folds=folds, seed=5)
        gen = np.random.default_rng(8)
        masks = list(gen.random((300, data.k)) < gen.random((300, 1)))
        batch = ObjectiveEvaluator(data, spec)
        lone = ObjectiveEvaluator(data, spec)
        got = [model.objective.error.hex() for model in batch.evaluate_many(masks)]
        assert got == [lone.evaluate(mask).objective.error.hex() for mask in masks]
        assert (batch.svd_fallbacks > 0) == (case == "example1")

    def test_large_mean_response_matches_per_fold_lstsq(self):
        # y - mean(y) sums to -n times the rounding in the mean, not to
        # zero; with a mean of 1e9 and a spread of 1e-4 a fold Gram
        # bordered by zero sums put the errors about 1e-6 off
        gen = np.random.default_rng(7)
        X = gen.standard_normal((1000, 6))
        y = 1e9 + 1e-4 * (X[:, 0] - 0.5 * X[:, 3] + gen.standard_normal(1000))
        masks = gen.random((100, 6)) < 0.5
        data = Dataset(X=X, y=y, names=tuple(f"x{i}" for i in range(6)))
        ev = ObjectiveEvaluator(data, ObjectiveSpec(kind=CROSS_VALIDATION, folds=5))
        # y - 1e9 is exact, and a shift of y leaves every intercept fit's
        # residuals unchanged
        for mask, model in zip(masks, ev.evaluate_many(list(masks))):
            want = lstsq_cv_error(X, y - 1e9, mask, ev.partition.folds)
            assert model.objective.error == pytest.approx(want, rel=1e-12, abs=0)
        assert ev.svd_fallbacks == 0


class TestObjectiveEvaluator:
    def test_memoization_counts(self, toy_data):
        ev = ObjectiveEvaluator(toy_data, ObjectiveSpec(kind=IN_SAMPLE))
        m1 = np.array([True, False, False, True, False, False])
        m2 = np.array([False, True, False, False, False, True])
        ev.evaluate(m1)
        ev.evaluate(m1)
        ev.evaluate(m2)
        assert ev.evaluations == 3
        assert ev.unique_models == 2

    def test_evaluate_many_matches_single(self, toy_data):
        gen = np.random.default_rng(2)
        masks = [gen.random(6) < 0.5 for _ in range(12)]
        ev = ObjectiveEvaluator(toy_data, ObjectiveSpec(kind=IN_SAMPLE))
        batch = ev.evaluate_many(masks)
        fresh = ObjectiveEvaluator(toy_data, ObjectiveSpec(kind=IN_SAMPLE))
        singles = [fresh.evaluate(m) for m in masks]
        for a, b in zip(batch, singles):
            assert a.objective == b.objective
            assert np.array_equal(a.mask, b.mask)

    def test_cv_coefficients_come_from_full_fit(self, toy_data):
        spec = ObjectiveSpec(kind=CROSS_VALIDATION, folds=5, seed=0)
        ev = ObjectiveEvaluator(toy_data, spec)
        mask = np.array([False, True, False, False, True, False])
        got = ev.evaluate(mask)
        b0, b, _, _ = lstsq_fit(toy_data.X, toy_data.y, mask)
        assert abs(got.intercept - b0) < 1e-10
        np.testing.assert_allclose(got.coefficients, b, atol=1e-10)

    def test_archive_collects_unique(self, toy_data):
        ev = ObjectiveEvaluator(toy_data, ObjectiveSpec(kind=IN_SAMPLE))
        m1 = np.array([True, False, False, False, False, False])
        ev.evaluate(m1)
        ev.evaluate(m1)
        ev.evaluate(np.zeros(6, dtype=bool))
        arch = ev.archive()
        assert len(arch) == 2
        # first-seen order
        assert np.array_equal(arch[0].mask, m1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(kind="bogus")
        with pytest.raises(ValueError):
            ObjectiveSpec(kind=CROSS_VALIDATION, folds=1)


class TestInformationCriteria:
    def test_hand_values(self):
        # aic = 2k/n + ln(mse); bic = k ln(n)/n + ln(mse)
        assert abs(aic(1.0, 0, 10) - 0.0) < 1e-12
        assert abs(aic(np.e, 3, 6) - (1.0 + 1.0)) < 1e-12
        assert abs(bic(1.0, 2, np.e**2) - (2 * 2 / np.e**2)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        mse=st.floats(1e-6, 1e6),
        k=st.integers(0, 40),
        n=st.integers(1, 5000),
    )
    def test_bic_penalizes_harder_for_large_n(self, mse, k, n):
        # for n >= 8, ln(n) > 2 so bic >= aic at equal fit
        if n >= 8:
            assert bic(mse, k, n) >= aic(mse, k, n) - 1e-12

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            aic(0.0, 1, 10)
        with pytest.raises(ValueError):
            aic(1.0, -1, 10)
        with pytest.raises(ValueError):
            bic(1.0, 1, 0)
