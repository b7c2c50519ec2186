import numpy as np
import pytest

from paretoreg._kernels import (
    CHUNK_ELEMENTS,
    GRAM_COND_MAX,
    GramStats,
    _gram_apply,
    _gram_factor,
    _unit_diagonal,
    active_backend,
    drop_scores,
    ols_batch,
)
from paretoreg.data import Dataset
from paretoreg.objectives import CROSS_VALIDATION, IN_SAMPLE, ObjectiveEvaluator, ObjectiveSpec
from paretoreg.simdata import expand_features, gen_additive, gen_correlated

from conftest import lstsq_cv_error, lstsq_fit


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


def centred_lstsq_mse(X, y, mask):
    """Reference MSE from lstsq on the centred columns (no intercept column)."""
    Xc = (X - X.mean(axis=0))[:, mask]
    yc = y - y.mean()
    beta = np.linalg.lstsq(Xc, yc, rcond=None)[0]
    resid = yc - Xc @ beta
    return float(resid @ resid) / len(y)


def shifted_and_scaled(gen):
    """Well-conditioned columns behind a 1e8 shift and a 1e-6 scale."""
    X, y = random_problem(21, n=300, k=12)
    X[:, 0] += 1e8
    X[:, 1] = 1e-6 * gen.standard_normal(300) + 3.0
    return X, y


def accuracy_cases():
    return {
        "example1": expand_features(gen_additive(300, seed=4)[0]),
        "correlated": gen_correlated(500, p=100)[0],
    }


class TestGramPathAccuracy:
    @pytest.mark.parametrize("case", ["example1", "correlated", "shift_scale"])
    def test_matches_reference(self, case):
        gen = np.random.default_rng(0)
        if case == "shift_scale":
            X, y = shifted_and_scaled(gen)
            masks = gen.random((200, X.shape[1])) < 0.5
            masks[:, :2] |= gen.random((200, 2)) < 0.5
            _, _, mses, deficient = ols_batch(X, y, masks)
            assert not deficient.any()
            for i in range(masks.shape[0]):
                want = centred_lstsq_mse(X, y, masks[i])
                assert mses[i] == pytest.approx(want, rel=1e-10, abs=0)
            return
        data = accuracy_cases()[case]
        X, y = data.X, data.y
        masks = gen.random((400, X.shape[1])) < 0.5
        intercepts, coefs, mses, _ = ols_batch(X, y, masks)
        for i in range(masks.shape[0]):
            b0, b, mse, _ = lstsq_fit(X, y, masks[i])
            assert intercepts[i] == pytest.approx(b0, abs=1e-10)
            np.testing.assert_allclose(coefs[i][masks[i]], b, atol=1e-10)
            assert mses[i] == pytest.approx(mse, rel=1e-12, abs=1e-12)

    def test_small_spread_response_keeps_its_error(self):
        # a response with a real spread of about 1e-4 (some 800 ulps)
        # about a mean of 1e9 is not constant: its fits are real, not 0
        gen = np.random.default_rng(7)
        X = gen.standard_normal((1000, 6))
        noise = X[:, 0] - 0.5 * X[:, 3] + gen.standard_normal(1000)
        y = 1e9 + 1e-4 * noise
        # y - 1e9 is exact, so a fit to it is free of the large mean
        shifted = y - 1e9
        masks = gen.random((100, 6)) < 0.5
        _, _, mses, deficient = ols_batch(X, y, masks)
        assert not deficient.any()
        assert (mses > 0.0).all()
        for i in range(masks.shape[0]):
            assert mses[i] == pytest.approx(centred_lstsq_mse(X, y, masks[i]), rel=1e-10, abs=0)
            assert mses[i] == pytest.approx(lstsq_fit(X, shifted, masks[i])[2], rel=1e-6, abs=0)
        data = Dataset(X=X, y=y, names=tuple(f"x{i}" for i in range(6)))
        evaluator = ObjectiveEvaluator(data, ObjectiveSpec(kind=CROSS_VALIDATION, folds=5))
        folds = evaluator.partition.folds
        # CV errors keep the spread too (tests/test_objectives.py checks
        # them against the shifted fit fold by fold at rel 1e-12)
        for i, model in enumerate(evaluator.evaluate_many(list(masks))):
            want = lstsq_cv_error(X, shifted, masks[i], folds)
            assert model.objective.error == pytest.approx(want, rel=1e-5, abs=0)


class TestScaledResponse:
    """Scaling y by s scales every MSE by s^2 and every coefficient by s."""

    @pytest.mark.parametrize("case", ["example1", "correlated"])
    @pytest.mark.parametrize("s", [1e-100, 1e100])
    def test_fits_scale_with_the_response(self, case, s):
        if case == "example1":
            data = expand_features(gen_additive(300, seed=4)[0])
        else:
            data = gen_correlated(200, p=12, seed=3)[0]
        gen = np.random.default_rng(10)
        masks = gen.random((300, data.k)) < gen.random((300, 1))
        b0, coefs, mses, deficient = ols_batch(data.X, data.y, masks)
        b0_s, coefs_s, mses_s, deficient_s = ols_batch(data.X, s * data.y, masks)
        np.testing.assert_allclose(mses_s, s * s * mses, rtol=1e-12, atol=0)
        want = s * np.column_stack((b0, coefs))
        got = np.column_stack((b0_s, coefs_s))
        assert (np.abs(got - want) <= 1e-10 * np.abs(want).max(axis=1, keepdims=True)).all()
        assert np.array_equal(deficient_s, deficient)


class TestBatchIndependence:
    def test_each_row_equals_its_lone_fit(self):
        gen = np.random.default_rng(4)
        n, k = 200, 12
        X = gen.standard_normal((n, k))
        X[:, 3] = X[:, 1]
        X[:, 7] = 2.5
        y = X[:, 0] - X[:, 5] + gen.standard_normal(n)
        masks = gen.random((300, k)) < gen.random((300, 1))
        # one size group larger than a chunk
        size4 = np.zeros((120, k), dtype=bool)
        for row in size4:
            row[gen.choice(k, 4, replace=False)] = True
        masks = np.concatenate((masks, size4))[gen.permutation(420)]
        assert 120 > CHUNK_ELEMENTS // (4 * (4 + n) + n)
        batch = ols_batch(X, y, masks)
        deficient = batch[3]
        assert deficient.any() and not deficient.all()
        with_stats = ols_batch(X, y, masks, stats=GramStats.of(X, y))
        for a, b in zip(batch, with_stats):
            np.testing.assert_array_equal(a, b)
        for i in range(masks.shape[0]):
            alone = ols_batch(X, y, masks[i : i + 1])
            for a, b in zip(batch, alone):
                np.testing.assert_array_equal(a[i : i + 1], b)


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

    def test_interpolating_fit_reports_exact_zero(self):
        # both masks interpolate the 8 rows, so their residuals are
        # rounding and fall under the SSE zero floor; the first is solved
        # from the normal equations, the second (more coefficients than
        # rows) by the SVD
        gen = np.random.default_rng(0)
        X = gen.standard_normal((8, 12))
        y = gen.standard_normal(8)
        masks = np.zeros((2, 12), dtype=bool)
        masks[0, :7] = True
        masks[1, 2:] = True
        _, _, mses, deficient = ols_batch(X, y, masks)
        assert deficient.tolist() == [False, True]
        assert mses.tolist() == [0.0, 0.0]

    def test_constant_response_reports_exact_zero(self):
        # y = 3.7 has no spread, so the intercept fits it exactly; masks
        # holding both copies of column 0 go to the SVD, whose residual is
        # rounding, and the floor's reference (the centred SST) is 0
        X = np.random.default_rng(0).standard_normal((20, 3))
        X[:, 2] = X[:, 0]
        data = Dataset(X=X, y=np.full(20, 3.7), names=("a", "b", "c"))
        masks = np.array([[1, 0, 1], [1, 1, 1], [1, 0, 0], [0, 0, 0]], dtype=bool)
        _, _, mses, deficient = ols_batch(data.X, data.y, masks)
        assert deficient.tolist() == [True, True, False, False]
        assert mses.tolist() == [0.0] * 4
        for kind in (IN_SAMPLE, CROSS_VALIDATION):
            evaluator = ObjectiveEvaluator(data, ObjectiveSpec(kind=kind, folds=5))
            errors = [m.objective.error for m in evaluator.evaluate_many(list(masks))]
            assert errors == [0.0] * 4

    def test_constant_column_flagged(self):
        # a constant predictor is collinear with the intercept
        gen = np.random.default_rng(7)
        X = np.column_stack([np.full(30, 3.0), gen.standard_normal(30)])
        y = gen.standard_normal(30)
        _, _, _, deficient = fit_one(X, y, np.array([True, False]))
        assert deficient

    @pytest.mark.parametrize("n, value", [(37, 3.7), (3, 0.1), (500, -2.9)])
    def test_inexact_constant_column_minimum_norm(self, n, value):
        # the mean of the constant column is not exact in floating point,
        # so its centred values are rounding; it must still be flagged
        # and get the minimum-norm split with the intercept
        gen = np.random.default_rng(8)
        X = np.column_stack([np.full(n, value), gen.standard_normal(n)])
        y = 2.0 + X[:, 1] + gen.standard_normal(n)
        assert X.mean(axis=0)[0] != value
        for mask in ([True, False], [True, True]):
            cols = np.flatnonzero(mask)
            b0, coefs, mse, deficient = fit_one(X, y, np.array(mask))
            assert deficient
            A = np.column_stack((np.ones(n), X[:, cols]))
            ref = np.linalg.lstsq(A, y, rcond=None)[0]
            np.testing.assert_allclose(np.r_[b0, coefs], ref, rtol=1e-10, atol=1e-12)
            assert mse == pytest.approx(np.mean((y - A @ ref) ** 2), rel=1e-12)


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


def spd_with_condition(gen, d, cond):
    """A random symmetric positive definite d x d matrix of given 2-norm condition."""
    Q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    return (Q * np.geomspace(1.0, 1.0 / cond, d)) @ Q.T


class TestGramSolve:
    def test_solves_and_flags_each_system_alone(self):
        gen = np.random.default_rng(3)
        d = 5
        good = [spd_with_condition(gen, d, c) for c in (1.0, 10.0, 1e3)]
        singular = np.ones((d, d))
        indefinite = np.diag([1.0, 1.0, -1.0, 1.0, 1.0])
        zero_diagonal = np.eye(d)
        zero_diagonal[2, 2] = 0.0
        ill = spd_with_condition(gen, d, 1e3 * GRAM_COND_MAX)
        # failures sit between good systems, so one failing factorisation
        # must not reject its neighbours
        G = np.stack([good[0], singular, good[1], indefinite, zero_diagonal, good[2], ill])
        G = G * np.array([1.0, 2.0, 1e6, 1.0, 1.0, 1e-6, 1.0])[:, None, None]
        b = gen.standard_normal((G.shape[0], d))
        m_inv, ok = _gram_factor(*_unit_diagonal(G))
        x = _gram_apply(m_inv, b)
        assert ok.tolist() == [True, False, True, False, False, True, False]
        for i in np.flatnonzero(ok):
            np.testing.assert_allclose(x[i], np.linalg.solve(G[i], b[i]), rtol=1e-10)
        assert not x[~ok].any()

    def test_rejects_every_system_above_the_bound(self):
        # the rule reads the condition of the system scaled to unit
        # diagonal, and its estimate bounds that from above, so no system
        # whose scaled condition exceeds the bound can pass
        gen = np.random.default_rng(4)
        for d in (2, 4, 8, 16):
            conds = GRAM_COND_MAX * np.geomspace(0.1, 1e4, 40)
            G = np.stack([spd_with_condition(gen, d, c) for c in conds])
            m_inv, ok = _gram_factor(*_unit_diagonal(G))
            assert not _gram_apply(m_inv, gen.standard_normal((40, d)))[~ok].any()
            s = 1.0 / np.sqrt(np.einsum("mii->mi", G))
            w = np.linalg.eigvalsh(G * s[:, :, None] * s[:, None, :])
            scaled_cond = w[:, -1] / w[:, 0]
            assert (scaled_cond > GRAM_COND_MAX).sum() >= 10
            assert not ok[scaled_cond > GRAM_COND_MAX].any()

    def test_accepts_well_conditioned_systems(self):
        gen = np.random.default_rng(5)
        for d in (1, 3, 10, 31):
            G = np.stack([spd_with_condition(gen, d, 100.0) for _ in range(8)])
            b = gen.standard_normal((8, d))
            m_inv, ok = _gram_factor(*_unit_diagonal(G))
            assert ok.all()
            want = np.linalg.solve(G, b[:, :, None])[:, :, 0]
            np.testing.assert_allclose(_gram_apply(m_inv, b), want, rtol=1e-10)


class TestDropScores:
    def test_scores_match_refits(self):
        # three-column sets of a correlated 120x10 problem; the set's RSS
        # and each one-column-smaller RSS equal ols_batch's to rel 1e-10
        data = gen_correlated(120, p=10, seed=3)[0]
        X, y, n = data.X, data.y, data.n
        gen = np.random.default_rng(4)
        cols = np.stack([gen.choice(10, size=3, replace=False) for _ in range(12)])
        rss, dropped, ok = drop_scores(GramStats.of(X, y), cols)
        assert ok.all()
        for row, r, drops in zip(cols, rss, dropped):
            mask = np.zeros(10, dtype=bool)
            mask[row] = True
            smaller = np.repeat(mask[None, :], 3, axis=0)
            smaller[np.arange(3), row] = False
            mses = ols_batch(X, y, np.vstack((mask, smaller)))[2]
            assert r == pytest.approx(mses[0] * n, rel=1e-10)
            assert drops == pytest.approx(mses[1:] * n, rel=1e-10)

    def test_chunks_do_not_move_bits(self):
        # each row of a batch equals, byte for byte, the row of a call on
        # that set alone
        X, y = random_problem(6, n=40, k=6)
        stats = GramStats.of(X, y)
        cols = np.array([[0, 2, 5], [1, 2, 3], [3, 4, 5], [0, 1, 4]])
        whole = drop_scores(stats, cols)
        for i in range(cols.shape[0]):
            for got, want in zip(drop_scores(stats, cols[i : i + 1]), whole):
                assert got.tobytes() == want[i : i + 1].tobytes()

    def test_empty_set_and_failed_systems(self):
        X, y = random_problem(5, n=25, k=4)
        X[:, 3] = X[:, 1]
        stats = GramStats.of(X, y)
        rss, dropped, ok = drop_scores(stats, np.zeros((2, 0), dtype=np.intp))
        assert dropped.shape == (2, 0) and ok.all()
        assert rss.tolist() == [float(stats.yc @ stats.yc)] * 2
        rss, dropped, ok = drop_scores(stats, np.array([[0, 1], [1, 3]]))
        assert ok.tolist() == [True, False]
        assert np.isfinite(dropped).all()
