from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paretoreg._kernels
from paretoreg.baselines import (
    EXHAUSTIVE_K_LIMIT,
    backward_elimination,
    best_subset_table,
    exhaustive_frontier,
    forward_selection,
    stepwise_selection,
)
from paretoreg._kernels import GramStats, ols_batch
from paretoreg.data import Dataset
from paretoreg.objectives import ObjectiveEvaluator
from paretoreg.simdata import gen_correlated, truncate_predictors

from conftest import lstsq_fit


def brute_best_per_complexity(data):
    """Reference best-subset table via raw enumeration and lstsq."""
    k = data.k
    out = {}
    for d in range(k + 1):
        best = None
        for cols in combinations(range(k), d):
            mask = np.zeros(k, dtype=bool)
            mask[list(cols)] = True
            _, _, mse, _ = lstsq_fit(data.X, data.y, mask)
            cand = (mse, mask.tobytes())
            if best is None or cand < best:
                best = cand
        out[d] = best
    return out


def enumerated_table(data, max_complexity):
    """Reference best-subset table: every mask of each size fitted by ols_batch.

    The lowest MSE wins and a tie goes to the smallest mask bytes.  Rows
    are (mask bytes, error hex, intercept hex, coefficient bytes).
    """
    k = data.k
    stats = GramStats.of(data.X, data.y)
    table = []
    for d in range(max_complexity + 1):
        combos = list(combinations(range(k), d))
        masks = np.zeros((len(combos), k), dtype=bool)
        for row, cols in zip(masks, combos):
            row[list(cols)] = True
        intercepts, coefs, mses, _ = ols_batch(data.X, data.y, masks, stats=stats)
        i = min(range(len(combos)), key=lambda i: (mses[i], masks[i].tobytes()))
        table.append(
            (masks[i].tobytes(), mses[i].hex(), intercepts[i].hex(), coefs[i][masks[i]].tobytes())
        )
    return table


@st.composite
def subset_data(draw):
    """Small datasets with the edge cases of the bound tests.

    Optionally the last column copies the first, a column is constant,
    the response is an exact linear fit, or a column is scaled by 1e8 or
    1e-8.
    """
    k = draw(st.integers(1, 8))
    n = draw(st.integers(3, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = gen.standard_normal((n, k))
    y = X @ gen.standard_normal(k) + gen.standard_normal(n)
    if draw(st.booleans()):
        X[:, -1] = X[:, 0]
    if draw(st.booleans()):
        X[:, draw(st.integers(0, k - 1))] = 3.7
    if draw(st.booleans()):
        y = 1.5 + 2.0 * X[:, 0]
    X[:, draw(st.integers(0, k - 1))] *= draw(st.sampled_from([1.0, 1e8, 1e-8]))
    return Dataset(X=X, y=y, names=tuple(f"x{i + 1}" for i in range(k)))


def partial_f(sse_small, sse_big, n, small_size):
    df = n - small_size - 2
    if df <= 0:
        return -np.inf
    if sse_big <= 0:
        return np.inf if sse_small > 0 else 0.0
    return (sse_small - sse_big) / (sse_big / df)


def make_data(n=40, k=6, seed=7, noise=0.1):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, k))
    y = 1.5 + 2.0 * X[:, 1] - 3.0 * X[:, 4] + noise * gen.normal(size=n)
    return Dataset(X=X, y=y, names=tuple(f"x{i + 1}" for i in range(k)))


def exact_linear_data(seed):
    """y = 2 + 3 x2 exactly, on 30 rows and 5 columns."""
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((30, 5))
    return Dataset(X=X, y=2.0 + 3.0 * X[:, 1], names=tuple(f"x{i + 1}" for i in range(5)))


class TestBestSubsetTable:
    def test_matches_enumeration_oracle(self):
        data = make_data(n=30, k=6, seed=3)
        table = best_subset_table(data)
        ref = brute_best_per_complexity(data)
        assert len(table) == 7
        for d, model in enumerate(table):
            assert model.objective.complexity == d
            ref_mse, ref_key = ref[d]
            assert abs(model.objective.error - ref_mse) < 1e-10
            assert model.mask_key() == ref_key

    def test_tie_rule_smallest_bit_pattern(self):
        # two identical columns: the single-column optima tie exactly and
        # the mask whose bits read smallest left to right wins
        gen = np.random.default_rng(1)
        x = gen.normal(size=25)
        X = np.column_stack([x, x, gen.normal(size=25)])
        y = 2.0 * x + 0.01 * gen.normal(size=25)
        data = Dataset(X=X, y=y, names=("a", "b", "c"))
        table = best_subset_table(data)
        assert table[1].mask.tolist() == [False, True, False]

    @pytest.mark.parametrize("per_chunk", [2, 3])
    def test_ties_across_chunk_borders(self, monkeypatch, per_chunk):
        # x4 copies x2, so every mask holding one copy ties exactly with
        # its twin; with the kernel's chunks, which also size the search's
        # blocks of roots, cut this small, the twins of a size group fall
        # in different chunks, and the 20 roots of max_complexity=3 are
        # walked in several blocks
        data = make_data(n=30, k=6, seed=3)
        X = data.X.copy()
        X[:, 3] = X[:, 1]
        data = Dataset(X=X, y=data.y, names=data.names)
        ref = brute_best_per_complexity(data)
        for max_complexity in (None, 3):
            whole = best_subset_table(data, max_complexity)
            with monkeypatch.context() as patch:
                patch.setattr(paretoreg._kernels, "CHUNK_ELEMENTS", per_chunk * data.k)
                chunked = best_subset_table(data, max_complexity)
            size = data.k + 1 if max_complexity is None else max_complexity + 1
            assert len(chunked) == len(whole) == size
            for d, (got, want) in enumerate(zip(chunked, whole)):
                assert got.mask_key() == want.mask_key() == ref[d][1]
                assert got.objective.error.hex() == want.objective.error.hex()
                assert got.intercept.hex() == want.intercept.hex()
                assert got.coefficients.tobytes() == want.coefficients.tobytes()

    def test_constant_response_reports_exact_zero(self):
        # every model fits y = 3.7 exactly; the full mask holds both
        # copies of column 0 and is fitted by the SVD, whose residual is
        # rounding, and the first mask of each size wins the tie
        X = np.random.default_rng(0).standard_normal((20, 3))
        X[:, 2] = X[:, 0]
        data = Dataset(X=X, y=np.full(20, 3.7), names=("a", "b", "c"))
        table = best_subset_table(data)
        assert [m.objective.error for m in table] == [0.0] * 4
        assert [m.mask.tolist() for m in table][1:] == [
            [False, False, True], [False, True, True], [True, True, True]
        ]

    @settings(max_examples=40, deadline=None)
    @given(subset_data())
    def test_bit_identical_to_enumeration(self, data):
        for max_complexity in range(data.k + 1):
            table = best_subset_table(data, max_complexity=max_complexity)
            got = [
                (m.mask_key(), m.objective.error.hex(), m.intercept.hex(), m.coefficients.tobytes())
                for m in table
            ]
            assert got == enumerated_table(data, max_complexity)

    def test_max_complexity_cut(self):
        data = make_data()
        table = best_subset_table(data, max_complexity=2)
        assert [m.objective.complexity for m in table] == [0, 1, 2]
        with pytest.raises(ValueError):
            best_subset_table(data, max_complexity=7)
        with pytest.raises(ValueError):
            best_subset_table(data, max_complexity=-1)

    def test_size_guard_and_force(self):
        gen = np.random.default_rng(0)
        k = EXHAUSTIVE_K_LIMIT + 1
        X = gen.normal(size=(40, k))
        y = gen.normal(size=40)
        data = Dataset(X=X, y=y, names=tuple(f"x{i + 1}" for i in range(k)))
        with pytest.raises(ValueError):
            best_subset_table(data, max_complexity=1)
        table = best_subset_table(data, max_complexity=1, force=True)
        assert len(table) == 2


class TestExhaustiveFrontier:
    def test_frontier_is_nondominated_subset_of_table(self):
        data = make_data(n=30, k=6, seed=3)
        table = best_subset_table(data)
        front = exhaustive_frontier(data)
        errors = front.errors
        assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:]))
        table_by_d = {m.objective.complexity: m for m in table}
        for m in front:
            assert m.mask_key() == table_by_d[m.objective.complexity].mask_key()


def oracle_forward(data, enter=4.0):
    n, k = data.n, data.k
    mask = np.zeros(k, dtype=bool)
    _, _, mse, _ = lstsq_fit(data.X, data.y, mask)
    sse = mse * n
    path = []
    while mask.sum() < k:
        size = int(mask.sum())
        best = None
        for j in np.flatnonzero(~mask):
            trial = mask.copy()
            trial[j] = True
            _, _, m2, _ = lstsq_fit(data.X, data.y, trial)
            f = partial_f(sse, m2 * n, n, size)
            if best is None or f > best[0]:  # strict: ties keep lowest index
                best = (f, j, m2)
        if not best[0] > enter:
            break
        mask[best[1]] = True
        sse = best[2] * n
        path.append(mask.copy())
    return path


def oracle_backward(data, exit_t=4.0):
    n, k = data.n, data.k
    mask = np.ones(k, dtype=bool)
    _, _, mse, _ = lstsq_fit(data.X, data.y, mask)
    sse = mse * n
    path = []
    while mask.sum() > 0:
        worst = None
        for j in np.flatnonzero(mask):
            trial = mask.copy()
            trial[j] = False
            _, _, m2, _ = lstsq_fit(data.X, data.y, trial)
            f = partial_f(m2 * n, sse, n, int(mask.sum()) - 1)
            if worst is None or f < worst[0]:
                worst = (f, j, m2)
        if not worst[0] < exit_t:
            break
        mask[worst[1]] = False
        sse = worst[2] * n
        path.append(mask.copy())
    return path


class TestForwardSelection:
    def test_matches_path_oracle(self):
        for seed in (7, 19, 33):
            data = make_data(n=35, k=6, seed=seed, noise=0.5)
            traj = forward_selection(data)
            want = oracle_forward(data)
            assert len(traj.steps) == len(want)
            for step, mask in zip(traj.steps, want):
                assert np.array_equal(step.mask, mask)

    def test_strong_signal_found_first(self):
        data = make_data(noise=0.05)
        traj = forward_selection(data)
        # x5 carries the largest coefficient, so it enters first
        assert traj.steps[0].selected_names(data.names) == ("x5",)
        assert set(traj.final.selected_names(data.names)) >= {"x2", "x5"}

    def test_perfect_fit_stops_cleanly(self):
        gen = np.random.default_rng(4)
        X = gen.normal(size=(20, 4))
        data = Dataset(X=X, y=2.0 * X[:, 0], names=("a", "b", "c", "d"))
        traj = forward_selection(data)
        assert traj.steps[0].selected_names(data.names) == ("a",)
        assert traj.final.objective.error < 1e-20
        # zero residual: no later F statistic can clear the threshold
        assert len(traj.steps) == 1

    def test_exact_linear_response_stops_after_its_column(self):
        # after x2 enters, every SSE is rounding; rounding differences
        # must not pass as partial-F evidence for another column
        for seed in range(6):
            data = exact_linear_data(seed)
            traj = forward_selection(data)
            assert [s.selected_names(data.names) for s in traj.steps] == [("x2",)]

    def test_huge_threshold_accepts_nothing(self):
        data = make_data()
        traj = forward_selection(data, enter_threshold=1e12)
        assert traj.steps == ()
        assert traj.final.objective.complexity == 0

    def test_step_models_carry_exact_fits(self):
        data = make_data()
        for step in forward_selection(data).steps:
            b0, b, mse, _ = lstsq_fit(data.X, data.y, step.mask)
            assert abs(step.objective.error - mse) < 1e-10
            assert abs(step.intercept - b0) < 1e-8

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            forward_selection(make_data(), enter_threshold=-1.0)
        with pytest.raises(ValueError, match="must be >= 0"):
            forward_selection(make_data(), enter_threshold=np.nan)


class TestBackwardElimination:
    def test_matches_path_oracle(self):
        for seed in (7, 19, 33):
            data = make_data(n=35, k=6, seed=seed, noise=0.5)
            traj = backward_elimination(data)
            want = oracle_backward(data)
            assert len(traj.steps) == len(want)
            for step, mask in zip(traj.steps, want):
                assert np.array_equal(step.mask, mask)

    def test_keeps_true_signals(self):
        data = make_data(noise=0.05)
        traj = backward_elimination(data)
        assert set(traj.final.selected_names(data.names)) == {"x2", "x5"}

    def test_exact_linear_response_keeps_only_its_column(self):
        for seed in range(6):
            data = exact_linear_data(seed)
            traj = backward_elimination(data)
            assert traj.final.selected_names(data.names) == ("x2",)

    def test_rank_deficient_start_shrinks_first(self):
        # more predictors than informative rows: the full fit is
        # deficient, so elimination starts from a full-rank subset
        gen = np.random.default_rng(2)
        X = gen.normal(size=(8, 10))
        y = X[:, 0] + 0.1 * gen.normal(size=8)
        data = Dataset(X=X, y=y, names=tuple(f"x{i + 1}" for i in range(10)))
        traj = backward_elimination(data)
        b0, b, mse, _ = lstsq_fit(data.X, data.y, traj.final.mask)
        assert abs(traj.final.objective.error - mse) < 1e-10

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            backward_elimination(make_data(), exit_threshold=-0.5)
        with pytest.raises(ValueError, match="must be >= 0"):
            backward_elimination(make_data(), exit_threshold=np.nan)


def oracle_stepwise(data, enter=4.0, exit_t=4.0):
    n, k = data.n, data.k
    mask = np.zeros(k, dtype=bool)
    _, _, mse, _ = lstsq_fit(data.X, data.y, mask)
    path = []
    while True:
        size = int(mask.sum())
        if size == k:
            break
        sse = mse * n
        best = None
        for j in np.flatnonzero(~mask):
            trial = mask.copy()
            trial[j] = True
            _, _, m2, _ = lstsq_fit(data.X, data.y, trial)
            f = partial_f(sse, m2 * n, n, size)
            if best is None or f > best[0]:
                best = (f, j, m2)
        if not best[0] > enter:
            break
        mask = mask.copy()
        mask[best[1]] = True
        mse = best[2]
        path.append(mask.copy())
        while mask.sum() > 0:
            sse = mse * n
            worst = None
            for j in np.flatnonzero(mask):
                trial = mask.copy()
                trial[j] = False
                _, _, m2, _ = lstsq_fit(data.X, data.y, trial)
                f = partial_f(m2 * n, sse, n, int(mask.sum()) - 1)
                if worst is None or f < worst[0]:
                    worst = (f, j, m2)
            if not worst[0] < exit_t:
                break
            mask = mask.copy()
            mask[worst[1]] = False
            mse = worst[2]
            path.append(mask.copy())
    return path


class TestStepwiseSelection:
    def test_matches_path_oracle(self):
        for seed in (7, 19, 51):
            data = make_data(n=35, k=6, seed=seed, noise=0.8)
            traj = stepwise_selection(data)
            want = oracle_stepwise(data)
            assert len(traj.steps) == len(want)
            for step, mask in zip(traj.steps, want):
                assert np.array_equal(step.mask, mask)

    def test_consecutive_steps_differ_by_one_bit(self):
        data = make_data(n=50, k=8, seed=12, noise=1.0)
        traj = stepwise_selection(data, enter_threshold=2.0, exit_threshold=2.0)
        prev = np.zeros(data.k, dtype=bool)
        for step in traj.steps:
            assert int((prev ^ step.mask).sum()) == 1
            prev = step.mask

    def test_exit_above_enter_rejected(self):
        with pytest.raises(ValueError):
            stepwise_selection(make_data(), enter_threshold=2.0, exit_threshold=3.0)

    @pytest.mark.parametrize(
        "enter, exit_",
        [(-1.0, -2.0), (4.0, -1.0), (np.nan, 4.0), (4.0, np.nan), (np.nan, np.nan)],
    )
    def test_negative_and_nan_thresholds_rejected(self, enter, exit_):
        with pytest.raises(ValueError, match="must be >= 0"):
            stepwise_selection(make_data(), enter_threshold=enter, exit_threshold=exit_)


def aliased_constant_data():
    """60 rows, 8 columns: column 5 copies column 2, column 7 is 3.7 throughout.

    Masks holding both copies or the constant fail the kernel's fallback
    rule and are fitted by SVD.
    """
    gen = np.random.default_rng(21)
    X = gen.standard_normal((60, 8))
    X[:, 5] = X[:, 2]
    X[:, 7] = 3.7
    y = 1.0 + X[:, 0] - 2.0 * X[:, 2] + 0.5 * X[:, 4] + 0.3 * gen.standard_normal(60)
    return Dataset(X=X, y=y, names=[f"v{i}" for i in range(8)])


def one_fit_path_cases():
    return {
        "correlated": truncate_predictors(gen_correlated(120, p=20, seed=4)[0], 12),
        "aliased_constant": aliased_constant_data(),
    }


class TestOneFitPath:
    """Every baseline model is the evaluator's model of the same mask, bit for bit."""

    @pytest.mark.parametrize("case", ["correlated", "aliased_constant"])
    def test_baseline_models_match_evaluator(self, case):
        data = one_fit_path_cases()[case]
        evaluator = ObjectiveEvaluator(data)
        table = best_subset_table(data)
        models = list(table)
        for traj in (
            forward_selection(data),
            backward_elimination(data),
            stepwise_selection(data),
        ):
            assert traj.steps
            models += [*traj.steps, traj.final]
        for model in models:
            want = evaluator.evaluate(model.mask)
            assert model.mask.tobytes() == want.mask.tobytes()
            assert model.objective.error.hex() == want.objective.error.hex()
            assert model.intercept.hex() == want.intercept.hex()
            assert model.coefficients.tobytes() == want.coefficients.tobytes()
        deficient = ols_batch(data.X, data.y, np.stack([m.mask for m in table]))[3]
        assert deficient.any() == (case == "aliased_constant")
