from itertools import combinations

import numpy as np
import pytest

from paretoreg.baselines import (
    EXHAUSTIVE_K_LIMIT,
    Trajectory,
    backward_elimination,
    best_subset_table,
    exhaustive_frontier,
    forward_selection,
    stepwise_selection,
)
from paretoreg.data import Dataset

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

    def test_model_sizes_property(self):
        data = make_data(noise=0.05)
        traj = stepwise_selection(data)
        assert traj.model_sizes == tuple(m.objective.complexity for m in traj.steps)
        assert isinstance(traj, Trajectory)
