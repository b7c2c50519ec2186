import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from paretoreg._kernels import ols_batch
from paretoreg.baselines import best_subset_table
from paretoreg.data import Dataset, EvaluatedModel, ObjectiveVector, mask_to_string
from paretoreg.moga import (
    GAConfig,
    crossover,
    environmental_selection,
    init_population,
    mutate,
    repair_bounds,
    run_moga,
)
from paretoreg.objectives import CROSS_VALIDATION, ObjectiveSpec
from paretoreg.pareto import dominates

from conftest import lstsq_fit


def em(bits, error):
    """One evaluated model from a mask bit string; filler coefficients."""
    mask = np.array([b == "1" for b in bits])
    c = int(mask.sum())
    return EvaluatedModel(
        mask=mask,
        objective=ObjectiveVector(complexity=c, error=float(error)),
        intercept=0.0,
        coefficients=np.zeros(c),
    )


class StubRng:
    """Replays preset draws so cut points can be forced in tests."""

    def __init__(self, randoms=(), ints=()):
        self._r = list(randoms)
        self._i = list(ints)

    def random(self, size=None):
        v = self._r.pop(0)
        return v if size is None else np.full(size, v)

    def integers(self, lo, hi=None):
        return self._i.pop(0)


class TestInitPopulation:
    def test_shape_and_dtype(self, rng):
        pop = init_population(7, 12, rng)
        assert pop.shape == (7, 12)
        assert pop.dtype == np.bool_

    def test_mean_selected_half(self):
        # wide masks: mean selected count should sit at k/2
        pop = init_population(400, 122, np.random.default_rng(5))
        assert abs(pop.sum(axis=1).mean() - 61.0) < 3.0

    def test_deterministic(self):
        a = init_population(5, 9, np.random.default_rng(3))
        b = init_population(5, 9, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            init_population(0, 4, rng)
        with pytest.raises(ValueError):
            init_population(4, 0, rng)


class TestCrossover:
    def test_forced_cut_midpoint(self):
        a = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)
        b = ~a
        ca, cb = crossover(a, b, StubRng(randoms=[0.0], ints=[4]), 1.0)
        assert ca.all()
        assert not cb.any()

    def test_forced_cut_edge(self):
        a = np.array([1, 1, 1, 1], dtype=bool)
        b = np.array([0, 0, 0, 0], dtype=bool)
        ca, cb = crossover(a, b, StubRng(randoms=[0.0], ints=[1]), 1.0)
        assert ca.tolist() == [True, False, False, False]
        assert cb.tolist() == [False, True, True, True]

    def test_no_crossover_copies(self, rng):
        a = np.array([1, 0, 1], dtype=bool)
        b = np.array([0, 1, 1], dtype=bool)
        ca, cb = crossover(a, b, rng, 0.0)
        assert np.array_equal(ca, a) and np.array_equal(cb, b)
        ca[0] = False  # children must not alias parents
        assert a[0]

    def test_length_one_copies_through(self):
        a = np.array([True])
        b = np.array([False])
        ca, cb = crossover(a, b, StubRng(randoms=[0.0], ints=[1]), 1.0)
        assert ca[0] and not cb[0]

    def test_positionwise_bit_conservation(self):
        gen = np.random.default_rng(8)
        for _ in range(100):
            k = int(gen.integers(2, 20))
            a = gen.random(k) < 0.5
            b = gen.random(k) < 0.5
            ca, cb = crossover(a, b, gen, 0.9)
            assert np.array_equal(
                ca.astype(int) + cb.astype(int), a.astype(int) + b.astype(int)
            )

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            crossover(np.ones(3, dtype=bool), np.ones(4, dtype=bool), rng)


class TestMutate:
    def test_prob_zero_identity(self, rng):
        m = np.array([1, 0, 1, 1], dtype=bool)
        out = mutate(m, 0.0, rng)
        assert np.array_equal(out, m)
        out[0] = False
        assert m[0]  # no aliasing

    def test_prob_one_complement(self, rng):
        m = np.array([1, 0, 1], dtype=bool)
        assert np.array_equal(mutate(m, 1.0, rng), ~m)

    def test_mean_flip_rate(self):
        # over many calls the mean flip count approaches k * pm
        gen = np.random.default_rng(0)
        k, pm, calls = 25, 1 / 25, 4000
        base = np.zeros(k, dtype=bool)
        flips = sum(int(mutate(base, pm, gen).sum()) for _ in range(calls))
        assert abs(flips / calls - k * pm) < 0.2 * k * pm

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            mutate(np.ones(3, dtype=bool), 1.5, rng)


class TestRepairBounds:
    def test_trims_to_upper(self, rng):
        m = np.ones(8, dtype=bool)
        out = repair_bounds(m, 0, 3, rng)
        assert out.sum() == 3
        assert np.all(m[out])  # only clears bits, never sets

    def test_fills_to_lower(self, rng):
        m = np.zeros(8, dtype=bool)
        m[2] = True
        out = repair_bounds(m, 4, 8, rng)
        assert out.sum() == 4
        assert out[2]  # only sets bits, never clears

    def test_in_range_untouched(self, rng):
        m = np.array([1, 0, 1, 0], dtype=bool)
        assert np.array_equal(repair_bounds(m, 1, 3, rng), m)

    def test_deterministic(self):
        m = np.ones(10, dtype=bool)
        a = repair_bounds(m, 0, 4, np.random.default_rng(2))
        b = repair_bounds(m, 0, 4, np.random.default_rng(2))
        assert np.array_equal(a, b)


def oracle_selection(models, n_keep):
    """Literal restatement of the trimming rule, re-derived per step.

    A live member is removable when a live member dominates it or another
    live member has the same mask bytes; the highest-ranked removable
    member goes (the highest-ranked live one when none is removable), and
    ``max`` picks the lowest index among equal ranks.
    """
    alive = list(range(len(models)))
    rank = {
        i: (m.objective.complexity, m.objective.error, m.mask_key())
        for i, m in enumerate(models)
    }
    dominators = {
        i: [j for j in alive if dominates(models[j].objective, models[i].objective)]
        for i in alive
    }
    while len(alive) > n_keep:
        live = set(alive)
        copies = Counter(rank[i][2] for i in alive)
        removable = [
            i
            for i in alive
            if copies[rank[i][2]] > 1 or not live.isdisjoint(dominators[i])
        ]
        pool = removable if removable else alive
        worst = max(pool, key=lambda i: rank[i])
        alive.remove(worst)
    return [models[i] for i in alive]


def pool_with_clones(gen, size, k, error):
    """A merged-pool stand-in: fresh masks, true clones (the same object,
    as the evaluator's cache hands out) and same-mask members whose
    error differs.  ``error(complexity)`` draws each fresh error."""
    pop = []
    for _ in range(size):
        r = gen.random()
        if pop and r < 0.3:
            pop.append(pop[int(gen.integers(len(pop)))])
        elif pop and r < 0.38:
            twin = pop[int(gen.integers(len(pop)))]
            pop.append(em(mask_to_string(twin.mask), error(twin.objective.complexity)))
        else:
            bits = gen.random(k) < gen.random()
            pop.append(em(mask_to_string(bits), error(int(bits.sum()))))
    return pop


class TestEnvironmentalSelection:
    def test_hand_trace_dominated_goes_first(self):
        # (5, 3) is dominated by (2, 3); the non-dominated pair survives
        pop = [em("10000", 5.0), em("11000", 3.0), em("11111", 3.0)]
        kept = environmental_selection(pop, 2)
        assert [m.objective for m in kept] == [
            ObjectiveVector(1, 5.0),
            ObjectiveVector(2, 3.0),
        ]

    def test_hand_trace_all_nondominated(self):
        # none dominated: the highest-complexity member is dropped
        pop = [em("10000", 9.0), em("11000", 5.0), em("11100", 1.0)]
        kept = environmental_selection(pop, 2)
        assert [m.objective for m in kept] == [
            ObjectiveVector(1, 9.0),
            ObjectiveVector(2, 5.0),
        ]

    def test_matches_oracle_on_distinct_and_repeated_masks(self):
        gen = np.random.default_rng(14)
        k = 6
        for _ in range(120):
            size = int(gen.integers(3, 18))
            codes = gen.choice(2**k, size=size, replace=False)
            pop = []
            for code in codes:
                bits = format(int(code), f"0{k}b")
                pop.append(em(bits, float(gen.choice([0.5, 1.0, 1.5, 2.0]))))
            n_keep = int(gen.integers(1, size + 1))
            got = environmental_selection(pop, n_keep)
            want = oracle_selection(pop, n_keep)
            assert [id(m) for m in got] == [id(m) for m in want]
        for _ in range(300):
            size = int(gen.integers(1, 61))
            pop = pool_with_clones(
                gen, size, 5, lambda c: float(gen.choice([0.5, 1.0, 1.5, 2.0]))
            )
            n_keep = int(gen.integers(1, size + 1))
            got = environmental_selection(pop, n_keep)
            want = oracle_selection(pop, n_keep)
            assert [id(m) for m in got] == [id(m) for m in want]

    def test_matches_oracle_on_ga_k100_sized_pools(self):
        # the merge pool of a K=100 search: 100 parents plus 100 offspring,
        # with error falling in complexity so that many members trade off
        # (the smaller n_keep values also run out of removable members)
        gen = np.random.default_rng(15)
        for n_keep in (100, 100, 50, 20):
            pop = pool_with_clones(
                gen, 200, 100, lambda c: 10.0 / (1 + c) + gen.choice([0.0, 0.2, 0.4])
            )
            got = environmental_selection(pop, n_keep)
            want = oracle_selection(pop, n_keep)
            assert [id(m) for m in got] == [id(m) for m in want]

    def test_clones_displaced_before_distinct_members(self):
        # three copies of one model; the spare copies go before the
        # distinct non-dominated member does
        clone = em("1100", 1.0)
        other = em("1000", 5.0)
        kept = environmental_selection([clone, clone, clone, other], 2)
        objs = sorted(m.objective for m in kept)
        assert objs == [ObjectiveVector(1, 5.0), ObjectiveVector(2, 1.0)]

    def test_clones_survive_when_room(self):
        clone = em("1100", 1.0)
        kept = environmental_selection([clone, clone, clone], 3)
        assert len(kept) == 3

    def test_preserves_input_order(self):
        pop = [em("111000", 1.0), em("100000", 3.0), em("110000", 2.0)]
        kept = environmental_selection(pop, 3)
        assert [m.objective.complexity for m in kept] == [3, 1, 2]

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            environmental_selection([em("10", 1.0)], 2)


@pytest.fixture(scope="module")
def ga_data():
    gen = np.random.default_rng(21)
    n, k = 60, 10
    X = gen.normal(size=(n, k))
    y = 2.0 + 3.0 * X[:, 0] + 0.1 * gen.normal(size=n)
    return Dataset(X=X, y=y, names=tuple(f"x{i + 1}" for i in range(k)))


def exhaustive_best(data, max_d=None):
    """Best in-sample error per complexity by full enumeration."""
    from itertools import combinations

    k = data.k
    best = {}
    for d in range(k + 1 if max_d is None else max_d + 1):
        lo = np.inf
        for cols in combinations(range(k), d):
            mask = np.zeros(k, dtype=bool)
            mask[list(cols)] = True
            _, _, mse, _ = lstsq_fit(data.X, data.y, mask)
            lo = min(lo, mse)
        best[d] = lo
    return best


class TestRunMoga:
    def test_bit_for_bit_determinism(self, ga_data):
        cfg = GAConfig(iterations=40, seed=11)
        r1 = run_moga(ga_data, cfg)
        r2 = run_moga(ga_data, cfg)
        assert r1.frontier.complexities == r2.frontier.complexities
        assert r1.frontier.errors == r2.frontier.errors
        for a, b in zip(r1.frontier, r2.frontier):
            assert a.mask_key() == b.mask_key()
        assert r1.evaluations == r2.evaluations
        assert r1.unique_models == r2.unique_models

    def test_tracks_exhaustive_on_small_problem(self, ga_data):
        best = exhaustive_best(ga_data)
        res = run_moga(ga_data, GAConfig(iterations=120, seed=3))
        for m in res.frontier:
            d = m.objective.complexity
            # can never beat the enumerated optimum
            assert m.objective.error >= best[d] - 1e-12
        # the dominant single predictor is easy to find
        at1 = res.frontier.at_complexity(1)
        assert at1 is not None
        assert abs(at1.objective.error - best[1]) < 1e-10
        assert at1.selected_names(ga_data.names) == ("x1",)

    def test_complexity_bounds_respected(self, ga_data):
        cfg = GAConfig(
            iterations=30, seed=5, complexity_bounds=(2, 5), snapshot_every=10
        )
        res = run_moga(ga_data, cfg)
        for m in res.population:
            assert 2 <= m.objective.complexity <= 5
        for snap in res.snapshots:
            assert all(2 <= c <= 5 for c in snap.complexities)
        assert res.frontier.complexities[0] >= 2
        assert res.frontier.complexities[-1] <= 5

    def test_best_error_never_regresses(self, ga_data):
        res = run_moga(ga_data, GAConfig(iterations=50, seed=9, snapshot_every=1))
        best = [min(s.errors) for s in res.snapshots]
        assert all(b1 <= b0 + 1e-12 for b0, b1 in zip(best, best[1:]))

    def test_snapshot_schedule(self, ga_data):
        res = run_moga(ga_data, GAConfig(iterations=12, seed=1, snapshot_every=5))
        assert [s.generation for s in res.snapshots] == [0, 5, 10]
        res = run_moga(ga_data, GAConfig(iterations=12, seed=1))
        assert res.snapshots == ()

    def test_archive_frontier_dominates_population_frontier(self, ga_data):
        pop_res = run_moga(ga_data, GAConfig(iterations=40, seed=2))
        arc_res = run_moga(ga_data, GAConfig(iterations=40, seed=2, archive=True))
        assert set(pop_res.frontier.complexities) <= set(arc_res.frontier.complexities)
        for m in pop_res.frontier:
            a = arc_res.frontier.at_complexity(m.objective.complexity)
            assert a.objective.error <= m.objective.error + 1e-12

    def test_progress_callback(self, ga_data):
        seen = []
        run_moga(
            ga_data,
            GAConfig(iterations=8, seed=4),
            progress=lambda it, fs, be: seen.append((it, fs, be)),
        )
        assert [s[0] for s in seen] == list(range(1, 9))
        assert all(s[1] >= 1 for s in seen)

    def test_cv_objective_reproducible(self, ga_data):
        spec = ObjectiveSpec(kind="cross_validation", folds=5, seed=7)
        cfg = GAConfig(iterations=15, seed=6, objective=spec)
        r1 = run_moga(ga_data, cfg)
        r2 = run_moga(ga_data, cfg)
        assert r1.frontier.errors == r2.frontier.errors

    def test_config_validation(self, ga_data):
        # every range that does not depend on the data is refused when
        # the config is built; only hi <= K waits for run_moga
        with pytest.raises(ValueError):
            GAConfig(population_size=1)
        with pytest.raises(ValueError):
            GAConfig(iterations=0)
        with pytest.raises(ValueError):
            GAConfig(crossover_prob=1.5)
        with pytest.raises(ValueError):
            GAConfig(mutation_prob=-0.1)
        with pytest.raises(ValueError):
            GAConfig(complexity_bounds=(3, 2))
        with pytest.raises(ValueError):
            run_moga(ga_data, GAConfig(complexity_bounds=(0, 99)))
        with pytest.raises(ValueError):
            GAConfig(snapshot_every=0)

    @pytest.mark.parametrize(
        "field, value, words",
        [
            ("population_size", 1, "population_size must be an integer >= 2"),
            ("n_offspring", 0, "n_offspring must be an integer >= 1"),
            ("iterations", 0, "iterations must be an integer >= 1"),
            ("iterations", 2.5, "iterations must be an integer >= 1"),
            ("crossover_prob", float("nan"), "crossover_prob must be in [0, 1]"),
            ("mutation_prob", 1.5, "mutation_prob must be in [0, 1]"),
            ("complexity_bounds", (5, 2), "empty range"),
            ("complexity_bounds", (-1, 2), "integers >= 0"),
            ("complexity_bounds", (1.5, 3), "integers >= 0"),
            ("snapshot_every", 0, "snapshot_every must be an integer >= 1"),
        ],
    )
    def test_config_refuses_at_construction(self, field, value, words):
        with pytest.raises(ValueError, match=re.escape(words)):
            GAConfig(**{field: value})
        # a valid config keeps its check when a field is replaced
        with pytest.raises(ValueError, match=re.escape(words)):
            replace(GAConfig(), **{field: value})

    def test_constant_response_reports_zero_error(self):
        # 37 rows of 3.7: the mean is inexact, so y - mean(y) is rounding;
        # every fit is exact and must report an error of exactly 0, and
        # the intercept-only model must then dominate the whole frontier
        gen = np.random.default_rng(0)
        X = gen.standard_normal((37, 6))
        X[:, 5] = X[:, 2]
        y = np.full(37, 3.7)
        assert y.mean() != 3.7
        data = Dataset(X=X, y=y, names=tuple(f"x{i}" for i in range(6)))
        masks = gen.random((200, 6)) < 0.5
        intercepts, coefs, mses, deficient = ols_batch(X, y, masks)
        # the duplicate-column masks go to the SVD
        assert deficient.any() and not deficient.all()
        assert mses[~deficient].tolist() == [0.0] * int((~deficient).sum())
        assert not coefs[~deficient].any()
        for spec in (ObjectiveSpec(), ObjectiveSpec(kind=CROSS_VALIDATION, folds=5)):
            result = run_moga(data, GAConfig(iterations=50, seed=0, objective=spec))
            points = [(m.objective.complexity, m.objective.error) for m in result.frontier]
            assert points == [(0, 0.0)]

    def test_single_predictor_default_run(self):
        # a default population of K = 1 could not breed; it is raised to 2,
        # and two members are enough to hold both models of the space
        gen = np.random.default_rng(30)
        x = gen.normal(size=30)
        y = 1.0 + 2.0 * x + 0.1 * gen.normal(size=30)
        data = Dataset(X=x[:, None], y=y, names=("x1",))
        res = run_moga(data)
        assert len(res.population) == 2
        table = best_subset_table(data)
        assert res.frontier.complexities == (0, 1)
        assert [m.mask_key() for m in res.frontier] == [m.mask_key() for m in table]
        assert res.frontier.errors == tuple(m.objective.error for m in table)
