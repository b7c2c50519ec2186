import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoreg.data import EvaluatedModel, ObjectiveVector
from paretoreg.pareto import Frontier, dominates, nondominated


def obj(c, e):
    return ObjectiveVector(complexity=c, error=e)


def simple(c, e, k=8):
    mask = np.zeros(k, dtype=bool)
    mask[:c] = True
    return EvaluatedModel(
        mask=mask, objective=obj(c, e), intercept=0.0, coefficients=np.zeros(c)
    )


objectives = st.tuples(st.integers(0, 6), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))


class TestDominates:
    def test_hand_cases(self):
        assert dominates(obj(1, 1.0), obj(2, 1.0))
        assert dominates(obj(1, 1.0), obj(1, 2.0))
        assert dominates(obj(1, 1.0), obj(2, 2.0))
        assert not dominates(obj(2, 1.0), obj(1, 2.0))  # trade-off
        assert not dominates(obj(1, 2.0), obj(2, 1.0))
        assert not dominates(obj(2, 0.5), obj(2, 0.5))  # equal vectors

    @settings(max_examples=300, deadline=None)
    @given(a=objectives, b=objectives)
    def test_asymmetry(self, a, b):
        a, b = obj(*a), obj(*b)
        assert not (dominates(a, b) and dominates(b, a))

    @settings(max_examples=300, deadline=None)
    @given(a=objectives)
    def test_irreflexive(self, a):
        a = obj(*a)
        assert not dominates(a, a)

    @settings(max_examples=300, deadline=None)
    @given(a=objectives, b=objectives, c=objectives)
    def test_transitivity(self, a, b, c):
        a, b, c = obj(*a), obj(*b), obj(*c)
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


def oracle_nondominated(models):
    out = []
    for m in models:
        if not any(dominates(o.objective, m.objective) for o in models):
            out.append(m)
    return out


def oracle_survivors(models):
    """Not dominated, smallest mask among equal objectives (then lowest
    index), in input order."""
    out = []
    for i, m in enumerate(models):
        if any(dominates(o.objective, m.objective) for o in models):
            continue
        twins = [j for j, o in enumerate(models) if o.objective == m.objective]
        if min(twins, key=lambda j: (models[j].mask_key(), j)) == i:
            out.append(m)
    return out


class TestNondominated:
    def test_empty(self):
        assert nondominated([]) == []

    def test_single(self):
        m = simple(1, 1.0)
        assert nondominated([m]) == [m]

    def test_matches_oracle_with_dedup(self):
        gen = np.random.default_rng(0)
        for trial in range(50):
            pop = [
                simple(int(gen.integers(0, 6)), float(gen.choice([0.5, 1.0, 2.0, 3.0])))
                for _ in range(int(gen.integers(1, 15)))
            ]
            got = nondominated(pop)
            expected_objs = {m.objective for m in oracle_nondominated(pop)}
            assert {m.objective for m in got} == expected_objs
            # exactly one representative per surviving objective
            assert len(got) == len(expected_objs)
            assert [id(m) for m in got] == [id(m) for m in oracle_survivors(pop)]
        # equal objectives carrying different masks, and twins that share
        # mask and objective but are other objects
        k = 5
        for trial in range(300):
            pop = []
            for _ in range(int(gen.integers(1, 25))):
                if pop and gen.random() < 0.15:
                    twin = pop[int(gen.integers(len(pop)))]
                    mask, error = twin.mask, twin.objective.error
                else:
                    mask = gen.random(k) < 0.5
                    error = float(gen.choice([0.5, 1.0, 2.0, 3.0]))
                c = int(mask.sum())
                pop.append(
                    EvaluatedModel(
                        mask=mask, objective=obj(c, error),
                        intercept=0.0, coefficients=np.zeros(c),
                    )
                )
            got = nondominated(pop)
            assert [id(m) for m in got] == [id(m) for m in oracle_survivors(pop)]

    def test_dedup_keeps_smallest_mask(self):
        a = EvaluatedModel(
            mask=np.array([False, True, True]),
            objective=obj(2, 1.0),
            intercept=0.0,
            coefficients=np.zeros(2),
        )
        b = EvaluatedModel(
            mask=np.array([True, True, False]),
            objective=obj(2, 1.0),
            intercept=0.0,
            coefficients=np.zeros(2),
        )
        kept = nondominated([a, b])
        assert len(kept) == 1
        # (False, True, True) sorts below (True, True, False) bytewise
        assert kept[0] is a

    def test_preserves_input_order(self):
        ms = [simple(3, 1.0), simple(1, 3.0), simple(2, 2.0)]
        got = nondominated(ms)
        assert [m.objective.complexity for m in got] == [3, 1, 2]


class TestFrontier:
    def test_from_models_sorts_and_filters(self):
        ms = [simple(3, 1.0), simple(0, 9.0), simple(1, 4.0), simple(2, 4.5)]
        f = Frontier.from_models(ms)
        assert f.complexities == (0, 1, 3)  # (2, 4.5) dominated by (1, 4.0)
        assert f.errors == (9.0, 4.0, 1.0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Frontier(models=(simple(1, 1.0), simple(1, 0.5)))
        with pytest.raises(ValueError):
            Frontier(models=(simple(1, 1.0), simple(2, 1.0)))

    def test_lookup_and_restrict(self):
        f = Frontier.from_models([simple(0, 9.0), simple(2, 5.0), simple(4, 1.0)])
        assert f.at_complexity(2).objective.error == 5.0
        assert f.at_complexity(3) is None
        sub = f.restrict(1, 3)
        assert sub.complexities == (2,)
        with pytest.raises(ValueError):
            f.restrict(3, 1)

    def test_iteration_and_len(self):
        f = Frontier.from_models([simple(0, 2.0), simple(1, 1.0)])
        assert len(f) == 2
        assert [m.objective.complexity for m in f] == [0, 1]
        assert f[1].objective.complexity == 1
