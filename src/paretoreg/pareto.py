"""Pareto dominance over (complexity, error) objective pairs."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

from .data import EvaluatedModel, ObjectiveVector


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """True if ``a`` is no worse than ``b`` in both objectives and
    strictly better in at least one.  Equal vectors dominate nothing.
    """
    if a.complexity > b.complexity or a.error > b.error:
        return False
    return a.complexity < b.complexity or a.error < b.error


def sweep(models: Sequence[EvaluatedModel]) -> tuple[list[tuple], list[int], list[bool]]:
    """Sort keys, ascending key order and dominated flags of ``models``.

    The key of a model is (complexity, error, mask bytes); equal keys keep
    their input order.  Walking that order once decides dominance, the
    2-D maxima problem (Kung, Luccio & Preparata 1975): a model is
    dominated exactly when a lower complexity has already reached an
    error <= its own, or the first model of its own complexity has a
    strictly lower error.
    """
    keys = [(m.objective.complexity, m.objective.error, m.mask_key()) for m in models]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    dominated = [False] * len(keys)
    floor = None  # least error over the complexities already passed
    for _, run in groupby(order, key=lambda i: keys[i][0]):
        run = list(run)
        lead = keys[run[0]][1]
        for i in run:
            error = keys[i][1]
            dominated[i] = error > lead or (floor is not None and floor <= error)
        floor = lead if floor is None else min(floor, lead)
    return keys, order, dominated


def nondominated(models: Sequence[EvaluatedModel]) -> list[EvaluatedModel]:
    """Non-dominated subset of ``models``, deduplicated on objectives.

    Among models sharing an identical objective vector the first in key
    order, which has the lexicographically smallest mask bit pattern, is
    kept.  Output preserves the input order of the survivors.
    """
    _, order, dominated = sweep(models)
    first: dict[ObjectiveVector, int] = {}
    for i in order:
        if not dominated[i]:
            first.setdefault(models[i].objective, i)
    return [models[i] for i in sorted(first.values())]


@dataclass(frozen=True)
class Frontier:
    """A non-dominated set ordered by ascending complexity.

    Along the frontier error is strictly decreasing, so each complexity
    appears at most once.
    """

    models: tuple[EvaluatedModel, ...]

    @classmethod
    def from_models(cls, models: Iterable[EvaluatedModel]) -> "Frontier":
        """Build a frontier from any collection of evaluated models.

        Dominated members and objective duplicates are dropped first.
        """
        survivors = nondominated(list(models))
        ordered = sorted(survivors, key=lambda m: m.objective.complexity)
        return cls(models=tuple(ordered))

    def __post_init__(self) -> None:
        for prev, cur in zip(self.models, self.models[1:]):
            if cur.objective.complexity <= prev.objective.complexity:
                raise ValueError("frontier complexities must strictly increase")
            if cur.objective.error >= prev.objective.error:
                raise ValueError("frontier errors must strictly decrease")

    def __len__(self) -> int:
        return len(self.models)

    def __iter__(self):
        return iter(self.models)

    def __getitem__(self, idx: int) -> EvaluatedModel:
        return self.models[idx]

    @property
    def complexities(self) -> tuple[int, ...]:
        return tuple(m.objective.complexity for m in self.models)

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(m.objective.error for m in self.models)

    def at_complexity(self, complexity: int) -> EvaluatedModel | None:
        """The frontier model with exactly this complexity, if any."""
        for m in self.models:
            if m.objective.complexity == complexity:
                return m
        return None

    def restrict(self, lo: int, hi: int) -> "Frontier":
        """Sub-frontier with complexity in the closed range [lo, hi]."""
        if lo > hi:
            raise ValueError(f"empty complexity range [{lo}, {hi}]")
        kept = tuple(
            m for m in self.models if lo <= m.objective.complexity <= hi
        )
        return Frontier(models=kept)
