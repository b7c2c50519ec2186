"""Print two sha256 digests over the search and baseline results on fixed inputs.

    PYTHONPATH=src python3 tools/frontier_digest.py

Run it at two commits and compare the lines, with both commits under the
same ``OPENBLAS_NUM_THREADS``.  The first line covers the mask,
``error.hex()``, ``intercept.hex()`` and the coefficient bytes of every
reported model, so equal first lines mean bit-identical results.  That
line depends on the BLAS thread count (the same code prints one digest at
1 thread and another at the default), so bit-identity holds only under
the same BLAS thread setting until the Gram products are computed in a
fixed order.
The second line covers only the masks and complexities, so equal second
lines mean that the search took the same path and every baseline chose
the same models, even when a numerical change moved the last bits of
the fitted values.  Both digests cover:

- the frontier and the final population of ``run_moga`` on inputs shaped
  like those of the benchmark's search workloads (``gen_correlated`` at
  500x15 for 400 generations, 200x30 with 10-fold CV for 200
  generations, 500x100 for 10 generations), plus one run with
  ``archive=True`` and ``complexity_bounds``;
- ``best_subset_table`` at k=12, and at k=15 (``gen_correlated`` at 300
  rows), where a size group spans more than one fitted chunk;
- the steps and final models of forward, backward and stepwise selection,
  on the k=12 data and on the same data with an exact copy of its first
  column appended, whose full fit is rank deficient, so that backward
  elimination starts from its greedy full-rank subset.
"""

from __future__ import annotations

import hashlib

import numpy as np

from paretoreg.baselines import (
    backward_elimination,
    best_subset_table,
    forward_selection,
    stepwise_selection,
)
from paretoreg.data import Dataset
from paretoreg.moga import GAConfig, run_moga
from paretoreg.objectives import CROSS_VALIDATION, ObjectiveSpec
from paretoreg.simdata import gen_correlated, truncate_predictors


def _data(rows: int, cols: int, seed: int):
    full, _ = gen_correlated(rows, p=100, seed=seed)
    return truncate_predictors(full, cols)


def _search(rows: int, cols: int, seed: int, **config) -> list:
    result = run_moga(_data(rows, cols, seed), GAConfig(seed=seed, **config))
    return [result.frontier.models, result.population]


def results():
    """Every digested sequence of models, in a fixed order."""
    cv = ObjectiveSpec(kind=CROSS_VALIDATION, folds=10, seed=1)
    yield from _search(500, 15, 1, iterations=400)
    yield from _search(200, 30, 1, iterations=200, objective=cv)
    yield from _search(500, 100, 1, iterations=10)
    yield from _search(300, 20, 2, iterations=150, archive=True, complexity_bounds=(2, 12))
    small = _data(200, 12, 5)
    yield best_subset_table(small)
    yield best_subset_table(_data(300, 15, 6))
    copied = Dataset(
        X=np.column_stack((small.X, small.X[:, 0])),
        y=small.y,
        names=(*small.names, small.names[0] + "_copy"),
    )
    for data in (small, copied):
        for method in (forward_selection, backward_elimination, stepwise_selection):
            trajectory = method(data)
            yield trajectory.steps
            yield [trajectory.final]


def main() -> None:
    full = hashlib.sha256()
    masks = hashlib.sha256()
    for models in results():
        for m in models:
            full.update(m.mask_key())
            full.update(m.objective.error.hex().encode())
            full.update(m.intercept.hex().encode())
            full.update(m.coefficients.tobytes())
            masks.update(m.mask_key())
            masks.update(str(m.objective.complexity).encode())
        full.update(b"|")
        masks.update(b"|")
    print(full.hexdigest())
    print(masks.hexdigest())


if __name__ == "__main__":
    main()
