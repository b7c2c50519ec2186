"""Print three sha256 digests over the search, baseline and CLI results on fixed inputs.

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
- ``best_subset_table`` at k=12; at k=15 (``gen_correlated`` at 300
  rows), in full and up to ``max_complexity=5``; on the k=12 data with an
  exact copy of its first column appended, where masks holding both
  copies tie and fail the fallback rule; and on the k=12 predictors with
  an exact-fit response, where every mask holding the fitting column
  ties at the SSE zero floor;
- the steps and final models of forward, backward and stepwise selection,
  on the k=12 data and on the same data with an exact copy of its first
  column appended, whose full fit is rank deficient, so that backward
  elimination starts from its greedy full-rank subset.

The third line covers every file that a fixed ``paretoreg`` pipeline
writes: its name relative to the pipeline's directory, then its bytes.
The pipeline simulates both examples, runs an in-sample search with
snapshots and a CV search with ``--bounds`` and ``--archive``, runs all
four baselines and all five ``analyze`` tasks.  Two values are masked
first, because they differ from run to run: ``runtime_seconds`` and the
absolute ``data`` path in ``frontier.json`` and ``run.json``.  Equal
third lines mean byte-identical output files.  The files hold fitted
values, so compare third lines under the same BLAS thread setting too,
although on 2 vCPUs this pipeline's line reads the same at 1 and 2
threads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from paretoreg import cli
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
    wide = _data(300, 15, 6)
    yield best_subset_table(wide)
    yield best_subset_table(wide, max_complexity=5)
    copied = Dataset(
        X=np.column_stack((small.X, small.X[:, 0])),
        y=small.y,
        names=(*small.names, small.names[0] + "_copy"),
    )
    yield best_subset_table(copied)
    yield best_subset_table(Dataset(X=small.X, y=1.5 + 2.0 * small.X[:, 3], names=small.names))
    for data in (small, copied):
        for method in (forward_selection, backward_elimination, stepwise_selection):
            trajectory = method(data)
            yield trajectory.steps
            yield [trajectory.final]


def _pipeline(root: str) -> list[list[str]]:
    """The fixed ``paretoreg`` command lines, each writing under ``root``."""

    def at(*parts: str) -> str:
        return os.path.join(root, *parts)

    data1, data2 = at("sim1", "data.csv"), at("sim2", "data.csv")
    front = at("run", "frontier.json")
    runs = [
        ["simulate", "--example", "1", "--n", "80", "--seed", "4", "--out", at("sim1")],
        ["simulate", "--example", "2", "--n", "150", "--p", "12", "--seed", "3",
         "--out", at("sim2")],
        ["run", "--data", data2, "--target", "y", "--iterations", "60", "--seed", "1",
         "--snapshot-every", "20", "--out", at("run")],
        ["run", "--data", data1, "--target", "y", "--objective", "cv:4",
         "--iterations", "30", "--seed", "2", "--bounds", "2:8", "--archive",
         "--out", at("cv")],
    ]
    for method in ("exhaustive", "forward", "backward", "stepwise"):
        runs.append(
            ["baseline", "--data", data2, "--target", "y", "--method", method,
             "--out", at(method)]
        )
    runs += [
        ["analyze", "--frontier", front, "--task", "knee", "--out", at("knee")],
        ["analyze", "--frontier", front, "--task", "criteria", "--out", at("criteria")],
        ["analyze", "--frontier", front, at("exhaustive", "frontier.json"),
         "--task", "kappa", "--eval-data", data2, data2, "--range", "2:6",
         "--out", at("kappa")],
        ["analyze", "--frontier", front, "--task", "osplot", "--snapshots",
         at("run", "snapshots.csv"), "--log-y", "--out", at("osplot")],
        ["analyze", "--frontier", at("cv", "frontier.json"), "--task", "hsplot",
         "--range", "2:6", "--out", at("hsplot")],
    ]
    return runs


_VOLATILE = re.compile(rb'("runtime_seconds": )[^,\n}]+|("data": )"[^"]*"')


def cli_files() -> list[tuple[str, bytes]]:
    """(relative path, masked bytes) of every file the pipeline writes."""
    with tempfile.TemporaryDirectory() as root:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in _pipeline(root):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"paretoreg {' '.join(argv)} failed")
        files = []
        for folder, _, names in os.walk(root):
            for name in names:
                path = os.path.join(folder, name)
                masked = _VOLATILE.sub(
                    lambda m: (m.group(1) or m.group(2)) + b"0", Path(path).read_bytes()
                )
                files.append((os.path.relpath(path, root), masked))
    return sorted(files)


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
    outputs = hashlib.sha256()
    for name, data in cli_files():
        outputs.update(name.encode() + b"\0" + data + b"|")
    print(outputs.hexdigest())


if __name__ == "__main__":
    main()
