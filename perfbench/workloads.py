"""The four benchmark workloads: inputs from the seed, one task, its output.

Each input instance draws ``gen_correlated(rows, p)`` from a seed derived
from the benchmark seed and keeps its first ``cols`` predictors.  The same
number seeds the search and the CV fold partition, so the benchmark seed
fixes every input.  Why each workload exists is in README.md next to this
file.

Library entry points are looked up on their modules at call time
(``moga.run_moga``, ``cli.main``, ...) so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import paretoreg.baselines as baselines
import paretoreg.cli as cli
import paretoreg.moga as moga
from paretoreg.data import save_csv
from paretoreg.objectives import CROSS_VALIDATION, ObjectiveSpec, make_partition
from paretoreg.simdata import gen_correlated, truncate_predictors

import checks
from checks import Model


@dataclass(frozen=True)
class Spec:
    rows: int
    p: int
    cols: int
    generations: int = 0
    folds: int = 0
    # A search's cost depends on its input: on ga_k100 the computed
    # kernel work differs by up to 1.5x between seeds.  GA workloads
    # therefore cycle through several input instances per run and
    # report the mean over instances, so one seed's draw does not
    # decide the run's time.
    instances: int = 1


FULL = {
    "cli_k15": Spec(rows=500, p=100, cols=15, generations=400),
    "ga_cv10_k30": Spec(rows=200, p=100, cols=30, generations=200, folds=10, instances=4),
    "ga_k100": Spec(rows=500, p=100, cols=100, generations=10, instances=5),
    "exhaustive_k15": Spec(rows=500, p=100, cols=15),
}

# Tiny versions of the same tasks, for the benchmark's own test.
SMOKE = {
    "cli_k15": Spec(rows=60, p=12, cols=6, generations=40),
    "ga_cv10_k30": Spec(rows=60, p=12, cols=8, generations=10, folds=3, instances=2),
    "ga_k100": Spec(rows=60, p=12, cols=12, generations=10, instances=2),
    "exhaustive_k15": Spec(rows=60, p=12, cols=6),
}

NAMES = tuple(FULL)


@dataclass
class Context:
    """One input instance of a workload."""

    name: str
    seed: int
    spec: Spec
    work_dir: str
    data: object
    csv_path: str | None = None
    folds: tuple | None = None


def setup(name: str, seed: int, work_dir: str, smoke: bool) -> list[Context]:
    """Generate every input instance; the CLI workload also writes its CSV.

    Instance j of seed s uses seed ``s * instances + j`` for the data,
    the search and the folds, so different seeds never share an input.
    """
    spec = (SMOKE if smoke else FULL)[name]
    out = []
    for j in range(spec.instances):
        inst_seed = seed * spec.instances + j
        full, _ = gen_correlated(spec.rows, p=spec.p, seed=inst_seed)
        data = truncate_predictors(full, spec.cols) if spec.cols < spec.p else full
        inst_dir = os.path.join(work_dir, f"instance{j}")
        os.makedirs(inst_dir)
        ctx = Context(name=name, seed=inst_seed, spec=spec, work_dir=inst_dir, data=data)
        if name == "cli_k15":
            ctx.csv_path = os.path.join(inst_dir, "data.csv")
            save_csv(data, ctx.csv_path)
        if spec.folds:
            ctx.folds = make_partition(data.n, spec.folds, inst_seed).folds
        out.append(ctx)
    return out


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"paretoreg {argv[0]} exited with {rc}")


def run_task(ctx: Context):
    """One timed task; returns what :func:`outputs` needs."""
    s = ctx.spec
    if ctx.name == "cli_k15":
        run_dir = os.path.join(ctx.work_dir, "run")
        _cli(
            ["run", "--data", ctx.csv_path, "--target", "y", "--iterations",
             str(s.generations), "--seed", str(ctx.seed), "--out", run_dir]
        )
        _cli(
            ["analyze", "--frontier", os.path.join(run_dir, "frontier.json"),
             "--task", "criteria", "--out", os.path.join(ctx.work_dir, "analyze")]
        )
        return None
    if ctx.name == "exhaustive_k15":
        return baselines.best_subset_table(ctx.data)
    objective = ObjectiveSpec()
    if s.folds:
        objective = ObjectiveSpec(kind=CROSS_VALIDATION, folds=s.folds, seed=ctx.seed)
    config = moga.GAConfig(iterations=s.generations, seed=ctx.seed, objective=objective)
    return moga.run_moga(ctx.data, config).frontier


def _from_library(models) -> list[Model]:
    return [
        Model(
            mask=np.asarray(m.mask, dtype=bool),
            complexity=m.objective.complexity,
            error=m.objective.error,
            intercept=m.intercept,
            coefs=np.asarray(m.coefficients, dtype=np.float64),
        )
        for m in models
    ]


def outputs(ctx: Context, raw) -> tuple[list[Model], list[str]]:
    """The reported models, and failures found while reading them."""
    if ctx.name != "cli_k15":
        return _from_library(raw), []
    with open(os.path.join(ctx.work_dir, "run", "frontier.json")) as fh:
        doc = json.load(fh)
    models = [
        Model(
            mask=np.array([c == "1" for c in d["mask"]], dtype=bool),
            complexity=int(d["complexity"]),
            error=float(d["error"]),
            intercept=float(d["intercept"]),
            coefs=np.array(d["coefficients"], dtype=np.float64),
        )
        for d in doc["models"]
    ]
    with open(os.path.join(ctx.work_dir, "analyze", "criteria.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    failures = []
    got = [(int(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
    if got != [(m.complexity, m.error) for m in models]:
        failures.append("criteria.csv rows do not match frontier.json")
    return models, failures


def check(ctx: Context, models: list[Model]) -> list[str]:
    """Independent checks on one task's output."""
    X, y = np.asarray(ctx.data.X), np.asarray(ctx.data.y)
    failures = checks.refit_failures(X, y, models, ctx.folds)
    failures += checks.monotone_failures(models)
    if ctx.name == "exhaustive_k15" and [m.complexity for m in models] != list(
        range(ctx.data.k + 1)
    ):
        failures.append("best-subset table does not cover every complexity")
    return failures


def hypervolume(ctx: Context, models: list[Model]) -> float:
    """Normalised hypervolume, with the intercept-only model's error
    (cross-validated on CV workloads) as the reference error."""
    X, y = np.asarray(ctx.data.X), np.asarray(ctx.data.y)
    empty = np.zeros(ctx.data.k, dtype=bool)
    if ctx.folds is not None:
        err0 = checks.cv_error(X, y, empty, ctx.folds)
    else:
        err0 = checks.lstsq_fit(X, y, empty)[1]
    return checks.hypervolume(models, ctx.data.k, err0)


def exact_errors(ctx: Context) -> dict[int, float]:
    """Exact best-subset in-sample error at each complexity (the oracle)."""
    table = baselines.best_subset_table(ctx.data)
    return {m.objective.complexity: m.objective.error for m in table}
