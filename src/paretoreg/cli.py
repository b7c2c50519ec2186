"""Command-line interface.

Four subcommands form a pipeline::

    paretoreg simulate --example 1 --n 1000 --seed 7 --out sim/
    paretoreg run --data sim/data.csv --target y --out run/
    paretoreg baseline --data sim/data.csv --target y --method stepwise --out base/
    paretoreg analyze --frontier run/frontier.json --task knee --out ana/

``simulate`` writes a synthetic dataset plus its ground truth,
``run`` performs the evolutionary frontier search, ``baseline`` runs a
classical selection method, and ``analyze`` consumes ``frontier.json``
files to produce knees, criteria scans, held-out error summaries and
plots.  All failures print ``error: ...`` to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path
from typing import Callable

from . import __version__
from .analysis import criteria_scan, hs_plot, kappa_metric, knee_point, os_plot
from .baselines import (
    backward_elimination,
    exhaustive_frontier,
    forward_selection,
    stepwise_selection,
)
from .data import load_csv, save_csv
from .moga import GAConfig, run_moga
from .objectives import CROSS_VALIDATION, IN_SAMPLE, ObjectiveSpec
from .serialize import (
    criteria_csv,
    frontier_csv,
    frontier_to_dict,
    json_text,
    read_frontier_json,
    snapshots_csv,
    snapshots_from_csv,
    trajectory_csv,
    trajectory_to_dict,
    truth_to_dict,
    write_frontier_json,
)
from .simdata import expand_features, gen_additive, gen_correlated


def _parse_range(text: str, what: str) -> tuple[int, int]:
    """``LO:HI`` as two integers; the callers refuse an empty range."""
    try:
        lo_s, hi_s = text.split(":")
        return int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"{what} must look like LO:HI, got {text!r}") from None


def _parse_objective(text: str, seed: int, cv_seed: int | None) -> ObjectiveSpec:
    """The ``--objective`` spec; the fold seed is ``cv_seed``, else the run ``seed``."""
    if text == "insample":
        if cv_seed is not None:
            raise ValueError("--cv-seed applies only to a cv:K objective")
        return ObjectiveSpec(kind=IN_SAMPLE)
    if text.startswith("cv:") and text[3:].isdecimal():
        fold_seed = seed if cv_seed is None else cv_seed
        return ObjectiveSpec(kind=CROSS_VALIDATION, folds=int(text[3:]), seed=fold_seed)
    raise ValueError(f"objective must be 'insample' or 'cv:K', got {text!r}")


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named options set on the command line; the rest keep the library's defaults."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _writer(out: str) -> Callable[[str, str | Callable[[str], None]], None]:
    """Return ``write(name, content)``: it writes the file ``name`` in ``out`` (made at
    the first write), from its text or by ``content(path)``, and prints ``wrote <path>``."""

    def write(name: str, content: str | Callable[[str], None]) -> None:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        if callable(content):
            content(path)
        else:
            Path(path).write_text(content)
        print(f"wrote {path}")

    return write


def cmd_simulate(args: argparse.Namespace) -> int:
    options = _given(args, "seed", "noise_sd", "p")
    if args.example == 1 and "p" in options:
        raise ValueError("--p applies only to example 2; example 1's predictors are fixed")
    write = _writer(args.out)
    if args.example == 1:
        raw, truth = gen_additive(args.n, **options)
        data = expand_features(raw)
    else:
        data, truth = gen_correlated(args.n, **options)
    print(f"example {args.example}: {data.n} rows, {data.k} predictors")
    write("data.csv", lambda path: save_csv(data, path))
    write("truth.json", json_text(truth_to_dict(truth)))
    return 0


def _write_frontier(write, frontier, data, config_doc, stats_doc) -> None:
    """Write ``frontier.json`` and ``frontier.csv``."""
    doc = frontier_to_dict(
        frontier, data.names, data.target_name, data.n, config_doc, stats_doc
    )
    write("frontier.json", lambda path: write_frontier_json(path, doc))
    write("frontier.csv", frontier_csv(frontier, data.names))


def cmd_run(args: argparse.Namespace) -> int:
    options = _given(
        args, "population_size", "iterations", "crossover_prob", "mutation_prob",
        "n_offspring", "seed", "snapshot_every", "archive",
    )
    if args.bounds is not None:
        options["complexity_bounds"] = _parse_range(args.bounds, "--bounds")
    config = GAConfig(**options)
    objective = _parse_objective(args.objective, config.seed, args.cv_seed)
    config = dataclasses.replace(config, objective=objective)
    data = load_csv(args.data, args.target, header=not args.no_header)
    write = _writer(args.out)

    progress = None
    if args.progress:

        def progress(iteration: int, front_size: int, best_err: float) -> None:
            print(
                f"gen {iteration}: frontier {front_size}, best error {best_err:.6g}",
                file=sys.stderr,
            )

    start = time.perf_counter()
    result = run_moga(data, config, progress=progress)
    elapsed = time.perf_counter() - start

    # "objective" is named before the GAConfig fields to keep its place
    # in the file; the in-sample objective has no folds or fold seed
    config_doc = {
        "data": os.path.abspath(args.data),
        "target": args.target,
        "header": not args.no_header,
        "objective": None,
        **dataclasses.asdict(result.config),
    }
    if objective.kind == IN_SAMPLE:
        config_doc["objective"].update(folds=None, seed=None)
    stats_doc = {
        "generations": result.config.iterations,
        "evaluations": result.evaluations,
        "unique_models": result.unique_models,
        "runtime_seconds": round(elapsed, 3),
    }
    print(
        f"frontier: {len(result.frontier)} models, complexities "
        f"{result.frontier.complexities[0]}..{result.frontier.complexities[-1]}, "
        f"{result.evaluations} evaluations ({result.unique_models} unique) "
        f"in {elapsed:.1f}s"
    )
    _write_frontier(write, result.frontier, data, config_doc, stats_doc)
    write("run.json", json_text({"config": config_doc, "stats": stats_doc}))
    if result.snapshots:
        write("snapshots.csv", snapshots_csv(result.snapshots))
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    write = _writer(args.out)
    data = load_csv(args.data, args.target, header=not args.no_header)
    if args.method == "exhaustive":
        frontier = exhaustive_frontier(
            data, max_complexity=args.max_complexity, force=args.force
        )
        config_doc = {
            "data": os.path.abspath(args.data),
            "target": args.target,
            "method": "exhaustive",
            "max_complexity": args.max_complexity,
        }
        print(f"frontier: {len(frontier)} models")
        _write_frontier(write, frontier, data, config_doc, {})
        return 0

    if args.method == "forward":
        traj = forward_selection(data, **_given(args, "enter_threshold"))
    elif args.method == "backward":
        traj = backward_elimination(data, **_given(args, "exit_threshold"))
    else:
        traj = stepwise_selection(data, **_given(args, "enter_threshold", "exit_threshold"))
    print(
        f"{args.method}: {len(traj.steps)} steps, final model has "
        f"{traj.final.objective.complexity} variables "
        f"(error {traj.final.objective.error:.6g})"
    )
    write("trajectory.json", json_text(trajectory_to_dict(traj, data.names)))
    write("trajectory.csv", trajectory_csv(traj, data.names))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    write = _writer(args.out)
    docs = [read_frontier_json(p) for p in args.frontier]
    primary = docs[0]

    if args.task == "knee":
        knee = knee_point(primary.frontier)
        note = "" if knee.pronounced else " (no pronounced knee)"
        print(f"knee at complexity {knee.complexity}{note}")
        write("knee.json", json_text(dataclasses.asdict(knee)))
    elif args.task == "criteria":
        scan = criteria_scan(primary.frontier, primary.n)
        print(f"AIC argmin complexity: {scan.aic_argmin}")
        print(f"BIC argmin complexity: {scan.bic_argmin}")
        write("criteria.csv", criteria_csv(scan))
    elif args.task == "kappa":
        if not args.eval_data:
            raise ValueError("--task kappa requires --eval-data")
        if len(args.eval_data) != len(docs):
            raise ValueError(
                f"{len(docs)} frontiers but {len(args.eval_data)} evaluation sets"
            )
        if not args.range:
            raise ValueError("--task kappa requires --range LO:HI")
        lo, hi = _parse_range(args.range, "--range")
        eval_sets = [load_csv(p, args.target, header=not args.no_header) for p in args.eval_data]
        # coefficients apply by column position, so the columns must match
        for path, data, doc in zip(args.eval_data, eval_sets, docs):
            if data.names != doc.names:
                raise ValueError(f"{path}: columns {data.names} are not the frontier's {doc.names}")
        value = kappa_metric([d.frontier for d in docs], eval_sets, lo, hi)
        print(f"kappa over complexities [{lo}, {hi}]: {value:.6g}")
        write("kappa.json", json_text({"kappa": value, "range": [lo, hi], "pairs": len(docs)}))
    elif args.task == "osplot":
        snapshots = ()
        if args.snapshots:
            snapshots = snapshots_from_csv(Path(args.snapshots).read_text())
        plot = os_plot(primary.frontier, snapshots, log_y=args.log_y)
        write("os_plot.csv", plot.csv)
        write("os_plot.svg", plot.svg)
    else:
        rng = _parse_range(args.range, "--range") if args.range else None
        plot = hs_plot(primary.frontier, primary.names, complexity_range=rng)
        print(plot.text, end="")
        write("hs_plot.txt", plot.text)
        write("hs_plot.svg", plot.svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretoreg",
        description="Pareto-frontier subset regression toolkit; "
        "an option left out takes the library's default",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # an option left out is not set on the namespace (default=unset), so
    # the library function's own default applies
    unset = argparse.SUPPRESS
    p_sim = sub.add_parser("simulate", help="generate a synthetic benchmark dataset")
    p_sim.add_argument(
        "--example",
        type=int,
        choices=(1, 2),
        required=True,
        help="1: nonlinear additive benchmark (expanded to 25 columns); "
        "2: correlated linear benchmark",
    )
    p_sim.add_argument("--n", type=int, required=True, help="number of rows")
    p_sim.add_argument("--p", type=int, default=unset, help="predictor count for example 2")
    p_sim.add_argument("--seed", type=int, default=unset)
    p_sim.add_argument("--noise-sd", type=float, default=unset, help="noise standard deviation")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    # run and baseline read one CSV and write one directory
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--data", required=True, help="input CSV")
    files.add_argument("--target", required=True, help="response column name")
    files.add_argument(
        "--no-header", action="store_true", help="CSV has no header row; columns are auto-named x1..xK"
    )
    files.add_argument("--out", required=True, help="output directory")

    p_run = sub.add_parser("run", parents=[files], help="evolutionary frontier search")
    p_run.add_argument(
        "--objective",
        default="insample",
        help="'insample' or 'cv:K' for K-fold cross-validation (default insample)",
    )
    p_run.add_argument(
        "--cv-seed",
        type=int,
        default=None,
        help="fold partition seed (default: the run seed)",
    )
    p_run.add_argument(
        "--pop-size", dest="population_size", type=int, default=unset, help="population size"
    )
    p_run.add_argument("--iterations", type=int, default=unset)
    p_run.add_argument("--crossover-prob", type=float, default=unset)
    p_run.add_argument("--mutation-prob", type=float, default=unset)
    p_run.add_argument(
        "--offspring", dest="n_offspring", type=int, default=unset, help="offspring per generation"
    )
    p_run.add_argument("--seed", type=int, default=unset)
    p_run.add_argument(
        "--bounds",
        default=None,
        help="restrict search to complexities LO:HI",
    )
    p_run.add_argument(
        "--snapshot-every", type=int, default=unset,
        help="record population snapshots every this many generations",
    )
    p_run.add_argument(
        "--archive", action="store_true", default=unset,
        help="report the frontier of all evaluated models, not just the final population",
    )
    p_run.add_argument("--progress", action="store_true", help="per-generation log to stderr")
    p_run.set_defaults(func=cmd_run)

    p_base = sub.add_parser("baseline", parents=[files], help="classical selection baselines")
    p_base.add_argument(
        "--method",
        required=True,
        choices=("exhaustive", "forward", "backward", "stepwise"),
    )
    p_base.add_argument(
        "--max-complexity", type=int, default=None, help="exhaustive: largest subset size"
    )
    p_base.add_argument(
        "--enter-f", dest="enter_threshold", type=float, default=unset,
        help="partial-F threshold to add a variable",
    )
    p_base.add_argument(
        "--exit-f", dest="exit_threshold", type=float, default=unset,
        help="partial-F threshold to drop a variable",
    )
    p_base.add_argument(
        "--force",
        action="store_true",
        help="allow exhaustive search beyond 25 predictors",
    )
    p_base.set_defaults(func=cmd_baseline)

    p_ana = sub.add_parser("analyze", help="frontier diagnostics and plots")
    p_ana.add_argument(
        "--frontier",
        nargs="+",
        required=True,
        help="frontier.json file(s); kappa accepts several",
    )
    p_ana.add_argument(
        "--task",
        required=True,
        choices=("knee", "criteria", "kappa", "osplot", "hsplot"),
    )
    p_ana.add_argument(
        "--eval-data",
        nargs="+",
        default=None,
        help="kappa: one evaluation CSV per frontier",
    )
    p_ana.add_argument("--target", default="y", help="response column in --eval-data")
    p_ana.add_argument("--no-header", action="store_true")
    p_ana.add_argument("--range", default=None, help="complexity range LO:HI")
    p_ana.add_argument("--log-y", action="store_true", help="osplot: log-scale error axis")
    p_ana.add_argument(
        "--snapshots", default=None, help="osplot: snapshots.csv from a run"
    )
    p_ana.add_argument("--out", required=True)
    p_ana.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
