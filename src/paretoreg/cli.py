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
import json
import os
import sys
import time

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
    frontier_csv,
    frontier_to_dict,
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
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"{what} must look like LO:HI, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"{what} has empty range {text!r}")
    return lo, hi


def _parse_objective(text: str) -> ObjectiveSpec:
    if text == "insample":
        return ObjectiveSpec(kind=IN_SAMPLE)
    if text.startswith("cv:"):
        folds = int(text[3:])
        return ObjectiveSpec(kind=CROSS_VALIDATION, folds=folds)
    raise ValueError(
        f"objective must be 'insample' or 'cv:K', got {text!r}"
    )


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def cmd_simulate(args: argparse.Namespace) -> int:
    out = _ensure_out(args.out)
    if args.example == 1:
        raw, truth = gen_additive(args.n, seed=args.seed, noise_sd=args.noise_sd)
        data = expand_features(raw)
    else:
        p = args.p if args.p is not None else 100
        raw, truth = gen_correlated(
            args.n, p=p, seed=args.seed, noise_sd=args.noise_sd
        )
        data = raw
    data_path = os.path.join(out, "data.csv")
    truth_path = os.path.join(out, "truth.json")
    save_csv(data, data_path)
    with open(truth_path, "w") as fh:
        json.dump(truth_to_dict(truth), fh, indent=2)
        fh.write("\n")
    print(f"wrote {data_path} ({data.n} rows, {data.k} predictors)")
    print(f"wrote {truth_path}")
    return 0


def _write_frontier(out, frontier, data, config_doc, stats_doc) -> str:
    """Write ``frontier.json`` and ``frontier.csv`` into ``out``.

    Returns the path of ``frontier.json``.
    """
    doc = frontier_to_dict(
        frontier, data.names, data.target_name, data.n, config_doc, stats_doc
    )
    path = os.path.join(out, "frontier.json")
    write_frontier_json(path, doc)
    with open(os.path.join(out, "frontier.csv"), "w") as fh:
        fh.write(frontier_csv(frontier, data.names))
    return path


def _load(args: argparse.Namespace):
    return load_csv(args.data, args.target, header=not args.no_header)


def cmd_run(args: argparse.Namespace) -> int:
    out = _ensure_out(args.out)
    data = _load(args)
    objective = _parse_objective(args.objective)
    if objective.kind == CROSS_VALIDATION:
        # fold partition seed follows the run seed unless overridden
        cv_seed = args.cv_seed if args.cv_seed is not None else args.seed
        objective = ObjectiveSpec(
            kind=CROSS_VALIDATION, folds=objective.folds, seed=cv_seed
        )
    bounds = _parse_range(args.bounds, "--bounds") if args.bounds else None
    config = GAConfig(
        population_size=args.pop_size,
        iterations=args.iterations,
        crossover_prob=args.crossover_prob,
        mutation_prob=args.mutation_prob,
        n_offspring=args.offspring,
        seed=args.seed,
        objective=objective,
        complexity_bounds=bounds,
        snapshot_every=args.snapshot_every,
        archive=args.archive,
    )

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

    config_doc = {
        "data": os.path.abspath(args.data),
        "target": args.target,
        "header": not args.no_header,
        "objective": {
            "kind": objective.kind,
            "folds": objective.folds if objective.kind == CROSS_VALIDATION else None,
            "seed": objective.seed if objective.kind == CROSS_VALIDATION else None,
        },
        "population_size": config.population_size,
        "iterations": config.iterations,
        "crossover_prob": config.crossover_prob,
        "mutation_prob": config.mutation_prob,
        "n_offspring": config.n_offspring,
        "seed": config.seed,
        "complexity_bounds": list(bounds) if bounds else None,
        "snapshot_every": config.snapshot_every,
        "archive": config.archive,
    }
    stats_doc = {
        "generations": result.generations,
        "evaluations": result.evaluations,
        "unique_models": result.unique_models,
        "runtime_seconds": round(elapsed, 3),
    }
    frontier_path = _write_frontier(out, result.frontier, data, config_doc, stats_doc)
    if result.snapshots:
        with open(os.path.join(out, "snapshots.csv"), "w") as fh:
            fh.write(snapshots_csv(result.snapshots))
    print(
        f"frontier: {len(result.frontier)} models, complexities "
        f"{result.frontier.complexities[0]}..{result.frontier.complexities[-1]}, "
        f"{result.evaluations} evaluations ({result.unique_models} unique) "
        f"in {elapsed:.1f}s"
    )
    print(f"wrote {frontier_path}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    out = _ensure_out(args.out)
    data = _load(args)
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
        path = _write_frontier(out, frontier, data, config_doc, {})
        print(f"frontier: {len(frontier)} models")
        print(f"wrote {path}")
        return 0

    if args.method == "forward":
        traj = forward_selection(data, enter_threshold=args.enter_f)
    elif args.method == "backward":
        traj = backward_elimination(data, exit_threshold=args.exit_f)
    else:
        traj = stepwise_selection(
            data, enter_threshold=args.enter_f, exit_threshold=args.exit_f
        )
    path = os.path.join(out, "trajectory.json")
    with open(path, "w") as fh:
        json.dump(trajectory_to_dict(traj, data.names), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out, "trajectory.csv"), "w") as fh:
        fh.write(trajectory_csv(traj, data.names))
    print(
        f"{args.method}: {len(traj.steps)} steps, final model has "
        f"{traj.final.objective.complexity} variables "
        f"(error {traj.final.objective.error:.6g})"
    )
    print(f"wrote {path}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    out = _ensure_out(args.out)
    docs = [read_frontier_json(p) for p in args.frontier]
    primary = docs[0]

    if args.task == "knee":
        knee = knee_point(primary.frontier)
        doc = {
            "complexity": knee.complexity,
            "distance": knee.distance,
            "pronounced": knee.pronounced,
        }
        path = os.path.join(out, "knee.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        note = "" if knee.pronounced else " (no pronounced knee)"
        print(f"knee at complexity {knee.complexity}{note}")
        print(f"wrote {path}")
        return 0

    if args.task == "criteria":
        scan = criteria_scan(primary.frontier, primary.n)
        lines = ["complexity,mse,aic,bic,aic_min,bic_min"]
        for row in scan.rows:
            aic_s = "" if row.aic is None else repr(row.aic)
            bic_s = "" if row.bic is None else repr(row.bic)
            lines.append(
                f"{row.complexity},{row.mse!r},{aic_s},{bic_s},"
                f"{int(row.complexity == scan.aic_argmin)},"
                f"{int(row.complexity == scan.bic_argmin)}"
            )
        path = os.path.join(out, "criteria.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"AIC argmin complexity: {scan.aic_argmin}")
        print(f"BIC argmin complexity: {scan.bic_argmin}")
        print(f"wrote {path}")
        return 0

    if args.task == "kappa":
        if not args.eval_data:
            raise ValueError("--task kappa requires --eval-data")
        if len(args.eval_data) != len(docs):
            raise ValueError(
                f"{len(docs)} frontiers but {len(args.eval_data)} evaluation sets"
            )
        if not args.range:
            raise ValueError("--task kappa requires --range LO:HI")
        lo, hi = _parse_range(args.range, "--range")
        eval_sets = [
            load_csv(p, args.target, header=not args.no_header)
            for p in args.eval_data
        ]
        value = kappa_metric([d.frontier for d in docs], eval_sets, lo, hi)
        path = os.path.join(out, "kappa.json")
        with open(path, "w") as fh:
            json.dump(
                {"kappa": value, "range": [lo, hi], "pairs": len(docs)}, fh, indent=2
            )
            fh.write("\n")
        print(f"kappa over complexities [{lo}, {hi}]: {value:.6g}")
        print(f"wrote {path}")
        return 0

    if args.task == "osplot":
        snapshots = ()
        if args.snapshots:
            with open(args.snapshots) as fh:
                snapshots = snapshots_from_csv(fh.read())
        plot = os_plot(primary.frontier, snapshots, log_y=args.log_y)
        csv_path = os.path.join(out, "os_plot.csv")
        svg_path = os.path.join(out, "os_plot.svg")
        with open(csv_path, "w") as fh:
            fh.write(plot.csv)
        with open(svg_path, "w") as fh:
            fh.write(plot.svg)
        print(f"wrote {csv_path} and {svg_path}")
        return 0

    if args.task == "hsplot":
        rng = _parse_range(args.range, "--range") if args.range else None
        plot = hs_plot(primary.frontier, primary.names, complexity_range=rng)
        txt_path = os.path.join(out, "hs_plot.txt")
        svg_path = os.path.join(out, "hs_plot.svg")
        with open(txt_path, "w") as fh:
            fh.write(plot.text)
        with open(svg_path, "w") as fh:
            fh.write(plot.svg)
        print(plot.text, end="")
        print(f"wrote {txt_path} and {svg_path}")
        return 0

    raise ValueError(f"unknown analyze task {args.task!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretoreg",
        description="Pareto-frontier subset regression toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

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
    p_sim.add_argument(
        "--p", type=int, default=None, help="predictor count for example 2 (default 100)"
    )
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--noise-sd",
        type=float,
        default=None,
        help="noise standard deviation (default 0.2 for example 1, 1.0 for example 2)",
    )
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="evolutionary frontier search")
    p_run.add_argument("--data", required=True, help="input CSV")
    p_run.add_argument("--target", required=True, help="response column name")
    p_run.add_argument(
        "--no-header",
        action="store_true",
        help="CSV has no header row; columns are auto-named x1..xK",
    )
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
        "--pop-size",
        type=int,
        default=None,
        help="population size (default: K, at least 2)",
    )
    p_run.add_argument("--iterations", type=int, default=500)
    p_run.add_argument("--crossover-prob", type=float, default=0.9)
    p_run.add_argument(
        "--mutation-prob", type=float, default=None, help="default: 1/K"
    )
    p_run.add_argument(
        "--offspring", type=int, default=None, help="offspring per generation (default: population size)"
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--bounds",
        default=None,
        help="restrict search to complexities LO:HI",
    )
    p_run.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        help="record population snapshots every this many generations",
    )
    p_run.add_argument(
        "--archive",
        action="store_true",
        help="report the frontier of all evaluated models, not just the final population",
    )
    p_run.add_argument("--progress", action="store_true", help="per-generation log to stderr")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_base = sub.add_parser("baseline", help="classical selection baselines")
    p_base.add_argument("--data", required=True)
    p_base.add_argument("--target", required=True)
    p_base.add_argument("--no-header", action="store_true")
    p_base.add_argument(
        "--method",
        required=True,
        choices=("exhaustive", "forward", "backward", "stepwise"),
    )
    p_base.add_argument(
        "--max-complexity", type=int, default=None, help="exhaustive: largest subset size"
    )
    p_base.add_argument(
        "--enter-f", type=float, default=4.0, help="partial-F threshold to add a variable"
    )
    p_base.add_argument(
        "--exit-f", type=float, default=4.0, help="partial-F threshold to drop a variable"
    )
    p_base.add_argument(
        "--force",
        action="store_true",
        help="allow exhaustive search beyond 25 predictors",
    )
    p_base.add_argument("--out", required=True)
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
    if args.command == "simulate" and args.noise_sd is None:
        args.noise_sd = 0.2 if args.example == 1 else 1.0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
