"""paretoreg benchmark: the parent process.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S [--trace 0|1] [--smoke]

Run from the root of a source tree; the library is imported from
``src/``.  Each setting runs in a fresh child process (child.py), one at
a time, with the BLAS thread variables set before numpy is imported:

  --trace 0  the task repeated for S/2 seconds at 1 BLAS thread, then
             S/2 seconds at the machine default, with set-up-only
             children around them; prints every end-to-end metric.
  --trace 1  untraced and traced tasks alternated for up to S seconds at
             1 BLAS thread; prints every per-layer metric and the
             tracing overhead.

Without --trace both runs are made, one after the other.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; when several workloads or both runs were made, its
metric names are prefixed with the workload.  Machine facts go to the lines
before it and, with every sample, to .perfbench/ in the source tree.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    pass


def child_env(pinned: bool) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        if pinned:
            env[var] = "1"
        else:
            env.pop(var, None)
    return env


def run_child(mode: str, args, work: Path, deadline: float, pinned: bool = True, **opts) -> dict:
    """Run child.py to completion and return its JSON result."""
    sub = Path(tempfile.mkdtemp(dir=work, prefix=mode + "-"))
    cmd = [
        sys.executable, str(HERE / "child.py"), "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--work-dir", str(sub),
    ]
    for key, value in opts.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            cmd.append(flag)
        elif value not in (None, False):
            cmd += [flag, str(value)]
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError(f"no time left for the {mode} child")
    try:
        # subprocess.run kills and reaps the child on a timeout or any
        # other exception, SIGTERM included (see main)
        proc = subprocess.run(
            cmd, env=child_env(pinned), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child timed out after {timeout:.0f}s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def machine_facts() -> dict:
    """Facts this process can see; children add numpy, BLAS, backend and pool size."""
    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numba_present": importlib.util.find_spec("numba") is not None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return facts


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(args, work: Path, deadline: float) -> tuple[dict, dict, list[dict]]:
    """Run the children for one workload; returns metrics, settings, child results."""
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        res = run_child("traced", args, work, deadline, budget=args.seconds, spans=spans)
        return res["layers"], {"blas_threads": res["facts"]["blas_threads"]}, [res]
    oracle = args.workload == "cli_k15"
    # set-up-only children go before, between and after the timed ones,
    # so the five set-up samples are spread over the whole run
    results = [run_child("setup", args, work, deadline)]
    one = run_child("timed", args, work, deadline, budget=args.seconds / 2, repeat=True,
                    oracle=oracle)
    results += [one, run_child("setup", args, work, deadline)]
    dflt = run_child("timed", args, work, deadline, pinned=False, budget=args.seconds / 2)
    results += [dflt, run_child("setup", args, work, deadline)]
    metrics = {
        "run_s": median(one["times"]),
        "run_s_blas_default": median(dflt["times"]),
        "setup_s": median([r["setup_s"] for r in results]),
        "peak_rss_mb": one["peak_rss_mb"],
        "frontier_hv": one.get("frontier_hv", 0.0),
    }
    settings = {
        "tasks": {"run_s": len(one["times"]), "run_s_blas_default": len(dflt["times"]),
                  "setup_s": len(results)},
        "blas_threads": {"run_s": one["facts"]["blas_threads"],
                         "run_s_blas_default": dflt["facts"]["blas_threads"]},
    }
    if oracle:
        settings["exact_gap"] = one.get("exact_gap")
    return metrics, settings, results


def bench_one(args, spec: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, settings, results = measure(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts = dict(machine_facts(), **results[0]["facts"])
    del facts["blas_threads"]
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    failures = [f for r in results for f in r.get("failures", ())]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = set(units) - set(metrics)
    if missing:
        raise ChildError(f"no value for {sorted(missing)}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(f"== {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(facts))
    print("settings " + json.dumps(settings))
    for name, m in summary["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    # failed_frac and exact_gap are printed but kept out of the JSON
    # metrics: both are 0 when the program is right, and a bound relative
    # to 0 is undefined.  failed_frac travels as attempted and failed.
    print(f"failed_frac = {failed / attempted:.6g} fraction ({failed} of {attempted} tasks)")
    if settings.get("exact_gap") is not None:
        print(f"exact_gap = {settings['exact_gap']:.6g} fraction")
    for why in failures:
        print(f"failure: {why}")
    record = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=facts, settings=settings, failures=failures,
                  samples=[{k: v for k, v in r.items() if k != "layers"} for r in results])
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 untraced, 1 traced; omitted: both, one after the other")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "paretoreg" / "__init__.py").is_file():
        print(f"error: no paretoreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    runs = [
        (name, trace)
        for name in (names if args.workload == "all" else [args.workload])
        for trace in ([0, 1] if args.trace is None else [args.trace])
    ]
    results = []
    try:
        for args.workload, args.trace in runs:
            results.append((args.workload, bench_one(args, spec)))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(runs) == 1:
        print(json.dumps(results[0][1]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{w}/{k}": v for w, r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
