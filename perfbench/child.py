"""One benchmark process: one workload at one BLAS setting.

Started by run.py with the BLAS thread variables already in its
environment, so they take effect when numpy is imported below.  Prints
one JSON object as its last line of standard output.

Modes:
  setup   time the set-up only (imports, data generation, CSV write);
  timed   repeat the task until the time budget is spent, check outputs;
  traced  alternate untraced and traced tasks, report per-layer numbers.
"""

import time

T0 = time.perf_counter()

# Set-up time starts above, so the imports below are part of it.
import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import paretoreg  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Traced tasks keep every span in memory until the run ends; a few are
# enough, since an instance's counts repeat exactly.
MAX_TRACED = 6


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:  # not Linux
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def facts() -> dict:
    """numpy, BLAS and kernel backend as this process sees them."""
    from paretoreg._kernels import active_backend

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    return {
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "backend": active_backend(),
        # the rule best_subset_table applies to size its thread pool
        "exhaustive_workers": int(os.environ.get("PARETOREG_WORKERS") or os.cpu_count() or 1),
    }


class Runner:
    """Runs tasks of one workload, checks them and counts failures.

    Tasks cycle through the workload's input instances.  The first good
    output of each instance is checked in full and becomes its
    reference; every later output, traced or not, must equal it bit for
    bit.
    """

    def __init__(self, instances):
        self.instances = instances
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[int, tuple] = {}
        self.models: dict[int, list] = {}

    def run(self, j: int, tracer=None) -> float | None:
        """One task on instance ``j``; returns its wall seconds, or None if it failed."""
        ctx = self.instances[j]
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                raw = workloads.run_task(ctx)
                elapsed = time.perf_counter() - start
            else:
                tracer.install()
                try:
                    start = time.perf_counter()
                    raw = tracer.task(workloads.run_task, ctx)
                    elapsed = time.perf_counter() - start
                finally:
                    tracer.uninstall()
            models, problems = workloads.outputs(ctx, raw)
        except Exception:  # a failed task is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.fail("task raised " + traceback.format_exc().splitlines()[-1])
            return None
        if j not in self.reference:
            problems += workloads.check(ctx, models)
            if not problems:
                self.reference[j] = checks.digest(models)
                self.models[j] = models
        elif checks.digest(models) != self.reference[j]:
            kind = "traced" if tracer is not None else "repeated"
            problems.append(f"{kind} task gave a different frontier")
        if problems:
            self.fail("; ".join(problems))
            return None
        return elapsed

    def fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)
        print(f"failed: {why}", file=sys.stderr)


def keep_going(start: float, times: list[float], budget: float, done: int, min_done: int) -> bool:
    """Whether another task fits in the budget, judged by the median so far."""
    if done < min_done:
        return True
    if not times:
        return False
    return time.perf_counter() - start + statistics.median(times) <= budget


def timed(runner: Runner, args) -> dict:
    n = len(runner.instances)
    times: list[float] = []
    start = time.perf_counter()
    # with --repeat every instance runs at least twice, for the repeat check
    min_tasks = n + 1 if args.repeat else n
    while keep_going(start, times, args.budget, runner.attempted, min_tasks):
        t = runner.run(runner.attempted % n)
        if t is not None:
            times.append(t)
    out = {
        "times": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if runner.models:
        out["frontier_hv"] = statistics.mean(
            workloads.hypervolume(runner.instances[j], models)
            for j, models in runner.models.items()
        )
    if args.oracle:
        gaps = [
            checks.exact_gap(models, workloads.exact_errors(runner.instances[j]))
            for j, models in runner.models.items()
        ]
        out["exact_gap"] = max(gaps) if gaps else None
        if gaps and max(gaps) > checks.REL_TOL:
            runner.fail(f"search error exceeds the exact optimum by {max(gaps):.3g}")
    return out


def traced(runner: Runner, args) -> dict:
    n = len(runner.instances)
    tracer = tracing.Tracer()
    plain: list[float] = []
    spanned: list[float] = []
    start = time.perf_counter()
    pairs = 0
    while pairs < max(n, MAX_TRACED) and keep_going(
        start, [a + b for a, b in zip(plain, spanned)], args.budget, pairs, n
    ):
        j = pairs % n
        pairs += 1
        a = runner.run(j)
        b = runner.run(j, tracer)
        if a is None or b is None:
            break
        plain.append(a)
        spanned.append(b)
    layers = tracing.layer_metrics(tracer.spans, facts()["exhaustive_workers"])
    # 0 when no pair completed; the run then reports its failures
    layers["trace.overhead_frac"] = sum(spanned) / sum(plain) - 1.0 if plain else 0.0
    if args.spans:
        tracer.write(args.spans)
    return {"layers": layers, "times": plain, "traced_times": spanned}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--repeat", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(paretoreg.__file__).startswith(src + os.sep):
        print(f"error: paretoreg imported from {paretoreg.__file__}, not {src}", file=sys.stderr)
        return 2
    instances = workloads.setup(args.workload, args.seed, args.work_dir, args.smoke)
    out = {"setup_s": time.perf_counter() - T0, "facts": facts()}
    if args.mode != "setup":
        runner = Runner(instances)
        out.update((timed if args.mode == "timed" else traced)(runner, args))
        out.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
