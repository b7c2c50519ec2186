"""Spans around the public calls into each paretoreg module.

The library is not modified: :meth:`Tracer.install` replaces module
attributes (the names the calling module looks up at call time) with
wrappers that record one span per call, and :meth:`Tracer.uninstall`
puts the originals back.  A span is ``(name, start, end, parent, run)``
plus a few counts taken at the same boundary.  Spans are kept in memory
and written out once, when the traced run ends.

A span's self time is its duration minus the part of its interval that
its child spans cover (the union, so overlapping children on pool
threads are not counted twice).  A layer's self time is the sum over
its spans.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np


# Operation count of one fit of an (n, d) intercept-augmented submatrix,
# d = selected columns + 1, in the numpy kernel: thin SVD by R-SVD
# (QR first, then SVD of the d x d factor) computing Sigma, U1 and V,
# 6nd^2 + 20d^3 flops (Golub & Van Loan, Matrix Computations, 3rd ed.,
# Fig. 5.4.1); then U1'y (2nd), V w (2d^2) and the residual y - A beta
# (2nd + n).  The count is computed from shapes, not measured.
def fit_flops(n: int, d: np.ndarray) -> float:
    d = d.astype(np.float64)
    return float(np.sum(6.0 * n * d * d + 20.0 * d**3 + 4.0 * n * d + 2.0 * d * d + n))


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "attrs")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.attrs = {}


class Tracer:
    """Records spans for the wrapped calls of every task run under it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # a pool thread's first span belongs to the main thread's
            # innermost open span, which submitted the work
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), parent, self.run))
        stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    def task(self, fn, *args):
        """Run ``fn(*args)`` as one task: a new run id under a root span."""
        self.run += 1
        idx = self.open("task")
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs before the call and its value is passed to
        ``after(span, args, result, state)``, which stores counts in
        ``span.attrs`` once the span has ended.
        """
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(idx)
            if after is not None:
                after(span, args, result, state)
            return result

        wrapper.__wrapped__ = fn
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import paretoreg.baselines
        import paretoreg.cli
        import paretoreg.moga
        import paretoreg.objectives
        import paretoreg.pareto

        def kernel_after(span, args, result, state):
            X, masks = args[0], args[2]
            d = np.asarray(masks, dtype=np.bool_).sum(axis=1) + 1
            span.attrs["fits"] = int(d.shape[0])
            span.attrs["flop"] = fit_flops(int(X.shape[0]), d)
            span.attrs["deficient"] = int(np.count_nonzero(result[3]))

        for module in (paretoreg.objectives, paretoreg.baselines):
            self.wrap(module, "ols_batch", "kernels.ols_batch", after=kernel_after)

        def eval_before(args):
            return args[0].unique_models

        def eval_after(span, args, result, unique_before):
            span.attrs["queries"] = len(args[1])
            span.attrs["unique"] = args[0].unique_models - unique_before

        self.wrap(
            paretoreg.objectives.ObjectiveEvaluator,
            "evaluate_many",
            "objectives.evaluate_many",
            before=eval_before,
            after=eval_after,
        )

        def pool_after(span, args, result, state):
            span.attrs["pool"] = len(args[0])

        for module in (paretoreg.moga, paretoreg.cli):
            self.wrap(module, "run_moga", "moga.run_moga")
        self.wrap(
            paretoreg.moga,
            "environmental_selection",
            "moga.environmental_selection",
            after=pool_after,
        )
        self.wrap(paretoreg.moga, "crossover", "moga.crossover")
        self.wrap(paretoreg.moga, "mutate", "moga.mutate")
        for module in (paretoreg.moga, paretoreg.pareto):
            self.wrap(module, "nondominated", "pareto.nondominated", after=pool_after)

        self.wrap(paretoreg.baselines, "best_subset_table", "baselines.best_subset_table")

        def load_after(span, args, result, state):
            span.attrs["bytes"] = os.path.getsize(args[0])

        def write_after(span, args, result, state):
            span.attrs["bytes"] = os.path.getsize(args[0])

        self.wrap(paretoreg.cli, "main", "cli.main")
        self.wrap(paretoreg.cli, "load_csv", "data.load_csv", after=load_after)
        self.wrap(
            paretoreg.cli,
            "write_frontier_json",
            "serialize.write_frontier_json",
            after=write_after,
        )
        self.wrap(paretoreg.cli, "read_frontier_json", "serialize.read_frontier_json")
        self.wrap(paretoreg.cli, "criteria_scan", "analysis.criteria_scan")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "run": s.run,
                }
                rec.update(s.attrs)
                fh.write(json.dumps(rec) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer numbers over every traced task, as averages per task.

    Counts and seconds are totals divided by the number of tasks; rates
    and shares are ratios of the pooled totals.
    """
    kids: dict[int, list[int]] = {}
    named: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        named.setdefault(s.name, []).append(i)
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(i)

    def dur(i):
        return spans[i].end - spans[i].start

    def self_time(i):
        s = spans[i]
        covered = [
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in kids.get(i, ())
        ]
        return dur(i) - _union_length([iv for iv in covered if iv[0] < iv[1]])

    def total(name, key=None):
        if key is None:
            return sum(dur(i) for i in named.get(name, ()))
        return sum(spans[i].attrs[key] for i in named.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    def kernels_under(parents):
        return [
            c for p in parents for c in kids.get(p, ()) if spans[c].name == "kernels.ols_batch"
        ]

    tasks = len(named["task"])
    wall = total("task")
    kern = named.get("kernels.ols_batch", [])
    k_busy = _union_length([(spans[i].start, spans[i].end) for i in kern])
    k_fits = total("kernels.ols_batch", "fits")
    gflop = total("kernels.ols_batch", "flop") / 1e9

    evals = named.get("objectives.evaluate_many", [])
    queries = total("objectives.evaluate_many", "queries")
    unique = total("objectives.evaluate_many", "unique")
    select = named.get("moga.environmental_selection", [])
    moga_spans = [
        i
        for name in ("moga.run_moga", "moga.environmental_selection", "moga.crossover", "moga.mutate")
        for i in named.get(name, ())
    ]
    pareto = named.get("pareto.nondominated", [])
    base = named.get("baselines.best_subset_table", [])
    base_busy = total("baselines.best_subset_table")
    base_kernels = kernels_under(base)
    base_kernel_sum = sum(dur(c) for c in base_kernels)

    per_task = {
        "kernels.calls": len(kern),
        "kernels.fits": k_fits,
        "kernels.busy_s": k_busy,
        "kernels.rank_deficient": total("kernels.ols_batch", "deficient"),
        "kernels.gflop_computed": gflop,
        "objectives.queries": queries,
        "objectives.unique": unique,
        "objectives.self_s": sum(self_time(i) for i in evals),
        "moga.select_calls": len(select),
        "moga.select_busy_s": total("moga.environmental_selection"),
        "moga.breed_children": len(named.get("moga.mutate", ())),
        "moga.breed_busy_s": total("moga.crossover") + total("moga.mutate"),
        "moga.self_s": sum(self_time(i) for i in moga_spans),
        "pareto.calls": len(pareto),
        "pareto.busy_s": total("pareto.nondominated"),
        "baselines.masks": sum(spans[c].attrs["fits"] for c in base_kernels),
        "baselines.busy_s": base_busy,
        "baselines.kernel_busy_sum_s": base_kernel_sum,
        "data.load_csv_s": total("data.load_csv"),
        "data.csv_bytes": total("data.load_csv", "bytes"),
        "serialize.write_s": total("serialize.write_frontier_json"),
        "serialize.bytes": total("serialize.write_frontier_json", "bytes"),
        "analysis.busy_s": total("analysis.criteria_scan"),
        "cli.self_s": sum(self_time(i) for i in named.get("cli.main", ())),
    }
    out = {name: value / tasks for name, value in per_task.items()}
    out.update({
        "kernels.fits_per_call": ratio(k_fits, len(kern)),
        "kernels.fits_per_s": ratio(k_fits, k_busy),
        "kernels.share": ratio(k_busy, wall),
        "kernels.gflops": ratio(gflop, k_busy),
        "objectives.hit_rate": 1.0 - ratio(unique, queries) if queries else 0.0,
        "objectives.kernel_fits_per_unique": ratio(
            sum(spans[c].attrs["fits"] for c in kernels_under(evals)), unique
        ),
        "moga.select_mean_pool": ratio(total("moga.environmental_selection", "pool"), len(select)),
        "pareto.mean_input": ratio(total("pareto.nondominated", "pool"), len(pareto)),
        "baselines.workers": workers if base else 0,
        "baselines.pool_speedup": ratio(base_kernel_sum, base_busy),
    })
    return out
