"""The pass loop: a cold pass, then warm passes until the run's time is up.

A pass runs every operation of the workload once, in a fixed order, and its
time is the sum of the operations' times; checking an answer happens outside
the timed region.  The run reports the cold pass and the median warm pass.
Operations differ in size by three orders of magnitude, so no percentile is
taken across operations: a p50 over them would depend on which case sits in
the middle rather than on how fast the engine is.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

from checks import CheckFailed
from tracer import layer_totals, pass_metrics


class RunStats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []           # operations that raised
        self.wrong = []            # answers that failed their check
        self.op_times = defaultdict(list)
        self.stage_times = defaultdict(list)


def run_pass(ops, stats, record):
    """One pass over ``ops``; returns the summed time of the operations."""
    total = 0.0
    for op in ops:
        stats.attempted += 1
        t0 = time.perf_counter()
        try:
            result, stages = op.run()
        except Exception as exc:  # an engine fault fails this operation only
            stats.failed += 1
            stats.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - t0
        total += elapsed
        if record:
            stats.op_times[op.name].append(elapsed)
            for stage, seconds in stages.items():
                stats.stage_times[f"{op.name}/{stage}"].append(seconds)
        try:
            op.check(result)
        except CheckFailed as exc:
            stats.wrong.append(str(exc))
    return total


def measure(ops, seconds, tracer=None, min_passes=3):
    """Run the passes; returns a dict of pass times and, if traced, layers.

    Warm passes continue while the next one is expected to end within
    ``seconds`` of the first, and at least ``min_passes`` run.
    """
    stats = RunStats()
    cold = run_pass(ops, stats, record=False)
    warm, layers, self_times = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            span0, counts0 = len(tracer.spans), Counter(tracer.counts)
        warm.append(run_pass(ops, stats, record=True))
        if tracer is not None:
            inclusive, own = layer_totals(tracer.spans, span0, len(tracer.spans))
            counts = Counter(tracer.counts)
            counts.subtract(counts0)
            layers.append(pass_metrics(counts, inclusive))
            self_times.append(own)
        elapsed = time.perf_counter() - start
        if len(warm) >= min_passes and \
                elapsed + statistics.median(warm) > seconds:
            break
    out = {
        "stats": stats,
        "cold_pass_s": cold,
        "pass_s": statistics.median(warm),
        "warm_passes_s": warm,
        "op_median_s": {k: statistics.median(v)
                        for k, v in stats.op_times.items()},
        "stage_median_s": {k: statistics.median(v)
                           for k, v in stats.stage_times.items()},
    }
    if tracer is not None:
        out["per_layer"] = _per_layer(layers)
        out["counts_repeat"] = all(
            {k: v for k, v in p.items() if k.endswith("_calls")}
            == {k: v for k, v in layers[0].items() if k.endswith("_calls")}
            for p in layers)
        names = sorted({n for own in self_times for n in own})
        out["self_median_s"] = {
            n: statistics.median(own.get(n, 0.0) for own in self_times)
            for n in names}
    return out


def _per_layer(layers):
    """Counts from the first warm pass; times as the median over warm passes."""
    out = {}
    for metric, value in layers[0].items():
        out[metric] = value if metric.endswith("_calls") \
            else statistics.median(p[metric] for p in layers)
    return out
