"""One benchmark process: set up one workload, then measure or trace it.

Started by ``run.py`` with the package's ``src`` directory on PYTHONPATH
and every BLAS/OpenMP pool limited to one thread.  Prints one JSON object
on its last stdout line.

Modes:

- ``setup``: import, build, one warm-up op, report when ready.
- ``run``: as ``setup``, then the untraced measurement for ``--seconds``.
- ``trace``: as ``setup``, then ``trace_passes`` untraced passes and the
  same passes again under the span recorder.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import tracing
from calibrate import time_kernel
from workloads import WARMUP_PASS, WORKLOADS


def setup(name: str, seed: int):
    """Build the workload and run its warm-up op."""
    workload = WORKLOADS[name](seed)
    workload.run_pass(WARMUP_PASS, 1)
    return workload


def measure(workload, seconds: float) -> dict:
    """Untraced passes until ``seconds`` have passed and ``count_passes`` are done.

    The host's speed drifts by tens of percent within seconds, so each
    op's time is also given relative to the calibration kernel timed at
    the boundaries just before and just after its pass.
    """
    op_seconds, op_rel, ok = [], [], []
    kernels = [time_kernel()]
    evals_before = workload.counts.total()
    counted_evals = counted_ops = None
    deadline = time.perf_counter() + seconds
    index = 0
    while index < workload.count_passes or time.perf_counter() < deadline:
        result = workload.run_pass(index, workload.ops_per_pass)
        kernels.append(time_kernel())
        local = 0.5 * (kernels[-2] + kernels[-1])
        op_seconds += result.seconds
        op_rel += [sec / local for sec in result.seconds]
        ok += result.ok
        index += 1
        if index == workload.count_passes:
            counted_evals = workload.counts.total() - evals_before
            counted_ops = len(ok)
    for op_index in workload.after_passes():
        ok[op_index] = False
    return {
        "passes": index,
        "op_seconds": op_seconds,
        "op_rel": op_rel,
        "ok": ok,
        "kernel_seconds": kernels,
        "user_evals_per_op": counted_evals / counted_ops,
        "user_calls": dict(workload.counts.calls),
    }


def trace(workload, spans_path: str | None) -> dict:
    """Untraced twin passes, then the same passes under the recorder."""
    passes = range(workload.trace_passes)
    untraced = []
    ok = []
    for index in passes:
        result = workload.run_pass(index, workload.ops_per_pass)
        untraced += result.seconds
        ok += result.ok
    offset = len(ok)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_workload = type(workload)(workload.seed, tracer)
        traced = []
        for index in passes:
            result = traced_workload.run_pass(index, workload.ops_per_pass)
            traced += result.seconds
            ok += result.ok
        for op_index in traced_workload.after_passes():
            ok[offset + op_index] = False
    not_restored = tracing.originals_restored()
    if not_restored:
        raise RuntimeError(f"names not restored after tracing: {not_restored}")
    metrics = tracing.layer_metrics(
        tracer, len(traced), getattr(traced_workload, "cli_steps", 0)
    )
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    if spans_path:
        tracer.dump(spans_path)
    return {
        "ok": ok,
        "layer_metrics": metrics,
        "spans": len(tracer.spans),
        "ops_traced": len(traced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", help="JSON-lines file for the traced run's spans")
    args = parser.parse_args(argv)

    workload = setup(args.workload, args.seed)
    out = {"ready_monotonic": time.monotonic()}
    if args.mode == "run":
        out.update(measure(workload, args.seconds))
    elif args.mode == "trace":
        out.update(trace(workload, args.spans))
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
