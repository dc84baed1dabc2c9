"""Benchmark of the birkhoff package: one workload, one seed, one run.

Usage, from the repository root:

    python3 bench/run.py --workload osc-o2-solve --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no recorder installed;
``--trace 1`` gives the per-layer metrics from a traced run.  Either way
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
environment and the run's details.  Both are also written under
``.bench_out/`` in the repository root, with the traced run's spans.

Each process this script starts runs one workload single-threaded (every
BLAS/OpenMP pool set to one thread) and is waited for; a process that
fails or overruns makes the run fail with a non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# the names of workloads.WORKLOADS; this process does not import the package
WORKLOADS = ("osc-o2-solve", "chain-o1-solve", "osc-o2-certified", "chain-selfadjoint")
# tail percentile per workload: the highest whole percentile with at least
# ten ops beyond it in a 25 s run on a 2-core Xeon host, also when the host
# runs at two thirds of its usual speed
TAIL_PERCENTILE = {
    "osc-o2-solve": 98,
    "chain-o1-solve": 99,
    "osc-o2-certified": 95,
    "chain-selfadjoint": 60,
}
SETUP_PROBES = 2  # set-up-only processes on each side of the measured one
# setup_s is in seconds of a host on which the reference start-up
# (calibrate.py) takes this long: about its time on the 2-core Xeon host
# this benchmark was built on, in that host's faster state
REF_SECONDS = 0.17
TIME_LIMIT = 170.0  # the whole run, every child process included
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_ENV, "1"))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def spawn(args: list, deadline: float, script: str = "worker.py") -> tuple:
    """Run one bench script to completion; returns (spawn time, its JSON result)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before all processes ran")
    cmd = [sys.executable, str(BENCH_DIR / script), *args]
    what = " ".join([script, *args])
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"process overran the time limit: {what}") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"process exited with code {proc.returncode}: {what}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"process printed no result: {what}")
    return started, json.loads(lines[-1])


def ready_seconds(args: list, deadline: float, script: str = "worker.py") -> tuple:
    """(seconds from spawn until the process reported ready, its JSON result)."""
    started, result = spawn(args, deadline, script)
    return result["ready_monotonic"] - started, result


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
        numpy_version = numpy.__version__
    except (ImportError, KeyError, TypeError):
        blas = numpy_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    base = ["--workload", workload, "--seed", str(seed)]
    # Set-up-only processes before and after the measured one, each between
    # two reference start-ups (calibrate.py).  The host's speed moves set-up
    # time by tens of percent, so each set-up is taken relative to the mean
    # of the two reference start-ups around it.
    setups, references = [], [ready_seconds([], deadline, "calibrate.py")[0]]
    for mode in ["setup"] * SETUP_PROBES + ["run"] + ["setup"] * SETUP_PROBES:
        seconds_to_ready, result = ready_seconds(
            ["--mode", mode, *base, "--seconds", repr(seconds)], deadline
        )
        setups.append(seconds_to_ready)
        references.append(ready_seconds([], deadline, "calibrate.py")[0])
        if mode == "run":
            out = result
    setup_rel = [
        setup / (0.5 * (before + after))
        for setup, before, after in zip(setups, references, references[1:])
    ]

    ops = out["op_seconds"]
    if not ops:
        raise BenchError("no op completed")
    attempted = len(out["ok"])
    failed = attempted - sum(out["ok"])
    pct = TAIL_PERCENTILE[workload]
    median_op = statistics.median(ops)
    tail_op = percentile(ops, pct)
    rel = out["op_rel"]
    metrics = {
        "setup_s": (REF_SECONDS * statistics.median(setup_rel), "s"),
        "op_cost_rel": (statistics.median(rel), "kernel"),
        "throughput_rel": (len(rel) / sum(rel), "op/kernel"),
        "user_evals_per_op": (out["user_evals_per_op"], "count"),
        "ops_ok_frac": (1.0 - failed / attempted, "fraction"),
        "peak_rss_mb": (out["peak_rss_kib"] / 1024.0, "MB"),
    }
    details = {
        # recorded, not gated: raw times follow the host's speed, and the
        # tail follows its interference, by more than any bound (README.md)
        "ops_per_s": len(ops) / sum(ops),
        "op_ms.p50": 1e3 * median_op,
        "op_ms.tail": 1e3 * tail_op,
        "op_cost_rel.tail": percentile(rel, pct),
        "tail_percentile": pct,
        "ops_completed": len(ops),
        "ops_beyond_tail": sum(1 for v in ops if v > tail_op),
        "ops_failed_frac": failed / attempted,
        "setup_s.raw": statistics.median(setups),
        "reference_s.p50": statistics.median(references),
        "kernel_ms.p50": 1e3 * statistics.median(out["kernel_seconds"]),
        "passes": out["passes"],
        "user_calls": out["user_calls"],
    }
    samples = {
        "setup_seconds": setups,
        "reference_seconds": references,
        "op_seconds": ops,
        "op_rel": rel,
        "kernel_seconds": out["kernel_seconds"],
    }
    return attempted, failed, metrics, details, samples


def per_layer(workload: str, seed: int, deadline: float) -> tuple:
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    _, out = spawn(
        ["--mode", "trace", "--workload", workload, "--seed", str(seed), "--spans", str(spans)],
        deadline,
    )
    attempted = len(out["ok"])
    failed = attempted - sum(out["ok"])
    metrics = {
        name: (value, unit_of(name)) for name, value in out["layer_metrics"].items()
    }
    details = {"spans": out["spans"], "ops_traced": out["ops_traced"], "spans_file": str(spans)}
    return attempted, failed, metrics, details, {}


def unit_of(name: str) -> str:
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("reuse_ratio"):
        return "ratio"
    if "ms_per" in name:
        return "ms"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "birkhoff" / "__init__.py").is_file():
        print(f"bench: package source not found at {SRC / 'birkhoff'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            attempted, failed, metrics, details, samples = per_layer(
                args.workload, args.seed, deadline
            )
        else:
            attempted, failed, metrics, details, samples = end_to_end(
                args.workload, args.seed, args.seconds, deadline
            )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        **details,
    }
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result, "samples": samples}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
