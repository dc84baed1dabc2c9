"""Calibration kernel, and the reference start-up that scales ``setup_s``.

This module imports numpy and nothing of the package, so that run as a
script it is the reference start-up process:

    python3 bench/calibrate.py

It starts the interpreter, imports numpy, runs the calibration kernel
``REF_KERNELS`` times and prints ``{"ready_monotonic": ...}``: the same
kinds of work as a benchmark worker's set-up (interpreter start, imports,
small numpy calls), without any code of the package.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

KERNEL_REPEATS = 3
# kernel runs in the reference start-up process
REF_KERNELS = 10


def calibration_kernel() -> float:
    """Fixed interpreter-bound work made of the package's hot-path primitives.

    A closure returning a time-scaled 4x4 structure matrix, small solves
    and determinants, slicing and concatenation, all on arrays of length
    at most 16: its time tracks how fast this host runs that kind of code
    at the moment of the measurement.
    """
    j0 = np.zeros((4, 4))
    j0[:2, 2:] = -np.eye(2)
    j0[2:, :2] = np.eye(2)
    z = np.array([0.3, -0.2, 0.5, 0.1])

    def structure(t):
        return np.exp(0.3 * t) * j0

    acc = 0.0
    for i in range(120):
        k = structure(i * 1e-3)
        x = np.linalg.solve(k, z)
        w = np.concatenate([0.5 * x[:2], -0.5 * x[2:]])
        acc += float(np.max(np.abs(w))) + float(np.linalg.det(k))
    return acc


def time_kernel() -> float:
    """Best of KERNEL_REPEATS timings, which drops the ones a preemption hit."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    for _ in range(REF_KERNELS):
        calibration_kernel()
    sys.stdout.write(json.dumps({"ready_monotonic": time.monotonic()}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
