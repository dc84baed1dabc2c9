"""Self-test of the benchmark's tracing layer.

Run from the repository root:

    python3 bench/selftest.py

Checks that the traced call counts of one small fixed case repeat the
pinned integers exactly, that a second traced run gives the same counts,
and that every name the recorder swaps holds the package's original object
again afterwards, also when the traced code raises.  The pinned counts are
those of CPython 3.11 with numpy 2.4 (OpenBLAS); a different numpy or BLAS
build may round differently and move a Newton iteration count.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import birkhoff  # noqa: E402
import birkhoff.cli  # noqa: E402
import tracing  # noqa: E402
from workloads import OscO2Solve  # noqa: E402

# spans per name for ops 0..2 of pass 0 of osc-o2-solve at seed 0
PINNED_CALLS = {
    "core.K": 267,
    "core.D": 267,
    "core.velocity": 267,
    "transform.forward": 387,
    "transform.inverse": 264,
    "transform.blocks": 504,
    "transform.time_partials": 264,
    "genscheme.a_functional": 264,
    "genscheme.coefficients": 2,
    "genscheme.rebase": 2,
    "genscheme.psi_w": 27,
    "newton.step": 3,
    "newton.identity": 120,
    "numdiff.jacobian": 27,
    "numdiff.partial": 54,
    "stepper.step": 3,
}
# (solves, iterations, residual evaluations) per kind of Newton solve
PINNED_SOLVES = {"step": (3, 7, 24), "identity": (120, 120, 240)}


def traced_counts(seed=0, n_ops=3):
    tracer = tracing.Tracer()
    with tracer.installed():
        result = OscO2Solve(seed, tracer).run_pass(0, n_ops)
    assert all(result.ok), "an op of the fixed case failed its correctness check"
    calls = Counter(name for name, _, _, _, op in tracer.spans if op is not None)
    solves = {}
    for kind, op, iterations, evals, _ in tracer.solves:
        total = solves.get(kind, (0, 0, 0))
        solves[kind] = (total[0] + 1, total[1] + iterations, total[2] + evals)
    return dict(calls), solves


def test_pinned_counts():
    calls, solves = traced_counts()
    assert calls == PINNED_CALLS, f"traced calls moved: {calls}"
    assert solves == PINNED_SOLVES, f"Newton solves moved: {solves}"


def test_counts_repeat():
    assert traced_counts() == traced_counts()


def test_names_restored():
    traced_counts()
    assert tracing.originals_restored() == []
    assert birkhoff.stepper.newton_solve is birkhoff.newton.newton_solve
    assert birkhoff.genscheme.newton_solve is birkhoff.newton.newton_solve
    assert birkhoff.stepper.velocity is birkhoff.core.velocity
    assert birkhoff.cli.symplectic_residual is birkhoff.diagnostics.symplectic_residual
    assert birkhoff.step is birkhoff.stepper.step


def test_names_restored_after_error():
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            assert birkhoff.stepper.step is not birkhoff.step
            raise KeyError("raised inside the traced block")
    except KeyError:
        pass
    assert tracing.originals_restored() == []


def test_untraced_counts_match_traced():
    workload = OscO2Solve(0)
    workload.run_pass(0, 3)
    calls, _ = traced_counts()
    assert workload.counts.calls["K"] == calls["core.K"]
    assert workload.counts.calls["D"] == calls["core.D"]


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
