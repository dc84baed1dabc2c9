"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps, for the duration of a ``with Tracer().installed():``
block, the names the package looks up at call time (``PATCHES``), and
restores the original objects on exit, also when the block raises.  The
user callables, the transform callables and the scheme's ``rebase`` are
objects the benchmark builds itself; it wraps those through
``Tracer.wrap`` when it builds them (see ``workloads.Workload``).

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the id of the op in
progress (``None`` outside ops, ``"cli"`` for the CLI run).  Spans are
kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

import birkhoff.cli
from birkhoff import diagnostics, genscheme, numdiff, selfadjoint, stepper

# (owner, attribute, span name); owners are modules, plus the scheme class
# whose psi_w the stepper calls through the instance
PATCHES = (
    (stepper, "newton_solve", "newton.step"),
    (genscheme, "newton_solve", "newton.identity"),
    (numdiff, "jacobian", "numdiff.jacobian"),
    (numdiff, "partial", "numdiff.partial"),
    (genscheme, "a_functional", "genscheme.a_functional"),
    (genscheme, "coefficients", "genscheme.coefficients"),
    (genscheme.GeneratingScheme, "psi_w", "genscheme.psi_w"),
    (stepper, "velocity", "core.velocity"),
    (genscheme, "velocity", "core.velocity"),
    (selfadjoint, "reconstruct_f", "selfadjoint.reconstruct_f"),
    (stepper, "step", "stepper.step"),
    (stepper, "step_jacobian", "stepper.step_jacobian"),
    (diagnostics, "symplectic_residual", "diagnostics.symplectic_residual"),
    (birkhoff.cli, "symplectic_residual", "diagnostics.symplectic_residual"),
    (selfadjoint, "check_self_adjointness", "selfadjoint.check"),
    (selfadjoint, "reconstruct_b", "selfadjoint.reconstruct_b"),
    (birkhoff.cli, "main", "cli.main"),
)

# the package objects each patched name must be again after a traced run
ORIGINALS = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in PATCHES}

# span names whose self time makes up each layer's self_ms_per_op
LAYERS = {
    "transform": tuple(
        f"transform.{name}"
        for name in ("forward", "inverse", "blocks", "inverse_blocks", "time_partials")
    ),
    "genscheme": (
        "genscheme.a_functional", "genscheme.coefficients", "genscheme.rebase", "genscheme.psi_w"
    ),
    "newton": ("newton.step", "newton.identity"),
    "numdiff": ("numdiff.jacobian", "numdiff.partial"),
}


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.spans = []
        self.solves = []  # (kind, op, iterations, residual_evals, span index)
        self.op = None
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def wrap_newton(self, name, fn):
        """Span plus per-solve record: iterations and residual evaluations."""
        kind = name.split(".", 1)[1]
        spanned = self.wrap(name, fn)

        def traced(residual, x0, *args, **kwargs):
            evals = [0]

            def counted(x):
                evals[0] += 1
                return residual(x)

            index = len(self.spans)
            out = spanned(counted, x0, *args, **kwargs)
            self.solves.append((kind, self.op, int(out[2]), evals[0], index))
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every name in PATCHES for a recording wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name in PATCHES:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                wrap = self.wrap_newton if name.startswith("newton.") else self.wrap
                setattr(owner, attr, wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")


def originals_restored() -> list:
    """Names in PATCHES that do not hold the package's original object."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), original in ORIGINALS.items()
        if owner.__dict__[attr] is not original
    ]


def layer_metrics(tracer: Tracer, n_ops: int, cli_steps: int) -> dict:
    """Per-op (per-step for the CLI) metrics of every layer from one traced run.

    Only spans inside an op count toward the per-op figures; the CLI span
    and what it encloses count toward the ``cli.*`` figures only.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = Counter()
    total = defaultdict(float)
    self_time = defaultdict(float)
    cli_total = cli_self = 0.0
    for index, (name, start, end, parent, op) in enumerate(spans):
        duration = end - start
        if op == "cli":
            if name == "cli.main":
                cli_total += duration
                cli_self += duration - child_time[index]
            continue
        if op is None:
            continue
        calls[name] += 1
        total[name] += duration
        self_time[name] += duration - child_time[index]

    def per_op(value):
        return value / n_ops

    def ms_per_op(seconds):
        return 1e3 * seconds / n_ops

    def layer_self_ms(layer):
        return ms_per_op(sum(self_time[name] for name in LAYERS[layer]))

    solves = defaultdict(lambda: [0, 0, 0, 0])  # solves, iterations, evals, refreshes
    refreshes = Counter(
        parent for name, _, _, parent, op in spans if name == "numdiff.jacobian" and op is not None
    )
    for kind, op, iterations, evals, index in tracer.solves:
        if op is None or op == "cli":
            continue
        entry = solves[kind]
        entry[0] += 1
        entry[1] += iterations
        entry[2] += evals
        entry[3] += refreshes[index]

    def per_solve(kind, field):
        count = solves[kind][0]
        return solves[kind][field] / count if count else 0.0

    requests = calls["genscheme.rebase"]
    builds = calls["genscheme.coefficients"]
    out = {}
    for name in ("K", "D", "F", "B"):
        out[f"core.{name}.calls_per_op"] = per_op(calls[f"core.{name}"])
    out["core.user.ms_per_op"] = ms_per_op(sum(total[f"core.{n}"] for n in ("K", "D", "F", "B")))
    out["core.velocity.calls_per_op"] = per_op(calls["core.velocity"])
    for name in ("forward", "inverse", "blocks", "time_partials"):
        out[f"transform.{name}.calls_per_op"] = per_op(calls[f"transform.{name}"])
    out["transform.self_ms_per_op"] = layer_self_ms("transform")
    out["genscheme.a_functional.calls_per_op"] = per_op(calls["genscheme.a_functional"])
    out["genscheme.rebase.calls_per_op"] = per_op(requests)
    out["genscheme.coefficients.calls_per_op"] = per_op(builds)
    out["genscheme.rebase.reuse_ratio"] = 1.0 - builds / requests if requests else 0.0
    out["genscheme.identity_solves_per_op"] = per_op(solves["identity"][0])
    out["genscheme.psi_w.calls_per_op"] = per_op(calls["genscheme.psi_w"])
    out["genscheme.self_ms_per_op"] = layer_self_ms("genscheme")
    out["newton.step.iterations_per_solve"] = per_solve("step", 1)
    out["newton.step.residual_evals_per_solve"] = per_solve("step", 2)
    out["newton.step.jacobian_refreshes_per_solve"] = per_solve("step", 3)
    out["newton.identity.iterations_per_solve"] = per_solve("identity", 1)
    out["newton.identity.residual_evals_per_solve"] = per_solve("identity", 2)
    out["newton.self_ms_per_op"] = layer_self_ms("newton")
    out["numdiff.jacobian.calls_per_op"] = per_op(calls["numdiff.jacobian"])
    out["numdiff.partial.calls_per_op"] = per_op(calls["numdiff.partial"])
    out["numdiff.self_ms_per_op"] = layer_self_ms("numdiff")
    out["stepper.step.calls_per_op"] = per_op(calls["stepper.step"])
    out["stepper.step.self_ms_per_op"] = ms_per_op(self_time["stepper.step"])
    out["stepper.step_jacobian.ms_per_op"] = ms_per_op(total["stepper.step_jacobian"])
    out["diagnostics.symplectic_residual.ms_per_op"] = ms_per_op(
        total["diagnostics.symplectic_residual"]
    )
    out["selfadjoint.check.ms_per_op"] = ms_per_op(total["selfadjoint.check"])
    out["selfadjoint.reconstruct_b.ms_per_op"] = ms_per_op(total["selfadjoint.reconstruct_b"])
    out["selfadjoint.reconstruct_f.calls_per_op"] = per_op(calls["selfadjoint.reconstruct_f"])
    out["cli.integrate.ms_per_step"] = 1e3 * cli_total / cli_steps if cli_steps else 0.0
    out["cli.self_ms_per_step"] = 1e3 * cli_self / cli_steps if cli_steps else 0.0
    return out
