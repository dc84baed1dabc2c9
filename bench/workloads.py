"""The four benchmark workloads and their correctness checks.

Each workload repeats one unit of work, an *op*, grouped in *passes*.
Pass ``i`` draws its inputs from ``numpy.random.default_rng([seed, i])``,
so the same seed gives the same inputs whatever the run length.  A
generating scheme is built fresh at the start of every pass, outside any
op, so no coefficient cache carries over from one pass to the next.

Every call into the package goes through a module attribute
(``stepper.step``, ``selfadjoint.reconstruct_b``, ...), so that the traced
run can swap those names for recording wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import time

import numpy as np

import birkhoff.cli
from birkhoff import diagnostics, genscheme, oscillator, selfadjoint, stepper, transform
from birkhoff.core import BirkhoffSystem, PhasePoint
from birkhoff.errors import BirkhoffError

USER_CALLABLES = ("K", "D", "F", "B")
TRANSFORM_CALLABLES = ("forward", "inverse", "blocks", "inverse_blocks", "time_partials")

# pass index whose inputs feed the warm-up op; never used by a measured pass
WARMUP_PASS = 10**9

OSC_NU, OSC_TAU, OSC_STEPS = 0.5, 0.1, 10
# criterion 1 of the acceptance gate: generic pipeline vs closed form
OSC_STATE_TOL = 1e-10
# criterion 8 of the acceptance gate: per-step structure residual
RESIDUAL_TOL = 1e-6

CHAIN_N, CHAIN_NU, CHAIN_COUPLING = 2, 0.3, 0.1
CHAIN_TAU, CHAIN_STEPS = 0.05, 20
CHAIN_RK4_SUBSTEPS = 10
# Order-1 tolerance on the final state of a pass, as a multiple of
# tau * horizon * max(1, |z0|_inf).  Over 200 passes at seed 0 the measured
# ratio |z_N - z_rk4|_inf / (tau * horizon * max(1, |z0|_inf)) lay between
# 0.025 and 0.12 (README.md, "Correctness checks"); 0.5 leaves a 4x margin
# while still failing any scheme whose error does not shrink like tau.
CHAIN_ORDER1_CONSTANT = 0.5

SELFADJOINT_TOL = 1e-7
B_REL_TOL = 1e-8


class CountingCallables:
    """Counts calls to the user callables a workload passes to the package."""

    def __init__(self):
        self.calls = dict.fromkeys(USER_CALLABLES, 0)

    def wrap(self, name, fn):
        calls = self.calls

        def counted(z, t):
            calls[name] += 1
            return fn(z, t)

        return counted

    def total(self) -> int:
        return sum(self.calls.values())


def _identity_wrap(name, fn):
    return fn


@dataclasses.dataclass
class OpResult:
    """Durations and verdicts of the ops of one pass."""

    seconds: list = dataclasses.field(default_factory=list)
    ok: list = dataclasses.field(default_factory=list)

    def add(self, seconds: float, ok: bool) -> None:
        self.seconds.append(seconds)
        self.ok.append(bool(ok))

    def fail(self) -> None:
        """An op that raised: attempted and failed, with no duration."""
        self.ok.append(False)


class Workload:
    """Shared machinery: seeded inputs, op timing, optional tracing hooks.

    ``tracer`` (optional) must offer ``wrap(name, fn)`` and an ``op``
    attribute naming the op in progress.  Without one, the only wrappers
    are the call counters on the user callables.
    """

    name = ""
    ops_per_pass = 1
    # passes over which user_evals_per_op is counted; every run does at least these
    count_passes = 1
    # passes of the traced run (and of its untraced twin)
    trace_passes = 1

    def __init__(self, seed: int, tracer=None):
        self.seed = int(seed)
        self.tracer = tracer
        self.counts = CountingCallables()
        self._wrap = tracer.wrap if tracer is not None else _identity_wrap
        self._next_op = 0
        self.build()

    # -- hooks for subclasses ------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, n_ops: int) -> OpResult:
        raise NotImplementedError

    def after_passes(self) -> list:
        """Extra once-per-run work; returns the indices of pass-0 ops it found wrong."""
        return []

    # -- helpers ----------------------------------------------------------

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, int(index)])

    def user_callable(self, name, fn):
        return self._wrap(f"core.{name}", self.counts.wrap(name, fn))

    def wrapped_alpha(self, alpha):
        return dataclasses.replace(
            alpha,
            **{name: self._wrap(f"transform.{name}", getattr(alpha, name))
               for name in TRANSFORM_CALLABLES},
        )

    def scheme(self, t0: float, order: int):
        sch = genscheme.make_scheme(self.sys, self.alpha, t0, order)
        if self.tracer is None:
            return sch
        return dataclasses.replace(sch, rebase=self._wrap("genscheme.rebase", sch.rebase))

    def timed(self, fn, *args):
        """(result, seconds) of one op; the op's id tags its trace spans."""
        if self.tracer is not None:
            self.tracer.op = self._next_op
        self._next_op += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.op = None
        return out, elapsed


# -- damped oscillator, order 2 -------------------------------------------


class _OscillatorOrder2(Workload):
    ops_per_pass = OSC_STEPS

    def build(self):
        base = oscillator.oscillator_system(OSC_NU)
        self.sys = dataclasses.replace(
            base, **{name: self.user_callable(name, getattr(base, name)) for name in USER_CALLABLES}
        )
        self.alpha = self.wrapped_alpha(oscillator.oscillator_alpha(OSC_NU))
        self.closed = oscillator.scheme_second_order(OSC_NU, OSC_TAU)

    def pass_inputs(self, index):
        rng = self.rng(index)
        t0 = float(rng.uniform(0.0, 2.0))
        z0 = rng.uniform(-2.0, 2.0, 2)
        return t0, z0

    def state_ok(self, z, z_new) -> bool:
        return bool(np.max(np.abs(z_new - self.closed @ z)) <= OSC_STATE_TOL)


class OscO2Solve(_OscillatorOrder2):
    """One uncertified order-2 step: coefficient recursion and transform layer."""

    name = "osc-o2-solve"
    count_passes = 40
    trace_passes = 3

    def run_pass(self, index, n_ops):
        t0, z = self.pass_inputs(index)
        sch = self.scheme(t0, 2)
        res = OpResult()
        for k in range(n_ops):
            t_k = t0 + k * OSC_TAU
            try:
                z_new, sec = self.timed(stepper.step, self.sys, sch, z, t_k, OSC_TAU)
            except BirkhoffError:
                res.fail()
                break
            res.add(sec, self.state_ok(z, z_new))
            z = z_new
        return res


class OscO2Certified(_OscillatorOrder2):
    """One certified step, as ``birkhoff integrate --scheme generating-2`` does per row."""

    name = "osc-o2-certified"
    count_passes = 12
    trace_passes = 2

    def certified_step(self, sch, z, t_k):
        jac = stepper.step_jacobian(self.sys, sch, z, t_k, OSC_TAU)
        z_new = stepper.step(self.sys, sch, z, t_k, OSC_TAU)
        residual = diagnostics.symplectic_residual(self.sys, jac, z, t_k, z_new, t_k + OSC_TAU)
        return z_new, residual

    def run_pass(self, index, n_ops):
        t0, z = self.pass_inputs(index)
        sch = self.scheme(t0, 2)
        res = OpResult()
        states = [z]
        if index == 0:
            self.pass0_states = states
        for k in range(n_ops):
            t_k = t0 + k * OSC_TAU
            try:
                (z_new, residual), sec = self.timed(self.certified_step, sch, z, t_k)
            except BirkhoffError:
                res.fail()
                break
            res.add(sec, self.state_ok(z, z_new) and residual <= RESIDUAL_TOL)
            z = z_new
            states.append(z)
        return res

    def after_passes(self):
        """Run ``birkhoff integrate`` on pass 0's inputs; its CSV must match exactly."""
        t0, z0 = self.pass_inputs(0)
        library = self.pass0_states
        # "--flag=value" keeps a leading minus sign from reading as a flag
        argv = [
            "integrate", f"--nu={OSC_NU!r}", "--scheme=generating-2",
            "--z0=" + ",".join(repr(float(v)) for v in z0), f"--t0={t0!r}",
            f"--tau={OSC_TAU!r}", f"--steps={len(library) - 1}",
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.call_cli(argv)
        rows = out.getvalue().splitlines()[1:]
        wrong = []
        for k in range(1, len(library)):
            fields = rows[k].split(",") if code == 0 and k < len(rows) else []
            cli_state = [float(v) for v in fields[2:-1]]
            if not np.array_equal(np.asarray(cli_state), library[k]):
                wrong.append(k - 1)
        self.cli_steps = len(library) - 1
        return wrong

    def call_cli(self, argv):
        if self.tracer is not None:
            self.tracer.op = "cli"
        try:
            return birkhoff.cli.main(argv)
        finally:
            if self.tracer is not None:
                self.tracer.op = None


# -- damped pendulum chain -------------------------------------------------


def chain_callables(n=CHAIN_N, nu=CHAIN_NU, coupling=CHAIN_COUPLING):
    """K, D, F, B of the damped pendulum chain q'' + nu q' + sin q + coupling = 0.

    K = e^{nu t} J0,  F = e^{nu t} (p/2, -q/2),
    B = e^{nu t} (nu q.p/2 + sum(1 - cos q) + p.p/2 + coupling * sum q_i q_{i+1}).
    """
    j0 = np.zeros((2 * n, 2 * n))
    j0[:n, n:] = -np.eye(n)
    j0[n:, :n] = np.eye(n)

    def neighbours(q):
        out = np.zeros(n)
        out[:-1] += q[1:]
        out[1:] += q[:-1]
        return coupling * out

    def K(z, t):
        return np.exp(nu * t) * j0

    def F(z, t):
        q, p = z[:n], z[n:]
        return np.exp(nu * t) * np.concatenate([0.5 * p, -0.5 * q])

    def B(z, t):
        return float(np.exp(nu * t) * sum(chain_b_terms(z, n, nu, coupling)))

    def D(z, t):
        q, p = z[:n], z[n:]
        return -np.exp(nu * t) * np.concatenate([nu * p + np.sin(q) + neighbours(q), p])

    def rhs(z):
        # the phase velocity K^{-1}(-D); autonomous, so t drops out
        q, p = z[:n], z[n:]
        return np.concatenate([p, -nu * p - np.sin(q) - neighbours(q)])

    return {"K": K, "D": D, "F": F, "B": B}, rhs


def chain_b_terms(z, n=CHAIN_N, nu=CHAIN_NU, coupling=CHAIN_COUPLING):
    """The four terms of B / e^{nu t}, for the value and its floating-point scale."""
    q, p = z[:n], z[n:]
    return (
        0.5 * nu * float(q @ p),
        float(np.sum(1.0 - np.cos(q))),
        0.5 * float(p @ p),
        coupling * float(np.sum(q[:-1] * q[1:])),
    )


def rk4(rhs, z, horizon, steps):
    h = horizon / steps
    for _ in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


class ChainO1Solve(Workload):
    """One order-1 step of the nonlinear 4-dimensional chain: no phi^2 at all."""

    name = "chain-o1-solve"
    ops_per_pass = CHAIN_STEPS
    count_passes = 60
    trace_passes = 3

    def build(self):
        callables, self.rhs = chain_callables()
        self.sys = BirkhoffSystem(
            n=CHAIN_N, **{name: self.user_callable(name, fn) for name, fn in callables.items()}
        )
        self.alpha = self.wrapped_alpha(
            transform.scaled_canonical_alpha(
                lambda t: np.exp(CHAIN_NU * t), CHAIN_N,
                lam_dot=lambda t: CHAIN_NU * np.exp(CHAIN_NU * t),
            )
        )

    def pass_inputs(self, index):
        rng = self.rng(index)
        t0 = float(rng.uniform(0.0, 2.0))
        z0 = rng.uniform(-1.0, 1.0, 2 * CHAIN_N)
        return t0, z0

    def run_pass(self, index, n_ops):
        t0, z0 = self.pass_inputs(index)
        sch = self.scheme(t0, 1)
        res = OpResult()
        z = z0
        for k in range(n_ops):
            try:
                z, sec = self.timed(stepper.step, self.sys, sch, z, t0 + k * CHAIN_TAU, CHAIN_TAU)
            except BirkhoffError:
                res.fail()
                break
            res.add(sec, bool(np.all(np.isfinite(z))))
        if len(res.ok) == n_ops and n_ops == self.ops_per_pass and not self.final_state_ok(z0, z):
            res.ok = [False] * n_ops
        return res

    def final_state_ok(self, z0, z_final) -> bool:
        horizon = CHAIN_STEPS * CHAIN_TAU
        reference = rk4(self.rhs, z0, horizon, CHAIN_STEPS * CHAIN_RK4_SUBSTEPS)
        scale = CHAIN_TAU * horizon * max(1.0, float(np.max(np.abs(z0))))
        return bool(np.max(np.abs(z_final - reference)) <= CHAIN_ORDER1_CONSTANT * scale)


class ChainSelfAdjoint(Workload):
    """Certify one sample point of the chain's raw (K, D) and rebuild B there."""

    name = "chain-selfadjoint"
    ops_per_pass = 1
    count_passes = 1
    trace_passes = 3

    def build(self):
        callables, _ = chain_callables()
        self.raw = selfadjoint.RawFirstOrderSystem(
            CHAIN_N, self.user_callable("K", callables["K"]), self.user_callable("D", callables["D"])
        )

    def pass_inputs(self, index):
        rng = self.rng(index)
        return PhasePoint(rng.uniform(-1.0, 1.0, 2 * CHAIN_N), float(rng.uniform(0.0, 1.0)))

    def certify(self, point):
        report = selfadjoint.check_self_adjointness(self.raw, [point], tol=SELFADJOINT_TOL)
        return report, selfadjoint.reconstruct_b(self.raw, point, check=True)

    def run_pass(self, index, n_ops):
        point = self.pass_inputs(index)
        res = OpResult()
        try:
            (report, b_value), sec = self.timed(self.certify, point)
        except BirkhoffError:
            res.fail()
            return res
        terms = chain_b_terms(point.z)
        scale = np.exp(CHAIN_NU * point.t)
        exact = scale * sum(terms)
        # relative to the sum of the terms' magnitudes, the scale at which
        # B's floating-point value is defined (B itself can cancel to ~0)
        magnitude = scale * sum(abs(v) for v in terms)
        res.add(sec, report.passed and abs(b_value - exact) <= B_REL_TOL * magnitude)
        return res


WORKLOADS = {cls.name: cls for cls in (OscO2Solve, ChainO1Solve, OscO2Certified, ChainSelfAdjoint)}
