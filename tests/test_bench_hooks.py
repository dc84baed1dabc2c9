"""The benchmark's tracing hooks still name live package objects.

``bench/tracing.py`` rebinds, for a traced run, the names listed in its
``PATCHES`` and records the originals in ``ORIGINALS`` when it is
imported; ``bench/workloads.py`` rebuilds systems, transforms and schemes
with ``dataclasses.replace`` over the fields it names.  A package change
that removes or re-homes one of those names must fail here, not only in
the benchmark.  A traced Newton solve must also return what an untraced
one does and count each evaluation of the solve's terms, so that
``newton.*.residual_evals_per_solve`` keeps its meaning, and every
evaluation of the generating-gradient functional must pass through the
traced ``genscheme.a_functional``.  Three checks of ``bench/selftest.py``
run here as well: traced counts repeat, the names come back after a
traced block that raises, and the untraced K and D counts equal the
traced ones.
"""

import dataclasses
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import birkhoff.cli
import birkhoff.diagnostics
import birkhoff.stepper
from birkhoff import (
    AlphaTransform,
    BirkhoffSystem,
    GeneratingScheme,
    darboux_alpha,
    make_scheme,
    oscillator_alpha,
    oscillator_system,
    scaled_canonical_alpha,
    step,
)
from birkhoff.newton import newton_solve

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_bench_module("tracing")  # builds ORIGINALS: a missing name raises here


@pytest.fixture(scope="module")
def workloads():
    return load_bench_module("workloads")


@pytest.fixture(scope="module")
def selftest():
    path = list(sys.path)
    try:
        return load_bench_module("selftest")  # puts src and bench first on sys.path
    finally:
        sys.path[:] = path


@pytest.mark.parametrize(
    "check",
    ["test_counts_repeat", "test_names_restored_after_error", "test_untraced_counts_match_traced"],
)
def test_tracer_contract_of_the_bench_selftest(selftest, check):
    # its pinned counts are left out: they wait for a re-pin in bench/
    getattr(selftest, check)()


def home_object(obj):
    """The object that ``obj.__qualname__`` names in its defining module."""
    target = sys.modules[obj.__module__]
    for part in obj.__qualname__.split("."):
        target = getattr(target, part)
    return target


def test_every_patched_name_is_the_package_function_it_wraps(tracing):
    assert tracing.PATCHES
    for owner, attr, _ in tracing.PATCHES:
        obj = owner.__dict__[attr]
        assert callable(obj), f"{owner}.{attr}"
        assert obj.__module__.startswith("birkhoff."), f"{owner}.{attr}"
        assert home_object(obj) is obj, f"{owner}.{attr}"
        assert tracing.ORIGINALS[(owner, attr)] is obj, f"{owner}.{attr}"
    assert birkhoff.cli.symplectic_residual is birkhoff.diagnostics.symplectic_residual


def test_installed_tracer_wraps_and_restores_every_name(tracing):
    tracer = tracing.Tracer()
    with tracer.installed():
        for owner, attr, _ in tracing.PATCHES:
            assert owner.__dict__[attr] is not tracing.ORIGINALS[(owner, attr)]
    assert tracing.originals_restored() == []


def field_names(cls):
    return {field.name for field in dataclasses.fields(cls)}


@pytest.mark.parametrize(
    "make_alpha",
    [
        lambda: oscillator_alpha(0.5),
        lambda: scaled_canonical_alpha(lambda t: 1.0 + t * t, 2),
        lambda: darboux_alpha(lambda t: np.array([[1.0, t], [0.0, 1.0]]), 1),
    ],
    ids=["oscillator_alpha", "scaled_canonical_alpha", "darboux_alpha"],
)
def test_transform_callables_rebind_on_every_transform_family(workloads, make_alpha):
    assert set(workloads.TRANSFORM_CALLABLES) <= field_names(AlphaTransform)
    alpha = make_alpha()
    calls = []

    def wrap(fn):
        def wrapped(*args):
            calls.append(fn)
            return fn(*args)

        return wrapped

    rebound = dataclasses.replace(
        alpha, **{name: wrap(getattr(alpha, name)) for name in workloads.TRANSFORM_CALLABLES}
    )
    z = np.linspace(-1.0, 1.0, alpha.dim)
    for name in workloads.TRANSFORM_CALLABLES:
        got, want = getattr(rebound, name)(z, z, 0.3, 0.2), getattr(alpha, name)(z, z, 0.3, 0.2)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
    assert len(calls) == len(workloads.TRANSFORM_CALLABLES)


def test_user_callables_and_rebase_rebind(workloads):
    assert set(workloads.USER_CALLABLES) <= field_names(BirkhoffSystem)
    assert "rebase" in field_names(GeneratingScheme)
    base = oscillator_system(0.5)
    system = dataclasses.replace(
        base, **{name: getattr(base, name) for name in workloads.USER_CALLABLES}
    )
    scheme = make_scheme(system, oscillator_alpha(0.5), 0.0, 1)
    asked = []

    def rebase(t0):
        asked.append(t0)
        return scheme.rebase(t0)

    # the step must ask the field the benchmark rebinds for its scheme
    rebased = dataclasses.replace(scheme, rebase=rebase)
    step(system, rebased, np.array([0.7, -1.3]), 0.1, 0.05)
    assert asked == [0.1]


def test_traced_newton_solve_matches_and_counts_its_evaluations(tracing):
    # the traced solve hands its own counting wrapper of ``terms`` to
    # newton_solve; the result and the number of evaluations must not move
    evals = []

    def terms(x):
        evals.append(x.copy())
        return np.array([x[0] ** 2 + x[1] ** 2, np.exp(x[0]) + x[1]]), np.array([4.0, 1.0])

    def inverse(x):
        return np.linalg.inv(np.array([[2.0 * x[0], 2.0 * x[1]], [np.exp(x[0]), 1.0]]))

    x, rnorm, iters = newton_solve(terms, [3.0, -5.0], inverse)
    untraced_evals = len(evals)
    tracer = tracing.Tracer()
    out = tracer.wrap_newton("newton.step", newton_solve)(terms, [3.0, -5.0], inverse)
    np.testing.assert_array_equal(out[0], x)
    assert out[1:] == (rnorm, iters)
    assert [solve[:4] for solve in tracer.solves] == [("step", None, iters, untraced_evals)]


def test_traced_step_solve_matches_and_counts_one_evaluation_per_update(tracing, monkeypatch):
    # the Newton solve of one order-2 oscillator step, run untraced and
    # then traced on the same relation: the step stops at its target, so
    # the solve evaluates its terms once at the start and once per update.
    # The relation is linear in z_new; its first matrix drops phi2's
    # Hessian, so four updates meet the target (one did with the exact
    # matrix), and none follows it
    solves = []

    def recorded(*args, **kwargs):
        out = newton_solve(*args, **kwargs)
        solves.append((args, kwargs, out))
        return out

    monkeypatch.setattr(birkhoff.stepper, "newton_solve", recorded)
    system = oscillator_system(0.5)
    scheme = make_scheme(system, oscillator_alpha(0.5), 0.3, 2)
    step(system, scheme, np.array([0.7, -1.3]), 0.3, 0.1)
    [(args, kwargs, (x, rnorm, iters))] = solves
    assert iters == 4
    tracer = tracing.Tracer()
    out = tracer.wrap_newton("newton.step", newton_solve)(*args, **kwargs)
    np.testing.assert_array_equal(out[0], x)
    assert out[1:] == (rnorm, iters)
    assert [solve[:4] for solve in tracer.solves] == [("step", None, iters, iters + 1)]


def test_darboux_identity_solve_records_one_evaluation_and_no_update(tracing):
    tracer = tracing.Tracer()
    with tracer.installed():
        scheme = make_scheme(oscillator_system(0.5), oscillator_alpha(0.5), 0.3, 1)
        np.testing.assert_array_equal(scheme.coeffs[0](np.array([0.7, -1.3])), 0.0)
    assert [solve[:4] for solve in tracer.solves] == [("identity", None, 0, 1)]


def test_traced_functional_calls_cover_every_evaluation(tracing):
    # each evaluation of the functional calls K once, through the phase
    # velocity, and the step's predictor calls it once more; a functional
    # evaluated past genscheme.a_functional would show as an extra K call
    tracer = tracing.Tracer()
    base = oscillator_system(0.5)
    system = dataclasses.replace(base, K=tracer.wrap("core.K", base.K))
    with tracer.installed():
        scheme = make_scheme(system, oscillator_alpha(0.5), 0.3, 2)
        step(system, scheme, np.array([0.7, -1.3]), 0.3, 0.1)
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["core.K"] > 1
    assert calls["genscheme.a_functional"] == calls["core.K"] - 1
