"""The benchmark's tracing hooks still name live package objects.

``bench/tracing.py`` rebinds, for a traced run, the names listed in its
``PATCHES`` and records the originals in ``ORIGINALS`` when it is
imported; a package change that removes or re-homes one of those names
must fail here, not only in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import birkhoff.cli
import birkhoff.diagnostics

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # builds ORIGINALS: a missing name raises here
    return module


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
