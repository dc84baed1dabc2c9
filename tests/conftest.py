import time

import numpy as np
import pytest
from hypothesis import settings

from birkhoff import make_scheme, oscillator_alpha, oscillator_system

NU = 0.5

# every property test draws the same examples on every run and keeps no
# example database; a test sets only its own max_examples
settings.register_profile("birkhoff", derandomize=True, deadline=None)
settings.load_profile("birkhoff")

_SUITE_START = time.perf_counter()


def pytest_sessionfinish(session, exitstatus):
    elapsed = time.perf_counter() - _SUITE_START
    verdict = "PASS" if elapsed < 60.0 else "FAIL"
    print(f"\n[acceptance] criterion 9: full suite wall time {elapsed:.1f}s (< 60s) — {verdict}")


@pytest.fixture(scope="session")
def osc_system():
    return oscillator_system(NU)


@pytest.fixture(scope="session")
def osc_alpha():
    return oscillator_alpha(NU)


@pytest.fixture(scope="session")
def osc_scheme_m1(osc_system, osc_alpha):
    return make_scheme(osc_system, osc_alpha, 0.0, 1)


@pytest.fixture(scope="session")
def osc_scheme_m2(osc_system, osc_alpha):
    return make_scheme(osc_system, osc_alpha, 0.0, 2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
