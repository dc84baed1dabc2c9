import sys
import threading

import numpy as np
import pytest

from birkhoff import (
    BirkhoffSystem,
    EvaluationError,
    PhasePoint,
    RawFirstOrderSystem,
    RegularityError,
    darboux_alpha,
    k_from_f,
    oscillator_system,
    regularity,
    scaled_canonical_alpha,
    velocity,
)
from birkhoff.core import _DET_CACHE_SIZE, _content_cached, _det_margin, det_nonzero

NU = 0.5


class TestPhasePoint:
    def test_stores_vector_and_time(self):
        p = PhasePoint([1.0, 2.0], 0.5)
        assert p.n == 1
        assert p.t == 0.5
        np.testing.assert_array_equal(p.z, [1.0, 2.0])

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            PhasePoint([1.0, 2.0, 3.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PhasePoint([])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PhasePoint([np.nan, 0.0])
        with pytest.raises(ValueError):
            PhasePoint([1.0, 0.0], np.inf)


# every constructor that takes the half dimension n, as a function of n
TAKES_N = {
    "BirkhoffSystem": lambda n: BirkhoffSystem(n=n, F=lambda z, t: z, B=lambda z, t: 0.0),
    "RawFirstOrderSystem": lambda n: RawFirstOrderSystem(n, lambda z, t: z, lambda z, t: z),
    "darboux_alpha": lambda n: darboux_alpha(lambda t: np.eye(2), n),
    "scaled_canonical_alpha": lambda n: scaled_canonical_alpha(lambda t: 1.0, n),
}


class TestSystemValidation:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            BirkhoffSystem(n=0, F=lambda z, t: z, B=lambda z, t: 0.0)

    @pytest.mark.parametrize("build", TAKES_N.values(), ids=TAKES_N.keys())
    def test_n_must_be_a_positive_integer(self, build):
        # a float or a bool used to be truncated by int(n): 1.9 -> 1, True -> 1
        for n in (1.9, 2.5, 1.5, True, 0, -1, "2"):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                build(n)
        built = build(np.int64(2))
        assert built.n == 2 and type(built.n) is int


class TestKFromF:
    def test_damped_oscillator_at_time_zero(self, osc_system):
        k = k_from_f(osc_system, PhasePoint([1.0, 2.0], 0.0))
        np.testing.assert_allclose(k, [[0.0, -1.0], [1.0, 0.0]], atol=1e-8)

    def test_zero_functions_give_zero_matrix(self):
        sys1 = BirkhoffSystem(n=1, F=lambda z, t: np.zeros(2), B=lambda z, t: 0.0)
        k = k_from_f(sys1, PhasePoint([0.3, -0.7]))
        np.testing.assert_array_equal(k, np.zeros((2, 2)))

    def test_quadratic_component_functions(self):
        # F = (z2^2, 0): dF1/dz2 = 2 z2, so K12 = -2 z2 at z2 = 1
        sys1 = BirkhoffSystem(
            n=1, F=lambda z, t: np.array([z[1] ** 2, 0.0]), B=lambda z, t: 0.0
        )
        k = k_from_f(sys1, PhasePoint([1.0, 1.0]))
        np.testing.assert_allclose(k, [[0.0, -2.0], [2.0, 0.0]], atol=1e-8)

    def test_output_exactly_antisymmetric(self, rng):
        sys1 = BirkhoffSystem(
            n=2,
            F=lambda z, t: np.array(
                [z[1] * z[2], np.sin(z[0]) + t * z[3], z[0] ** 2, np.cos(z[1] * z[2])]
            ),
            B=lambda z, t: 0.0,
        )
        for _ in range(10):
            k = k_from_f(sys1, PhasePoint(rng.uniform(-2, 2, 4), rng.uniform(0, 1)))
            np.testing.assert_array_equal(k.T, -k)

    def test_matches_analytic_structure_matrix(self, osc_system, rng):
        for _ in range(20):
            p = PhasePoint(rng.uniform(-2, 2, 2), rng.uniform(0, 1))
            derived = k_from_f(osc_system, p)
            analytic = osc_system.k_at(p.z, p.t)
            assert np.max(np.abs(derived - analytic)) <= 1e-6

    def test_nonfinite_component_functions_rejected(self):
        sys1 = BirkhoffSystem(
            n=1, F=lambda z, t: np.array([np.nan, 0.0]), B=lambda z, t: 0.0
        )
        with pytest.raises(EvaluationError):
            k_from_f(sys1, PhasePoint([1.0, 0.0]))


class TestRegularity:
    def test_oscillator_at_time_zero(self, osc_system):
        det, regular = regularity(osc_system, PhasePoint([1.0, 0.0], 0.0))
        assert regular
        assert det == pytest.approx(1.0, abs=1e-14)

    def test_determinant_grows_with_the_time_scaling(self, osc_system, rng):
        # det of the scaled canonical pair is the squared scaling factor
        for _ in range(5):
            t = rng.uniform(0, 2)
            det, regular = regularity(osc_system, PhasePoint([0.2, -1.0], t))
            assert regular
            assert det == pytest.approx(np.exp(2 * NU * t), rel=1e-12)

    def test_zero_matrix_not_regular(self):
        sys1 = BirkhoffSystem(
            n=1, F=lambda z, t: np.zeros(2), B=lambda z, t: 0.0, K=lambda z, t: np.zeros((2, 2))
        )
        det, regular = regularity(sys1, PhasePoint([1.0, 1.0]))
        assert det == 0.0
        assert not regular

    def test_small_well_conditioned_matrix_is_regular(self):
        # n = 2, K = 1e-3 J0: det K = 1e-12, yet K is a scaled rotation
        k = 1e-3 * np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        rhs = np.array([1.0, -2.0, 0.5, 3.0]) * 1e-3
        sys2 = BirkhoffSystem(
            n=2, F=lambda z, t: np.zeros(4), B=lambda z, t: 0.0,
            K=lambda z, t: k, D=lambda z, t: -rhs,
        )
        det, regular = regularity(sys2, PhasePoint(np.ones(4)))
        assert det == pytest.approx(1e-12, rel=1e-9)
        assert regular
        np.testing.assert_allclose(k @ velocity(sys2, np.ones(4), 0.0), rhs, atol=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow encountered in det")
    def test_velocity_where_det_k_overflows(self, osc_system):
        # at t=800, K = e^{400} J0: det K is past the float range, K is regular
        z = np.array([0.2, -1.0])
        np.testing.assert_allclose(
            velocity(osc_system, z, 800.0), velocity(osc_system, z, 0.0), rtol=1e-12, atol=1e-14
        )

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    @pytest.mark.filterwarnings("ignore:overflow encountered in det")
    def test_nonsingularity_test_ignores_scale(self, rng):
        regular = rng.uniform(-1, 1, (4, 4))
        singular = regular.copy()
        singular[3] = singular[0] + singular[1]
        for scale in (1e-100, 1e-8, 1.0, 1e8, 1e100):
            assert det_nonzero(scale * regular)
            assert not det_nonzero(scale * singular)
            # rows of very different size, as in A - Psi_ww C at large lambda(t)
            rows = np.diag([scale, 1.0, 1.0, 1.0 / scale])
            assert det_nonzero(rows @ regular)
            assert not det_nonzero(rows @ singular)
        assert not det_nonzero(np.full((2, 2), np.nan))


class TestVerdictCache:
    # the nonsingularity verdict is memoized by content: shape and float64 bytes

    def test_matrix_mutated_in_place_gets_a_new_verdict(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert det_nonzero(mat)
        mat[1] = 2.0 * mat[0]
        assert not det_nonzero(mat)
        mat[1] = [3.0, 4.0]
        assert det_nonzero(mat)

    def test_view_gets_the_verdict_of_its_contiguous_copy(self, rng):
        base = rng.uniform(-1, 1, (6, 6))
        view = base[::2, 1::2]
        assert not view.flags.c_contiguous
        assert _det_margin(view) == _det_margin(np.ascontiguousarray(view))
        # a transposed view shares the buffer of its base but not its rows:
        # a tiny row of M is a tiny column of M^T, which row scaling cannot undo
        mat = np.diag([1e-20, 1.0]) @ np.array([[1.0, 2.0], [3.0, 5.0]])
        assert det_nonzero(mat)
        assert not det_nonzero(mat.T)
        assert not det_nonzero(np.ascontiguousarray(mat.T))

    def test_nan_entry_reads_singular(self):
        mat = np.eye(3)
        assert det_nonzero(mat)
        mat[1, 2] = np.nan
        for _ in range(2):
            assert not det_nonzero(mat)
            assert _det_margin(mat) == -np.inf

    def test_error_is_raised_on_every_call_and_never_cached(self):
        _det_margin.cache_clear()
        for _ in range(3):
            with pytest.raises(np.linalg.LinAlgError):
                det_nonzero(np.ones((2, 3)))
        assert _det_margin.cache_info().currsize == 0

    def test_cache_is_bounded(self):
        _det_margin.cache_clear()
        for k in range(_DET_CACHE_SIZE + 10):
            assert det_nonzero(np.diag([1.0, k + 1.0]))
        assert _det_margin.cache_info().currsize == _DET_CACHE_SIZE


class TestContentCache:
    # the one memo of the package: functools.lru_cache keyed by content

    def test_entry_read_again_survives_the_overflow(self):
        calls = []

        @_content_cached(3)
        def double(x):
            calls.append(float(x[0]))
            return 2.0 * x

        for v in (0.0, 1.0, 2.0, 0.0, 3.0):
            double(np.array([v]))
        assert calls == [0.0, 1.0, 2.0, 3.0]
        # 1 was least recently used, so 3 pushed it out; 0 was read again
        double(np.array([0.0]))
        double(np.array([1.0]))
        assert calls == [0.0, 1.0, 2.0, 3.0, 1.0]
        assert double.cache_info().currsize == 3

    def test_arrays_in_the_result_are_read_only(self):
        @_content_cached(4)
        def parts(x):
            return x + 1.0, 2.0 * x, "label"

        @_content_cached(4)
        def single(x):
            return x + 1.0

        x = np.array([1.0, 2.0])
        first, second, label = parts(x)
        for out in (first, second, single(x)):
            with pytest.raises(ValueError):
                out[0] = 0.0
        assert label == "label"
        np.testing.assert_array_equal(parts(x)[0], [2.0, 3.0])
        assert parts(x)[0] is first

    def test_shape_is_part_of_the_key(self):
        calls = []

        @_content_cached(4)
        def total(x):
            calls.append(x.shape)
            return float(x.sum())

        x = np.arange(4.0)
        assert total(x) == total(list(x)) == total(x.reshape(2, 2)) == 6.0
        assert calls == [(4,), (2, 2)]

    def test_error_is_not_kept(self):
        calls = []

        @_content_cached(4)
        def failing(x):
            calls.append(1)
            raise EvaluationError("no value here")

        for count in (1, 2):
            with pytest.raises(EvaluationError):
                failing(np.zeros(2))
            assert len(calls) == count
        assert failing.cache_info().currsize == 0

    def test_threads_share_a_full_memo(self):
        # 8 threads read 8 points through 4 entries, so nearly every call
        # evicts; a short switch interval interleaves them mid-call
        @_content_cached(4)
        def double(x):
            return 2.0 * x

        points = [np.array([float(k), -float(k)]) for k in range(8)]
        barrier = threading.Barrier(8)
        errors, wrong = [], []

        def hammer(offset):
            try:
                barrier.wait()
                for i in range(400):
                    w = points[(i + offset) % len(points)]
                    if not np.array_equal(double(w), 2.0 * w):
                        wrong.append(w)
            except Exception as exc:  # any error fails the test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == []
        assert double.cache_info().currsize == 4


class TestVectorField:
    def test_reduces_to_damped_oscillator_equations(self, osc_system):
        v = velocity(osc_system, np.array([1.0, 0.0]), 0.0)
        np.testing.assert_allclose(v, [0.0, -1.0], atol=1e-12)

    def test_equilibrium(self, osc_system):
        v = velocity(osc_system, np.array([0.0, 0.0]), 0.7)
        np.testing.assert_allclose(v, [0.0, 0.0], atol=1e-14)

    def test_unit_momentum(self, osc_system):
        v = velocity(osc_system, np.array([0.0, 1.0]), 0.0)
        np.testing.assert_allclose(v, [1.0, -NU], atol=1e-12)

    def test_independent_of_time_for_the_oscillator(self, osc_system, rng):
        # the exponential factors cancel between K^{-1} and the right side
        for _ in range(10):
            z = rng.uniform(-2, 2, 2)
            t1, t2 = rng.uniform(0, 3, 2)
            v1 = velocity(osc_system, z, t1)
            v2 = velocity(osc_system, z, t2)
            assert np.max(np.abs(v1 - v2)) <= 1e-10

    def test_singular_structure_matrix_raises(self):
        sys1 = BirkhoffSystem(
            n=1,
            F=lambda z, t: np.zeros(2),
            B=lambda z, t: float(z[0]),
            K=lambda z, t: np.zeros((2, 2)),
        )
        with pytest.raises(RegularityError):
            velocity(sys1, np.array([1.0, 0.0]), 0.0)

    def test_finite_difference_fallbacks_match_analytic_data(self, rng):
        # same oscillator but with only (F, B, K) given: grad B and dF/dt
        # come from central differences
        full = oscillator_system(NU)
        bare = BirkhoffSystem(n=1, F=full.F, B=full.B, K=full.K)
        for _ in range(5):
            p = PhasePoint(rng.uniform(-2, 2, 2), rng.uniform(0, 1))
            np.testing.assert_allclose(
                velocity(bare, p.z, p.t), velocity(full, p.z, p.t), atol=1e-7
            )
            np.testing.assert_allclose(bare.d_at(p.z, p.t), full.d_at(p.z, p.t), atol=1e-7)
