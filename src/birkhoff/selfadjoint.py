"""Variational self-adjointness checks and (F, B) reconstruction.

A raw first-order system ``K(z,t) dz/dt + D(z,t) = 0`` derives from a
variational principle iff three conditions hold: K is antisymmetric, the
cyclic sum of its z-derivatives vanishes (closure), and the time
derivative of K matches the curl of D.  When they do, component functions
F and a scalar B can be rebuilt by homotopy integrals along the ray from
the origin (the working domain must be star-shaped around it).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence, Tuple

import numpy as np

from . import numdiff
from .core import PhasePoint
from .errors import EvaluationError, InconsistencyError

Array = np.ndarray

# closure triples are enumerated exhaustively up to this phase dimension,
# sampled randomly (fixed seed) above it
_EXHAUSTIVE_DIM = 8
_SAMPLED_TRIPLES = 200
# largest entry of grad B + D + dF/dt that reconstruct_b's check accepts
_GRAD_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class RawFirstOrderSystem:
    """A first-order system given directly by callables K and D."""

    n: int
    K: Callable[[Array, float], Array]
    D: Callable[[Array, float], Array]

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "n", int(self.n))

    @property
    def dim(self) -> int:
        return 2 * self.n

    def k_at(self, z: Array, t: float) -> Array:
        out = np.asarray(self.K(np.asarray(z, dtype=float), t), dtype=float)
        if out.shape != (self.dim, self.dim):
            raise EvaluationError(f"K must return shape ({self.dim}, {self.dim}), got {out.shape}")
        if not np.isfinite(out).all():
            raise EvaluationError(f"K returned non-finite values at t={t}")
        return out

    def d_at(self, z: Array, t: float) -> Array:
        out = np.asarray(self.D(np.asarray(z, dtype=float), t), dtype=float)
        if out.shape != (self.dim,):
            raise EvaluationError(f"D must return shape ({self.dim},), got {out.shape}")
        if not np.isfinite(out).all():
            raise EvaluationError(f"D returned non-finite values at t={t}")
        return out


@dataclass(frozen=True, eq=False)
class SelfAdjointReport:
    """Worst-case violations of the three self-adjointness conditions."""

    antisymmetry_violation: float
    closure_violation: float
    time_curl_violation: float
    passed: bool
    samples: Tuple[PhasePoint, ...]
    tol: float

    @property
    def max_violation(self) -> float:
        return max(
            self.antisymmetry_violation, self.closure_violation, self.time_curl_violation
        )


def _closure_triples(dim: int):
    if dim <= _EXHAUSTIVE_DIM:
        return list(combinations(range(dim), 3))
    rng = np.random.default_rng(0)
    total = dim * (dim - 1) * (dim - 2) // 6
    target = min(_SAMPLED_TRIPLES, total)
    triples = set()
    while len(triples) < target:
        i, j, k = sorted(rng.choice(dim, size=3, replace=False))
        triples.add((int(i), int(j), int(k)))
    return sorted(triples)


def check_self_adjointness(
    raw: RawFirstOrderSystem, samples: Sequence[PhasePoint], tol: float = 1e-7
) -> SelfAdjointReport:
    """Evaluate the three self-adjointness conditions over sample points.

    Derivatives are taken by central differences.  Returns the worst
    violation of each condition over all samples; ``passed`` is true iff
    all three stay within ``tol``.
    """
    samples = tuple(samples)
    if not samples:
        raise ValueError("sample set must be non-empty")
    dim = raw.dim
    triples = _closure_triples(dim)

    antisym = 0.0
    closure = 0.0
    time_curl = 0.0
    for p in samples:
        if p.z.size != dim:
            raise ValueError(f"sample dimension {p.z.size} does not match system dimension {dim}")
        k = raw.k_at(p.z, p.t)
        antisym = max(antisym, float(np.max(np.abs(k + k.T))))

        # dk_dz[m] = dK/dz_m as a full matrix
        dk_dz = [numdiff.partial(lambda y: raw.k_at(y, p.t), p.z, m) for m in range(dim)]
        for i, j, m in triples:
            cyc = dk_dz[m][i, j] + dk_dz[i][j, m] + dk_dz[j][m, i]
            closure = max(closure, abs(float(cyc)))

        dk_dt = numdiff.time_derivative(lambda s: raw.k_at(p.z, s), p.t)
        jac_d = numdiff.jacobian(lambda y: raw.d_at(y, p.t), p.z)  # jac_d[i, j] = dD_i/dz_j
        curl = jac_d - jac_d.T
        time_curl = max(time_curl, float(np.max(np.abs(dk_dt - curl))))

    passed = antisym <= tol and closure <= tol and time_curl <= tol
    return SelfAdjointReport(antisym, closure, time_curl, passed, samples, float(tol))


@functools.lru_cache
def _gauss_legendre_01(nodes: int) -> Tuple[Array, Array]:
    """Gauss-Legendre nodes and weights mapped to [0, 1], computed once per node count.

    The cache keeps the 128 most recently used node counts (the
    ``lru_cache`` default).  Its arrays are shared by every caller, so
    they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    lam, wgt = (x + 1.0) / 2.0, w / 2.0
    lam.flags.writeable = False
    wgt.flags.writeable = False
    return lam, wgt


def _quadrature_rule(quad_nodes: int) -> Tuple[Array, Array]:
    """The [0, 1] rule for ``quad_nodes``, which must be a positive integer."""
    if (
        isinstance(quad_nodes, bool)
        or not isinstance(quad_nodes, numbers.Integral)
        or quad_nodes < 1
    ):
        raise ValueError(f"quad_nodes must be a positive integer, got {quad_nodes!r}")
    return _gauss_legendre_01(int(quad_nodes))


def reconstruct_f(raw: RawFirstOrderSystem, p: PhasePoint, quad_nodes: int = 32) -> Array:
    """Component functions from the homotopy integral of K.

    F_i(z, t) = 1/2 * int_0^1 z_j K_ji(lam * z, t) dlam, evaluated with
    fixed-order Gauss-Legendre quadrature (exact for K polynomial in z of
    degree < 2*quad_nodes along the ray).  The rule is computed once per
    node count and shared read-only; ``quad_nodes`` that is not a
    positive integer raises ``ValueError``.
    """
    lam, wgt = _quadrature_rule(quad_nodes)
    acc = np.zeros(raw.dim)
    for lam_i, w_i in zip(lam, wgt):
        acc += w_i * (raw.k_at(lam_i * p.z, p.t).T @ p.z)
    return 0.5 * acc


def reconstruct_b(
    raw: RawFirstOrderSystem,
    p: PhasePoint,
    quad_nodes: int = 32,
    check: bool = True,
) -> float:
    """Scalar B from the homotopy integral of D + dF/dt.

    B(z, t) = - int_0^1 z_i (D_i + dF_i/dt)(lam * z, t) dlam, with F from
    :func:`reconstruct_f` and dF/dt by central differences.  The sign is
    fixed so that ``grad B = -(D + dF/dt)``; with ``check=True`` that
    identity is verified at p by a finite-difference gradient and an
    :class:`InconsistencyError` raised when it fails, which signals a
    non-self-adjoint input.
    """
    lam, wgt = _quadrature_rule(quad_nodes)

    def d_plus_ft(z: Array, t: float) -> Array:
        dft = numdiff.time_derivative(
            lambda s: reconstruct_f(raw, PhasePoint(z, s), quad_nodes), t
        )
        return raw.d_at(z, t) + dft

    def b_value(z: Array) -> float:
        acc = 0.0
        for lam_i, w_i in zip(lam, wgt):
            acc += w_i * float(z @ d_plus_ft(lam_i * z, p.t))
        return -acc

    value = b_value(p.z)
    if check:
        # b_value contains a time difference of the reconstructed F, so its
        # gradient needs the wider once-nested step
        grad = numdiff.gradient(b_value, p.z, base=numdiff.SOLVER_FD_STEP)
        resid = float(np.max(np.abs(grad + d_plus_ft(p.z, p.t))))
        # written so that a NaN residual fails too
        if not resid <= _GRAD_TOL:
            reason = (
                f"exceeds {_GRAD_TOL:.1e}; the input system is likely not self-adjoint"
                if np.isfinite(resid)
                else "is not finite; B or its gradient overflowed at this point"
            )
            raise InconsistencyError(
                f"grad B does not match -(D + dF/dt): residual {resid:.3e} {reason}"
            )
    return value


def contact_matrix(raw: RawFirstOrderSystem, p: PhasePoint) -> Array:
    """The (2n+1) x (2n+1) antisymmetric matrix [[0, -D^T], [D, K]]."""
    k = raw.k_at(p.z, p.t)
    d = raw.d_at(p.z, p.t)
    out = np.zeros((raw.dim + 1, raw.dim + 1))
    out[0, 1:] = -d
    out[1:, 0] = d
    out[1:, 1:] = k
    return out
