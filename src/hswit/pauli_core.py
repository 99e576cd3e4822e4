"""Pauli conventions, the qubit cap, and dense n-qubit density matrices.

Conventions used across the package:

* qubit A is the leftmost tensor factor (most significant bit),
* axis indices are 0=I, 1=X, 2=Y, 3=Z; ``SIGMA[a]`` is the 2x2 matrix of axis a,
* a Pauli string is a word over ``AXIS_LABELS``, one letter per qubit,
  qubit A first, standing for the tensor product of its letters' matrices.
  Strings exist only as such labels and as base-4 codes (``hs``); no
  string's dense matrix is ever formed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

AXIS_LABELS = "IXYZ"

SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-9
JACOBI_TOL = 1e-12  # off-diagonal norm at which Jacobi sweeps stop, relative above norm 1
JACOBI_MAX_SWEEPS = 100

DEFAULT_QUBIT_CAP = 10


class CapacityError(Exception):
    """Raised when an operation would exceed the configured qubit cap."""


class InvalidStateError(Exception):
    """Raised when a matrix or vector fails to describe a physical state."""


def qubit_cap() -> int:
    """Largest qubit count accepted when building dense objects.

    Reads WITNESS_QUBIT_CAP from the environment on every call so the
    cap can be raised for a single run without code changes.
    """
    raw = os.environ.get("WITNESS_QUBIT_CAP")
    if raw is None:
        return DEFAULT_QUBIT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise CapacityError(f"WITNESS_QUBIT_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise CapacityError(f"WITNESS_QUBIT_CAP must be positive, got {cap}")
    return cap


def check_qubit_count(n: int) -> int:
    """Validate a qubit count against the cap, returning it unchanged."""
    if n < 1:
        raise ValueError(f"qubit count must be at least 1, got {n}")
    cap = qubit_cap()
    if n > cap:
        raise CapacityError(f"{n} qubits exceeds the cap of {cap} (set WITNESS_QUBIT_CAP to raise it)")
    return n


def hermitian_eigenvalues(matrix: Array) -> Array:
    """Eigenvalues of a Hermitian matrix, ascending, via cyclic Jacobi.

    Each (p, q) rotation absorbs the phase of the off-diagonal entry into
    a diagonal unitary and then applies the standard real symmetric 2x2
    rotation, so every sweep strictly shrinks the off-diagonal norm.
    Sweeps stop once that norm falls below JACOBI_TOL scaled by the
    input's Frobenius norm when that exceeds 1 (roundoff makes a smaller
    absolute norm unreachable for large-scale matrices); no convergence
    within JACOBI_MAX_SWEEPS sweeps raises ``ValueError``.  The package
    checks positivity with ``eigvalsh``; this is an independent reference
    for tests on small dense matrices.  It is O(dim^4) per unit of
    accuracy gained, not a general-purpose solver.
    """
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dim = a.shape[0]
    if dim == 1:
        return a.real.reshape(1).copy()
    if np.max(np.abs(a - a.conj().T)) > 1e-8 * max(1.0, np.max(np.abs(a))):
        raise ValueError("matrix is not Hermitian")

    def off_norm(m: Array) -> float:
        off = m - np.diag(np.diag(m))
        return float(np.linalg.norm(off))

    stop = JACOBI_TOL * max(1.0, float(np.linalg.norm(a)))
    threshold = stop / (2 * dim)
    for _ in range(JACOBI_MAX_SWEEPS):
        if off_norm(a) < stop:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                r = abs(apq)
                if r <= threshold:
                    continue
                phase = apq / r
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * r)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # columns: A <- A U with U restricted to the (p, q) plane
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * col_p + c * np.conj(phase) * col_q
                # rows: A <- U^dagger A
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * row_p + c * phase * row_q
    else:
        if off_norm(a) >= stop:
            raise ValueError(f"Jacobi sweeps did not converge within {JACOBI_MAX_SWEEPS} sweeps")
    return np.sort(np.diag(a).real)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated n-qubit density matrix.

    Construction checks finiteness, Hermiticity and unit trace;
    positivity is only checked by :meth:`from_matrix`, the entry point
    for matrices of unknown origin.  The matrix is kept C-contiguous,
    copied once here if it came in another memory order, so flat reads
    of it never copy.
    """

    matrix: Array
    n: int

    def __post_init__(self) -> None:
        check_qubit_count(self.n)
        mat = np.asarray(self.matrix, dtype=complex, order="C")
        dim = 2**self.n
        if mat.shape != (dim, dim):
            raise InvalidStateError(f"expected shape {(dim, dim)} for {self.n} qubits, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise InvalidStateError("matrix has non-finite entries")
        if np.abs(mat - mat.conj().T).max() > HERMITIAN_ATOL:
            raise InvalidStateError("matrix is not Hermitian")
        trace = mat.trace()
        if abs(trace - 1.0) > TRACE_ATOL:
            raise InvalidStateError(f"trace must be 1, got {trace}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_matrix(cls, matrix: Array) -> DensityMatrix:
        """Validate an arbitrary matrix as a state, including positivity."""
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"expected a square matrix, got shape {mat.shape}")
        dim = mat.shape[0]
        n = dim.bit_length() - 1
        if dim < 2 or 2**n != dim:
            raise InvalidStateError(f"matrix dimension must be a power of two >= 2, got {dim}")
        state = cls(mat, n)
        smallest = np.linalg.eigvalsh(state.matrix)[0]
        if smallest < EIGENVALUE_FLOOR:
            raise InvalidStateError(f"matrix has a negative eigenvalue {smallest}")
        return state

    @classmethod
    def from_statevector(cls, vector: Array) -> DensityMatrix:
        """Outer product of a normalized pure state vector."""
        vec = np.asarray(vector, dtype=complex).reshape(-1)
        dim = vec.shape[0]
        n = dim.bit_length() - 1
        if dim < 2 or 2**n != dim:
            raise InvalidStateError(f"vector length must be a power of two >= 2, got {dim}")
        real, imag = vec.real, vec.imag
        norm = np.sqrt(real.dot(real) + imag.dot(imag))  # np.linalg.norm's own expression for a complex vector
        if abs(norm - 1.0) > TRACE_ATOL:
            raise InvalidStateError(f"vector norm must be 1, got {norm}")
        return cls(vec[:, None] * vec.conj(), n)  # np.outer's own product

    @property
    def dim(self) -> int:
        return 2**self.n
