"""Pauli conventions, the qubit cap, and dense n-qubit density matrices.

Conventions used across the package:

* qubit A is the leftmost tensor factor (most significant bit),
* axis indices are 0=I, 1=X, 2=Y, 3=Z; ``SIGMA[a]`` is the 2x2 matrix of axis a,
* a Pauli string is an uppercase word over ``AXIS_LABELS``, one letter
  per qubit, qubit A first, standing for the tensor product of its
  letters' matrices.  Strings exist only as such labels and as base-4
  codes, made by one encoder in ``hs``; no string's matrix is formed.
"""

from __future__ import annotations

import math
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
_EPS = float(np.finfo(float).eps)

DEFAULT_QUBIT_CAP = 10

# The working-set rule of every blocked loop: no array a block allocates exceeds this many
# entries, unless a block of one row, start or grid point already does
BLOCK_ELEMENTS = 1 << 18


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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated n-qubit density matrix.

    Construction checks finiteness, Hermiticity and unit trace, a matrix
    failing several reported by the first; positivity is only checked by
    :meth:`from_matrix`, the entry point for matrices of unknown origin.
    The matrix is kept C-contiguous, copied once here if it came in
    another memory order, so flat reads of it never copy.
    """

    matrix: Array
    n: int

    def __post_init__(self) -> None:
        check_qubit_count(self.n)
        mat = np.asarray(self.matrix, dtype=complex, order="C")
        dim = 2**self.n
        if mat.shape != (dim, dim):
            raise InvalidStateError(f"expected shape {(dim, dim)} for {self.n} qubits, got {mat.shape}")
        # a NaN or an infinity makes the residual |M - M*| NaN or infinite, so the finiteness pass runs only
        # to name the failure; an overflow in the residual or the trace is a value to compare, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.abs(mat - mat.conj().T).max()
            if not residual <= HERMITIAN_ATOL:
                if not np.isfinite(mat).all():
                    raise InvalidStateError("matrix has non-finite entries")
                raise InvalidStateError("matrix is not Hermitian")
            trace = mat.trace()
            if not abs(trace - 1.0) <= TRACE_ATOL:  # a trace that sums to NaN fails too
                raise InvalidStateError(f"trace must be 1, got {trace}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_matrix(cls, matrix: Array) -> DensityMatrix:
        """Validate an arbitrary matrix as a state, including positivity.

        The matrix is refused when ``eigvalsh`` puts its smallest
        eigenvalue below ``EIGENVALUE_FLOOR``.  Most states are accepted
        without ``eigvalsh``: a Cholesky factorization of one shifted
        copy A = rho + s*I, with s = |EIGENVALUE_FLOOR| - delta and
        delta = 2*d*(d + 1)*eps*||rho||_F, decides first.  Both LAPACK
        routines read the same Hermitian matrix, rho's lower triangle
        and the real part of its diagonal.

        When the factorization completes, its computed factor R has
        R*R = A + E, and Higham (Accuracy and Stability of Numerical
        Algorithms, 2002, Theorem 10.3) bounds the backward error
        ||E||_2 by about d*(d + 1)*u*||A||_2, u = eps/2.  delta is four
        times that, room for complex arithmetic's larger constants and
        for rounding the shift.  R*R is positive semidefinite, so
        lambda_min(rho) >= -s - ||E||_2 >= EIGENVALUE_FLOOR + delta/2.
        ``eigvalsh`` is backward stable, with an error near d*eps*||rho||_2,
        far below delta/2, so it would report a smallest eigenvalue
        above the floor and accept: every acceptance here is one
        ``eigvalsh`` would make.  When the factorization fails, or when
        delta >= |EIGENVALUE_FLOOR| (a large-norm matrix, or the cap
        raised well past 10 qubits), ``eigvalsh`` runs and gives both
        the decision and the message, as it always did.
        """
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"expected a square matrix, got shape {mat.shape}")
        dim = mat.shape[0]
        n = dim.bit_length() - 1
        if dim < 2 or 2**n != dim:
            raise InvalidStateError(f"matrix dimension must be a power of two >= 2, got {dim}")
        state = cls(mat, n)
        rho = state.matrix
        # ||rho||_F as one dot product; one past the float range is inf, and skips the factorization
        delta = 2 * dim * (dim + 1) * _EPS * math.sqrt(np.vdot(rho, rho).real)
        if delta < -EIGENVALUE_FLOOR:
            shifted = rho.copy()
            shifted.reshape(-1)[:: dim + 1] += -EIGENVALUE_FLOOR - delta
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                pass
            else:
                return state
        smallest = np.linalg.eigvalsh(rho)[0]
        if smallest < EIGENVALUE_FLOOR:
            raise InvalidStateError(f"matrix has a negative eigenvalue {smallest:.12g}")
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
