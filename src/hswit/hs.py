"""Hilbert-Schmidt decompositions over the n-qubit Pauli basis.

A state rho with coefficients R_s satisfies 2^n rho = sum_s R_s sigma_s
with R_s = Tr(rho sigma_s).  Operators such as Bell operators are stored
directly as sum_s O_s sigma_s.  With those conventions the expectation
value of an operator in a state is the plain coefficient dot product:
Tr(O rho) = sum_s O_s R_s, with no dimension factor.
"""

from __future__ import annotations

from numbers import Real
from typing import Iterator, Mapping

import numpy as np

from .pauli_core import (
    AXIS_LABELS,
    SIGMA,
    Array,
    CapacityError,
    DensityMatrix,
    PauliString,
    check_qubit_count,
)

PRUNE_TOL = 1e-12

TermKey = PauliString | str | tuple[int, ...]
_DIGITS = str.maketrans(AXIS_LABELS, "0123")


def _code(key: TermKey, n: int) -> int:
    """Base-4 code of one term key, qubit 0 the most significant digit."""
    if isinstance(key, str):
        label = key.upper()
        if not set(label) <= set(AXIS_LABELS):
            raise ValueError(f"labels may only contain I, X, Y, Z, got {key!r}")
    else:
        label = str(key if isinstance(key, PauliString) else PauliString(tuple(key)))
    if len(label) != n:
        raise ValueError(f"term {label} has {len(label)} qubits, expected {n}")
    return int(label.translate(_DIGITS), 4)


def _axes(codes: Array, n: int) -> Array:
    return (codes[:, None] >> np.arange(2 * n - 2, -1, -2)) & 3


def _labels(codes: Array, n: int) -> list[str]:
    letters = np.frombuffer(AXIS_LABELS.encode(), dtype="S1")[_axes(codes, n)]
    return np.ascontiguousarray(letters).view(f"S{n}").ravel().astype(f"U{n}").tolist()


class HSOperator:
    """Real linear combination of Pauli strings on a fixed qubit count.

    The terms form one table: ``codes`` holds sorted, unique base-4 codes
    with qubit 0 as the most significant digit, so code order is label
    order and a code is also the flat index into the 4^n coefficient
    tensor; ``coeffs`` holds the matching float64 coefficients.  Terms
    with |coefficient| < PRUNE_TOL are dropped at construction, and
    non-finite coefficients are rejected.
    """

    __slots__ = ("n", "codes", "coeffs")

    def __init__(self, n: int, terms: Mapping[TermKey, float] | None = None) -> None:
        codes, coeffs = [], []
        for key, value in (terms or {}).items():
            if not isinstance(value, Real):
                raise ValueError(f"coefficient for {key} must be real, got {value!r}")
            codes.append(_code(key, n))
            coeffs.append(float(value))
        self._fill(n, codes, coeffs)

    @classmethod
    def from_dense(cls, table: Array) -> HSOperator:
        """Operator from a (4,) * n coefficient array indexed by axes, qubit 0 first."""
        table = np.asarray(table, dtype=float)
        if table.ndim < 1 or table.shape != (4,) * table.ndim:
            raise ValueError(f"expected a (4,) * n table, got shape {table.shape}")
        return cls._from_codes(table.ndim, np.arange(table.size), table.reshape(-1))

    @classmethod
    def _from_codes(cls, n: int, codes, coeffs) -> HSOperator:
        return cls.__new__(cls)._fill(n, codes, coeffs)

    def _fill(self, n: int, codes, coeffs) -> HSOperator:
        """Check finiteness, sort, reject duplicates, prune; the one path into a table."""
        if check_qubit_count(n) > 31:  # codes are int64
            raise CapacityError(f"the term table holds at most 31 qubits, got {n}")
        codes = np.asarray(codes, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=float)
        if not np.isfinite(coeffs).all():
            bad = np.flatnonzero(~np.isfinite(coeffs))[0]
            raise ValueError(f"coefficient for {_labels(codes[[bad]], n)[0]} must be finite, got {coeffs[bad]}")
        if not (codes[1:] > codes[:-1]).all():
            order = np.argsort(codes, kind="stable")
            codes, coeffs = codes[order], coeffs[order]
            if (codes[1:] == codes[:-1]).any():
                dup = np.flatnonzero(codes[1:] == codes[:-1])[0]
                raise ValueError(f"duplicate term {_labels(codes[[dup]], n)[0]}")
        keep = np.abs(coeffs) >= PRUNE_TOL
        self.n, self.codes, self.coeffs = n, codes[keep], coeffs[keep]
        self.codes.flags.writeable = self.coeffs.flags.writeable = False
        return self

    def _values_at(self, codes: Array) -> Array:
        """Coefficients at the given codes, 0.0 where a code is absent."""
        out = np.zeros(len(codes), dtype=float)
        if len(self.codes):
            idx = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
            hit = self.codes[idx] == codes
            out[hit] = self.coeffs[idx[hit]]
        return out

    @property
    def axes(self) -> Array:
        """(terms, n) table of axis indices, one row per term, qubit 0 first."""
        return _axes(self.codes, self.n)

    def coefficient(self, key: TermKey) -> float:
        """Coefficient of one Pauli string, 0.0 when absent."""
        return float(self._values_at(np.array([_code(key, self.n)]))[0])

    @property
    def identity_coefficient(self) -> float:
        # the all-identity string has code 0, the first in sorted order
        return float(self.coeffs[0]) if len(self.codes) and self.codes[0] == 0 else 0.0

    @property
    def support(self) -> frozenset[PauliString]:
        return frozenset(s for s, _ in self)

    def labels(self) -> list[str]:
        return _labels(self.codes, self.n)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[tuple[PauliString, float]]:
        for axes, c in zip(self.axes.tolist(), self.coeffs.tolist()):
            yield PauliString(tuple(axes)), c

    def __add__(self, other: HSOperator) -> HSOperator:
        if not isinstance(other, HSOperator):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"cannot add operators on {self.n} and {other.n} qubits")
        codes = np.union1d(self.codes, other.codes)
        return HSOperator._from_codes(self.n, codes, self._values_at(codes) + other._values_at(codes))

    def __sub__(self, other: HSOperator) -> HSOperator:
        return self + (-other)

    def __neg__(self) -> HSOperator:
        return HSOperator._from_codes(self.n, self.codes, -self.coeffs)

    def __rmul__(self, scale: float) -> HSOperator:
        if not isinstance(scale, Real):
            return NotImplemented
        return HSOperator._from_codes(self.n, self.codes, float(scale) * self.coeffs)

    __mul__ = __rmul__

    def relabel(self, mapping: Mapping[int, int]) -> HSOperator:
        """Apply one permutation of the axes {1: x, 2: y, 3: z} on every qubit.

        The identity axis 0 always maps to itself.  Relabeling is a local
        unitary on each qubit, so spectra and product-state maxima are
        unchanged.
        """
        perm = {0: 0, **{int(k): int(v) for k, v in mapping.items()}}
        if sorted(perm) != [0, 1, 2, 3] or sorted(perm.values()) != [0, 1, 2, 3]:
            raise ValueError(f"mapping must be a permutation of {{1, 2, 3}}, got {dict(mapping)}")
        mapped = np.array([perm[a] for a in range(4)])[self.axes]
        return HSOperator._from_codes(self.n, mapped @ 4 ** np.arange(self.n - 1, -1, -1), self.coeffs)

    def is_close(self, other: HSOperator, atol: float = 1e-9) -> bool:
        """True when both operators have the same coefficients within atol."""
        if self.n != other.n:
            return False
        codes = np.union1d(self.codes, other.codes)
        return bool(np.all(np.abs(self._values_at(codes) - other._values_at(codes)) <= atol))

    def __repr__(self) -> str:
        body = " + ".join(f"{c:g}*{s}" for s, c in zip(self.labels(), self.coeffs.tolist())) or "0"
        return f"HSOperator({self.n}, {body})"


def require_identity_free(op: HSOperator) -> None:
    """Reject operators with an all-identity term, whose bounds and maxima are offset."""
    if op.identity_coefficient != 0.0:
        raise ValueError("operator has an all-identity component; subtract it first")


def hs_decompose(rho: DensityMatrix) -> HSOperator:
    """Coefficients R_s = Tr(rho sigma_s) for every Pauli string.

    All 4^n traces are evaluated in one tensor contraction over the
    per-qubit indices; terms below PRUNE_TOL are dropped.
    """
    n = rho.n
    tensor = rho.matrix.reshape((2,) * (2 * n))
    # index layout: rows r_k = k, columns c_k = n + k, axes a_k = 2n + k
    operands: list = [tensor, list(range(2 * n))]
    for k in range(n):
        operands.extend([SIGMA, [2 * n + k, n + k, k]])
    operands.append([2 * n + k for k in range(n)])
    coeffs = np.einsum(*operands, optimize=True)
    if np.max(np.abs(coeffs.imag)) > 1e-8:
        raise ValueError("decomposition produced complex coefficients; input is not Hermitian")
    return HSOperator.from_dense(coeffs.real)


def hs_reconstruct(op: HSOperator) -> Array:
    """Dense matrix sum_s O_s sigma_s.

    For coefficients obtained from :func:`hs_decompose` this returns
    2^n rho, not rho; divide by 2^n to materialize the state.
    """
    n = op.n
    dense = np.zeros(4**n)
    dense[op.codes] = op.coeffs
    tensor = dense.reshape((4,) * n)
    for _ in range(n):  # contract the leading axis a_k, append the row and column of qubit k
        tensor = np.tensordot(tensor, SIGMA, axes=(0, 0))
    rows_then_columns = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return tensor.transpose(rows_then_columns).reshape(2**n, 2**n)


def overlap(op: HSOperator, state_coeffs: HSOperator) -> float:
    """Tr(O rho) = sum_s O_s R_s for an operator and a state decomposition."""
    if op.n != state_coeffs.n:
        raise ValueError(f"qubit counts differ: {op.n} vs {state_coeffs.n}")
    return float(op.coeffs @ state_coeffs._values_at(op.codes))
