"""Hilbert-Schmidt decompositions over the n-qubit Pauli basis.

A state rho with coefficients R_s satisfies 2^n rho = sum_s R_s sigma_s
with R_s = Tr(rho sigma_s).  Operators such as Bell operators are stored
directly as sum_s O_s sigma_s.  With those conventions the expectation
value of an operator in a state is the plain coefficient dot product:
Tr(O rho) = sum_s O_s R_s, with no dimension factor.  A witness instead
reads rho where O's matrix is nonzero, at most u 2^n entries for O's u
distinct flip masks, planned once from O's dense matrix (``_trace_plan``).
"""

from __future__ import annotations

from itertools import zip_longest
from numbers import Real
from typing import Mapping

import numpy as np

from .pauli_core import (
    AXIS_LABELS,
    BLOCK_ELEMENTS,
    SIGMA,
    Array,
    CapacityError,
    DensityMatrix,
    check_qubit_count,
)

PRUNE_TOL = 1e-12

_DIGITS = str.maketrans(AXIS_LABELS, "0123")


def _label_codes(labels: list[str], n: int, values: list = ()) -> Array:
    """Base-4 codes of length-n words over I, X, Y, Z, qubit 0 the most significant digit.

    One pass checks the labels, and the values when given.  On a failure ValueError names the first
    bad term in order: its letters, then its length, then whether its value is real (a bool is not).
    """
    if not (
        set(map(type, labels)) <= {str}
        and set(map(len, labels)) <= {n}
        and set("".join(labels)) <= set(AXIS_LABELS)
        and set(map(type, values)) <= {int, float}
    ):
        for key, value in zip_longest(labels, values, fillvalue=0.0):  # a label without a value is checked alone
            if not isinstance(key, str) or not set(key) <= set(AXIS_LABELS):
                raise ValueError(f"labels may only contain I, X, Y, Z, got {key!r}")
            if len(key) != n:
                raise ValueError(f"term {key} has {len(key)} qubits, expected {n}")
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"coefficient for {key} must be real, got {value!r}")
    digits = np.frombuffer("".join(labels).translate(_DIGITS).encode(), dtype=np.uint8) - ord("0")
    return digits.reshape(len(labels), n) @ 4 ** np.arange(n - 1, -1, -1)


def _axes(codes: Array, n: int) -> Array:
    return (codes[:, None] >> np.arange(2 * n - 2, -1, -2)) & 3


def _labels(codes: Array, n: int) -> list[str]:
    """Labels of the codes, in blocks whose (codes, n) axis table fits BLOCK_ELEMENTS entries."""
    alphabet = np.frombuffer(AXIS_LABELS.encode(), dtype="S1")
    step = max(1, BLOCK_ELEMENTS // n)
    labels = []
    for lo in range(0, len(codes), step):
        letters = alphabet[_axes(codes[lo : lo + step], n)]
        labels += np.ascontiguousarray(letters).view(f"S{n}").ravel().astype(f"U{n}").tolist()
    return labels


class HSOperator:
    """Real linear combination of Pauli strings on a fixed qubit count.

    The terms form one table: ``codes`` holds sorted, unique base-4 codes
    with qubit 0 as the most significant digit, so code order is label
    order and a code is also the flat index into the 4^n coefficient
    tensor; ``coeffs`` holds the matching float64 coefficients.  The
    constructor takes terms keyed by label, an uppercase length-n word
    over I, X, Y, Z such as ``{"XZI": 0.5}``, and is the one way a label
    becomes a term.  Terms with |coefficient| < PRUNE_TOL are dropped at
    construction, and non-finite or boolean coefficients are rejected.
    """

    __slots__ = ("n", "codes", "coeffs")

    def __init__(self, n: int, terms: Mapping[str, float] | None = None) -> None:
        if check_qubit_count(n) > 31:  # before any label is measured against n; codes are int64
            raise CapacityError(f"the term table holds at most 31 qubits, got {n}")
        terms = terms or {}
        values = list(terms.values())
        self._fill(n, _label_codes(list(terms), n, values), values)

    @classmethod
    def from_dense(cls, table: Array) -> HSOperator:
        """Operator from a (4,) * n coefficient array indexed by axes, qubit 0 first."""
        table = np.asarray(table, dtype=float)
        if table.ndim < 1 or table.shape != (4,) * table.ndim:
            raise ValueError(f"expected a (4,) * n table, got shape {table.shape}")
        return cls._from_codes(check_qubit_count(table.ndim), np.arange(table.size), table.reshape(-1))

    @classmethod
    def _from_codes(cls, n: int, codes, coeffs) -> HSOperator:
        return cls.__new__(cls)._fill(n, codes, coeffs)

    def _fill(self, n: int, codes, coeffs) -> HSOperator:
        """Check finiteness, sort, prune; the one path into a table, for codes that every caller keeps unique."""
        codes = np.asarray(codes, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=float)
        if not np.isfinite(coeffs).all():
            bad = np.flatnonzero(~np.isfinite(coeffs))[0]
            raise ValueError(f"coefficient for {_labels(codes[[bad]], n)[0]} must be finite, got {coeffs[bad]}")
        if not (codes[1:] > codes[:-1]).all():
            order = np.argsort(codes, kind="stable")
            codes, coeffs = codes[order], coeffs[order]
        keep = np.abs(coeffs) >= PRUNE_TOL
        self.n, self.codes, self.coeffs = n, codes[keep], coeffs[keep]
        self.codes.flags.writeable = self.coeffs.flags.writeable = False
        return self

    def _values_at(self, codes: Array) -> Array:
        """Coefficients at the given codes, 0.0 where a code is absent."""
        if len(self.codes) == 4**self.n:  # a dense table: codes are arange(4**n)
            return self.coeffs[codes]
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

    def coefficient(self, label: str) -> float:
        """Coefficient of one Pauli string, 0.0 when absent."""
        return float(self._values_at(_label_codes([label], self.n))[0])

    @property
    def identity_coefficient(self) -> float:
        # the all-identity string has code 0, the first in sorted order
        return float(self.coeffs[0]) if len(self.codes) and self.codes[0] == 0 else 0.0

    def labels(self, keep: Array | None = None) -> list[str]:
        """Labels of the terms in code order, or of those a boolean mask ``keep`` over the terms selects."""
        return _labels(self.codes if keep is None else self.codes[keep], self.n)

    def __len__(self) -> int:
        return len(self.codes)

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

    def __repr__(self) -> str:
        body = " + ".join(f"{c:g}*{s}" for s, c in zip(self.labels(), self.coeffs.tolist())) or "0"
        return f"HSOperator({self.n}, {body})"


def require_identity_free(op: HSOperator) -> None:
    """Reject operators with an all-identity term, whose bounds and maxima are offset."""
    if op.identity_coefficient != 0.0:
        raise ValueError("operator has an all-identity component; subtract it first")


# Per-qubit tables between a (row, column) pair 2r + c and an axis a; Tr(rho sigma) = sum rho[r, c] sigma[c, r]
_PAIR_TO_AXIS = SIGMA.transpose(2, 1, 0).reshape(4, 4)  # [2r + c, a] = SIGMA[a, c, r]
_AXIS_TO_PAIR = SIGMA.reshape(4, 4)  # [a, 2r + c] = SIGMA[a, r, c]


def _per_qubit(tensor: Array, table: Array) -> Array:
    """Contract each axis of a (4,) * n tensor with a 4x4 table, qubit 0 first, one matrix product a qubit.

    Read flat, the (4^(n-1), 4) product of the leading axis's transposed rows with the table is the
    tensor with that axis contracted and moved last, so after n products every axis is back in place.
    """
    n = tensor.ndim
    for _ in range(n):
        tensor = tensor.reshape(4, -1).T @ table
    return tensor.reshape((4,) * n)


def hs_decompose(rho: DensityMatrix) -> HSOperator:
    """Coefficients R_s = Tr(rho sigma_s) for every Pauli string.

    Each qubit's (row, column) pair is mapped to its four axes in turn,
    O(n 4^n) in all; terms below PRUNE_TOL are dropped.  The coefficients
    are those of rho's Hermitian part (rho + rho*)/2, the real parts; the
    rest, which ``DensityMatrix`` bounds by HERMITIAN_ATOL, gives only
    imaginary parts.
    """
    n = rho.n
    pairs = rho.matrix.reshape((2,) * (2 * n)).transpose(np.arange(2 * n).reshape(2, n).T.ravel())
    return HSOperator.from_dense(_per_qubit(pairs.reshape((4,) * n), _PAIR_TO_AXIS).real)


def hs_reconstruct(op: HSOperator) -> Array:
    """Dense matrix sum_s O_s sigma_s.

    For coefficients obtained from :func:`hs_decompose` this returns
    2^n rho, not rho; divide by 2^n to materialize the state.
    """
    n = op.n
    dense = np.zeros(4**n)
    dense[op.codes] = op.coeffs
    pairs = _per_qubit(dense.reshape((4,) * n), _AXIS_TO_PAIR)
    rows_then_columns = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return pairs.reshape((2,) * (2 * n)).transpose(rows_then_columns).reshape(2**n, 2**n)


def overlap(op: HSOperator, state_coeffs: HSOperator) -> float:
    """Tr(O rho) = sum_s O_s R_s for an operator and a state decomposition."""
    if op.n != state_coeffs.n:
        raise ValueError(f"qubit counts differ: {op.n} vs {state_coeffs.n}")
    return float(op.coeffs @ state_coeffs._values_at(op.codes))


def _trace_plan(op: HSOperator) -> tuple[Array, Array]:
    """O's nonzero matrix entries, the part of Tr(O rho) that depends on O alone: (picks, weights).

    O is Hermitian, so Tr(O rho) = Re sum_p conj(O_p) rho_p over flat
    positions p, at most u 2^n of them nonzero for O's u distinct flip
    masks (X and Y qubits).  ``picks`` holds those positions ascending and
    ``weights`` the entries O_p viewed as floats, 24 bytes an entry read.
    Building it runs ``hs_reconstruct`` once, O(n 4^n) whatever O is,
    through a temporary 4^n complex matrix, 16 MiB at the cap.
    """
    return _matrix_plan(hs_reconstruct(op))


def _matrix_plan(matrix: Array) -> tuple[Array, Array]:
    """The ``_trace_plan`` of the operator whose dense matrix is ``matrix``, for a caller that keeps the matrix."""
    picks = np.flatnonzero(matrix)
    return picks, matrix.ravel()[picks].view(float)


def _trace_on_support(plan: tuple[Array, Array], rho: DensityMatrix) -> float:
    """Tr(O rho) from O's ``_trace_plan``, without decomposing rho.

    One gather of rho's entries at the plan's picks and one dot product
    of their float views with the weights: O(u 2^n) for O's u distinct
    flip masks, at most O(4^n).  The gathered copy takes 16 bytes an
    entry, 2/3 of the plan, and is never larger than rho.
    """
    picks, weights = plan
    return float(weights @ rho.matrix.ravel()[picks].view(float))
