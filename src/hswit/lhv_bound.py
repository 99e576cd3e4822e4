"""Classical (local hidden variable) bounds for Pauli-basis operators.

An LHV model assigns a definite +/-1 outcome to every (qubit, axis)
measurement; the classical bound is the maximum of the operator's value
over all such assignments.  Identity letters contribute a fixed factor
1, so operators with an all-identity term have no meaningful
classical bound and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hs import HSOperator, require_identity_free
from .pauli_core import AXIS_LABELS, Array

DEFAULT_CHUNK = 1 << 20
DEFAULT_MAX_ASSIGNMENTS = 1 << 26


@dataclass(frozen=True)
class LHVAssignment:
    """One +/-1 outcome per qubit per axis (x, y, z).

    Axes the operator never measures carry the placeholder +1; only the
    measured ones affect any value computed from the assignment.
    """

    values: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("an assignment needs at least 1 qubit")
        for triple in self.values:
            if len(triple) != 3 or any(v not in (1, -1) for v in triple):
                raise ValueError(f"per-qubit values must be three of +1/-1, got {triple}")

    @property
    def n(self) -> int:
        return len(self.values)

    def value(self, qubit: int, axis: int) -> int:
        """Outcome for one qubit and one non-identity axis (1=x, 2=y, 3=z)."""
        if axis not in (1, 2, 3):
            raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
        return self.values[qubit][axis - 1]

    def lines(self, used: frozenset[tuple[int, int]] | None = None) -> list[str]:
        """One 'qubit k: X=+1 ...' line per qubit, restricted to used axes."""
        out = []
        for k, triple in enumerate(self.values):
            parts = [
                f"{AXIS_LABELS[a]}={triple[a - 1]:+d}"
                for a in (1, 2, 3)
                if used is None or (k, a) in used
            ]
            if parts:
                out.append(f"qubit {k}: " + " ".join(parts))
        return out


@dataclass(frozen=True)
class BoundResult:
    """An exact classical bound with the assignment attaining it."""

    beta_cl: float
    maximizer: LHVAssignment
    evaluations: int


def _incidence(op: HSOperator) -> tuple[list[tuple[int, int]], Array]:
    """Sorted measured (qubit, axis) pairs and the (terms, pairs) incidence table."""
    full = (op.axes[:, :, None] == np.arange(1, 4)).reshape(len(op), 3 * op.n)  # column 3k + a - 1 is (k, a)
    cols = np.flatnonzero(full.any(axis=0))
    return [(j // 3, j % 3 + 1) for j in cols.tolist()], full[:, cols]


def used_pairs(op: HSOperator) -> list[tuple[int, int]]:
    """Sorted (qubit, axis) pairs the operator actually measures."""
    return _incidence(op)[0]


def evaluate_assignment(op: HSOperator, assignment: LHVAssignment) -> float:
    """Operator value under one definite-outcome assignment."""
    if assignment.n != op.n:
        raise ValueError(f"assignment has {assignment.n} qubits, operator {op.n}")
    pairs, incidence = _incidence(op)
    signs = np.array([assignment.value(k, a) for k, a in pairs], dtype=float)
    return float(np.where(incidence, signs, 1.0).prod(axis=1) @ op.coeffs)


def _full_table(op: HSOperator, signs: dict[tuple[int, int], int]) -> LHVAssignment:
    table = tuple(
        tuple(signs.get((k, a), 1) for a in (1, 2, 3)) for k in range(op.n)
    )
    return LHVAssignment(table)


def classical_bound(
    op: HSOperator,
    chunk_size: int = DEFAULT_CHUNK,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> BoundResult:
    """Exact classical bound by exhaustive enumeration.

    All 2^m assignments over the m measured (qubit, axis) pairs are
    evaluated in chunks; unmeasured axes are fixed at +1.  Ties resolve
    to the lexicographically smallest assignment: pairs ordered by qubit
    then axis x, y, z, and +1 before -1.  Assignments are encoded as
    integers whose most significant bit is the first measured pair with
    bit 0 meaning +1, so the first maximum met in ascending order is
    exactly that assignment, independent of chunking.
    """
    require_identity_free(op)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    pairs, incidence = _incidence(op)
    m = len(pairs)
    if m > 63 or 2**m > max_assignments:
        raise ValueError(f"2^{m} assignments exceed the enumeration budget of {max_assignments}")
    bits = np.uint64(1) << np.arange(m - 1, -1, -1, dtype=np.uint64)
    masks = np.where(incidence, bits, np.uint64(0)).sum(axis=1, dtype=np.uint64)

    total_count = 2**m
    best_value = -np.inf
    best_code = 0
    for start in range(0, total_count, chunk_size):
        stop = min(start + chunk_size, total_count)
        codes = np.arange(start, stop, dtype=np.uint64)
        values = np.zeros(codes.shape[0], dtype=float)
        for mask, c in zip(masks, op.coeffs):
            parity = (np.bitwise_count(codes & mask) & np.uint64(1)).astype(np.int8)
            values += c * (1 - 2 * parity)
        idx = int(np.argmax(values))
        if values[idx] > best_value:
            best_value = float(values[idx])
            best_code = start + idx

    signs = {pair: 1 - 2 * int((best_code >> (m - 1 - j)) & 1) for j, pair in enumerate(pairs)}
    return BoundResult(best_value, _full_table(op, signs), total_count)


def sampled_lower_bound(op: HSOperator, trials: int, seed: int = 0) -> float:
    """Best value over uniformly random assignments; never above the bound."""
    require_identity_free(op)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    pairs, incidence = _incidence(op)
    term_cols = [np.flatnonzero(row) for row in incidence]
    rng = np.random.default_rng(seed)
    best_value = -np.inf
    done = 0
    while done < trials:
        count = min(DEFAULT_CHUNK, trials - done)
        signs = (1 - 2 * rng.integers(0, 2, size=(count, len(pairs)), dtype=np.int8)).astype(np.int8)
        values = np.zeros(count, dtype=float)
        for cols, c in zip(term_cols, op.coeffs):
            values += c * signs[:, cols].prod(axis=1)
        best_value = max(best_value, float(values.max()))
        done += count
    return best_value
