"""Classical (local hidden variable) bounds for Pauli-basis operators.

An LHV model assigns a definite +/-1 outcome to every (qubit, axis)
measurement; the classical bound is the maximum of the operator's value
over all such assignments.  Identity letters contribute a fixed factor
1, so operators with an all-identity term have no meaningful
classical bound and are rejected.

``classical_bound`` covers all 2^m assignments of the m measured pairs.
A matrix product screens each chunk of them; only the assignments whose
screened value lies within a rounding margin of the chunk's best are
then summed exactly, term by term in order, and only those sums decide
the bound, the maximizer and ties.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .hs import HSOperator, require_identity_free
from .pauli_core import AXIS_LABELS, Array

DEFAULT_CHUNK = 1 << 20
DEFAULT_MAX_ASSIGNMENTS = 1 << 26
LOW_BITS = 11  # at most 2^11 codes per row of the screen, the width of one matmul
SIGN_TABLE_ELEMENTS = 1 << 18  # cap on the entries of one table of terms by rows or by codes


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
    """An exact classical bound with the assignment attaining it.

    ``evaluations`` counts the assignments covered (2^m); ``exact_checks``
    counts those whose value was summed in term order after the screen;
    ``pairs`` are the m measured (qubit, axis) pairs, sorted.
    """

    beta_cl: float
    maximizer: LHVAssignment
    evaluations: int
    exact_checks: int
    pairs: tuple[tuple[int, int], ...]


def _incidence(op: HSOperator) -> tuple[list[tuple[int, int]], Array]:
    """Sorted measured (qubit, axis) pairs and the (terms, pairs) incidence table."""
    full = (op.axes[:, :, None] == np.arange(1, 4)).reshape(len(op), 3 * op.n)  # column 3k + a - 1 is (k, a)
    cols = np.flatnonzero(full.any(axis=0))
    return [(j // 3, j % 3 + 1) for j in cols.tolist()], full[:, cols]


def _sign_row_values(op: HSOperator, incidence: Array, signs: Array) -> Array:
    """Operator value for each row of +/-1 signs over the measured pairs, terms added in order."""
    values = np.zeros(len(signs))
    for row, c in zip(incidence, op.coeffs):
        values += c * signs[:, row].prod(axis=1)
    return values


def _full_table(op: HSOperator, signs: dict[tuple[int, int], int]) -> LHVAssignment:
    table = tuple(
        tuple(signs.get((k, a), 1) for a in (1, 2, 3)) for k in range(op.n)
    )
    return LHVAssignment(table)


def _parity_signs(x: Array) -> Array:
    """(-1)^popcount(x) as int8 +/-1, elementwise over uint64 codes."""
    return 1 - 2 * (np.bitwise_count(x) & np.uint8(1)).view(np.int8)


def _chunk_best(high: Array, low_signs: Array, margin: float) -> tuple[float, int, int, int]:
    """Best value over the codes (row, l) of one chunk: (value, row index, l, exact_checks).

    ``high`` is (rows, T): each coefficient times its term's sign over a
    row's high bits; ``low_signs`` is (T, 2^low): each term's sign over the
    low bits.  Their matrix product screens the chunk; BLAS sums in an
    order of its own, so the codes within ``margin`` of the screened best
    are then summed again, c_t * (high sign * low sign) term by term in
    order.  The first best in ascending code order wins.  A sum that is
    not finite raises ``ValueError``.
    """
    screen = high @ low_signs
    threshold = screen.max() - margin
    if not math.isfinite(threshold):  # overflow or NaN in the screen: keep every code
        threshold = -math.inf
    rows, lows = np.divmod(np.flatnonzero(~(screen < threshold)), screen.shape[1])
    values = np.empty(len(rows))
    step = max(1, SIGN_TABLE_ELEMENTS // high.shape[1])
    for i in range(0, len(rows), step):
        terms = high[rows[i : i + step]] * low_signs[:, lows[i : i + step]].T
        # a cumulative sum is sequential: ((c0 s0 + c1 s1) + c2 s2) + ...
        values[i : i + step] = np.cumsum(terms, axis=1)[:, -1]
    if not np.isfinite(values).all():
        raise ValueError("an assignment's value overflows the float range; no finite classical bound")
    j = int(np.argmax(values))
    return float(values[j]), int(rows[j]), int(lows[j]), len(values)


def classical_bound(op: HSOperator) -> BoundResult:
    """Exact classical bound by exhaustive enumeration.

    All 2^m assignments over the m measured (qubit, axis) pairs are
    covered, so ``evaluations`` is 2^m; unmeasured axes are fixed at +1.
    Assignments are encoded as integers whose most significant bit is
    the first measured pair, with bit 0 meaning +1.

    A term's sign at a code factors into a sign over the code's high bits
    (its row) and one over its low bits, so the values of a chunk of rows
    are one matrix product (see ``_chunk_best``).  The low bits number
    min(m, LOW_BITS), fewer when the T terms would make a sign table of
    more than SIGN_TABLE_ELEMENTS entries.  A chunk holds DEFAULT_CHUNK
    codes rounded up to whole rows, and at most SIGN_TABLE_ELEMENTS // T
    rows.  More than DEFAULT_MAX_ASSIGNMENTS assignments raise
    ``ValueError``, as does any exactly summed value that is not finite.

    The product only screens.  The codes whose screened value is within a
    rounding margin of the chunk's screened maximum are summed exactly,
    the terms added in order, and only those sums are compared.  The
    margin, 8 (T+1) eps sum|c|, exceeds twice the largest possible
    difference, about (T-1) eps sum|c|, between two orders of summing the
    same T signed coefficients, so every code that attains the chunk's
    exact maximum is summed exactly.  The value, the maximizer and the tie
    rule are therefore independent of chunking and of BLAS threads.

    Ties resolve to the lexicographically smallest assignment: pairs
    ordered by qubit then axis x, y, z, and +1 before -1, which is the
    first maximum met in ascending code order.
    """
    require_identity_free(op)
    pairs, incidence = _incidence(op)
    m = len(pairs)
    if m > 63 or 2**m > DEFAULT_MAX_ASSIGNMENTS:
        raise ValueError(f"2^{m} assignments exceed the enumeration budget of {DEFAULT_MAX_ASSIGNMENTS}")
    if len(op) == 0:  # one assignment, of no pairs, with value 0
        return BoundResult(0.0, _full_table(op, {}), 1, 1, ())
    bits = np.uint64(1) << np.arange(m - 1, -1, -1, dtype=np.uint64)
    masks = incidence @ bits  # integer product: each row ORs its distinct bits
    coeffs = op.coeffs
    margin = 8 * (len(coeffs) + 1) * sys.float_info.epsilon * float(np.abs(coeffs).sum())

    table_rows = max(1, SIGN_TABLE_ELEMENTS // len(coeffs))
    low = min(m, LOW_BITS, table_rows.bit_length() - 1)
    low_signs = _parity_signs(masks[:, None] & np.arange(1 << low, dtype=np.uint64)).astype(float)
    high_masks = masks >> np.uint64(low)
    total_rows = 2 ** (m - low)
    chunk_rows = min(-(-DEFAULT_CHUNK // 2**low), table_rows)
    best_value = -np.inf
    best_code = 0
    exact_checks = 0
    for start in range(0, total_rows, chunk_rows):
        if low < m:
            rows = np.arange(start, min(start + chunk_rows, total_rows), dtype=np.uint64)
            high = coeffs * _parity_signs(rows[:, None] & high_masks)
        else:  # one row and no high bits: every high sign is +1
            high = coeffs[None, :]
        value, row, low_code, checked = _chunk_best(high, low_signs, margin)
        exact_checks += checked
        if value > best_value:
            best_value = value
            best_code = ((start + row) << low) | low_code

    signs = {pair: 1 - 2 * ((best_code >> (m - 1 - j)) & 1) for j, pair in enumerate(pairs)}
    return BoundResult(best_value, _full_table(op, signs), 2**m, exact_checks, tuple(pairs))


def sampled_lower_bound(op: HSOperator, trials: int, seed: int = 0) -> float:
    """Best value over uniformly random assignments; never above the bound."""
    require_identity_free(op)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    pairs, incidence = _incidence(op)
    rng = np.random.default_rng(seed)
    best_value = -np.inf
    done = 0
    while done < trials:
        count = min(DEFAULT_CHUNK, trials - done)
        signs = (1 - 2 * rng.integers(0, 2, size=(count, len(pairs)), dtype=np.int8)).astype(np.int8)
        best_value = max(best_value, float(_sign_row_values(op, incidence, signs).max()))
        done += count
    return best_value
