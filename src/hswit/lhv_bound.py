"""Classical (local hidden variable) bounds for Pauli-basis operators.

An LHV model assigns a definite +/-1 outcome to every (qubit, axis)
measurement; the classical bound is the maximum of the operator's value
over all such assignments.  Identity letters contribute a fixed factor
1, so operators with an all-identity term have no meaningful
classical bound and are rejected.

``classical_bound`` covers all 2^m assignments of the m measured pairs.
The busiest qubit is maximized in closed form, so a chunk of the
assignments over the other pairs is screened by a few matrix products;
only the assignments whose screened value lies within a rounding margin
of the chunk's best are then summed exactly, term by term in order, and
only those sums decide the bound, the maximizer and ties.
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
_MEASURED_AXES = np.arange(1, 4)


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

    ``exact_checks`` counts the assignments whose value was summed in
    term order after the screen; ``pairs`` are the m measured (qubit,
    axis) pairs, sorted.
    """

    beta_cl: float
    maximizer: LHVAssignment
    exact_checks: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def evaluations(self) -> int:
        """The assignments covered, 2^m; 1 for the empty operator."""
        return 2 ** len(self.pairs)


def _incidence(op: HSOperator) -> tuple[list[tuple[int, int]], Array]:
    """Sorted measured (qubit, axis) pairs and the (terms, pairs) incidence table."""
    full = (op.axes[:, :, None] == _MEASURED_AXES).reshape(len(op), 3 * op.n)  # column 3k + a - 1 is (k, a)
    cols = np.flatnonzero(full.any(axis=0))
    return [(j // 3, j % 3 + 1) for j in cols.tolist()], full[:, cols]


def _full_table(op: HSOperator, signs: dict[tuple[int, int], int]) -> LHVAssignment:
    table = tuple((signs.get((k, 1), 1), signs.get((k, 2), 1), signs.get((k, 3), 1)) for k in range(op.n))
    return LHVAssignment(table)


def _odd(x: Array) -> Array:
    """Whether popcount(x) is odd, elementwise over non-negative int64 codes."""
    return (np.bitwise_count(x) & np.uint8(1)).view(bool)


def _signed_sums(rows: Array, coeffs: Array, high_masks: Array, low_signs: Array, out: Array) -> None:
    """Write sum_t c_t * sign_t at every code of the given rows to ``out``, (rows, 2^low): one matrix product.

    ``high_masks`` are the terms' masks over a code's high bits (its row),
    ``low_signs`` their (T, 2^low) signs over its low bits.
    """
    high = np.where(_odd(rows[:, None] & high_masks), -coeffs, coeffs)
    if len(coeffs) == 1:  # the outer product, which numpy's matmul computes slowly
        np.multiply(high, low_signs, out=out)
    else:
        np.matmul(high, low_signs, out=out)


def _expand(reduced: Array, letter_values: list[Array], margin: float, below: int) -> Array:
    """The full codes under reduced codes, with only the signs of q's k pairs that can be best.

    ``letter_values`` holds S_g at the reduced codes for each of q's pairs
    in order.  Where S_g > margin only +1 (bit 0) is kept, where
    S_g < -margin only -1.  q's k bits go in above the ``below`` low bits
    of a reduced code.  The full codes come out in ascending order.
    """
    k = len(letter_values)
    minus = (np.arange(1 << k) >> np.arange(k - 1, -1, -1)[:, None] & 1).astype(bool)  # [g, s]: s sets pair g to -1
    keep = np.ones((len(reduced), 1 << k), dtype=bool)
    for values, negative in zip(letter_values, minus):
        keep &= ~((values[:, None] > margin) & negative | (values[:, None] < -margin) & ~negative)
    which, sub = np.nonzero(keep)
    r = reduced[which]
    return np.sort((r >> below << (below + k)) | (r & ((1 << below) - 1)) | (sub << below))


def _exact_values(codes: Array, masks: Array, coeffs: Array) -> Array:
    """Each code's value, c_t * sign_t summed term by term in order.

    The codes go in batches of at most SIGN_TABLE_ELEMENTS terms by codes.
    """
    values = np.empty(len(codes))
    step = max(1, SIGN_TABLE_ELEMENTS // len(coeffs))
    for i in range(0, len(codes), step):
        terms = np.where(_odd(codes[i : i + step, None] & masks), -coeffs, coeffs)
        # a cumulative sum is sequential: ((c0 s0 + c1 s1) + c2 s2) + ...
        values[i : i + step] = np.cumsum(terms, axis=1)[:, -1]
    return values


def _exact_best(codes: Array, masks: Array, coeffs: Array) -> tuple[float, int]:
    """Best of the given codes by exact sums: (value, first code attaining it).

    The value does not depend on the codes' order; the code returned is
    the smallest attaining it only when they are ascending.  A sum that
    is not finite raises ``ValueError``.
    """
    values = _exact_values(codes, masks, coeffs)
    if not np.isfinite(values).all():
        raise ValueError("an assignment's value overflows the float range; no finite classical bound")
    j = int(np.argmax(values))
    return float(values[j]), int(codes[j])


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked for, so numpy warns of nothing
def classical_bound(op: HSOperator) -> BoundResult:
    """Exact classical bound by exhaustive enumeration.

    All 2^m assignments over the m measured (qubit, axis) pairs are
    covered, so ``evaluations`` is 2^m; unmeasured axes are fixed at +1.
    Assignments are encoded as integers whose most significant bit is
    the first measured pair, with bit 0 meaning +1.  More than
    DEFAULT_MAX_ASSIGNMENTS assignments raise ``ValueError``, as does any
    exactly summed value that is not finite.

    One qubit q is maximized in closed form: the first of the qubits with
    the most measured pairs, k <= 3 of them.  A Pauli string has one
    letter on q, so with the other m - k signs fixed (a reduced code r)
    the value is S_I(r) + sum_g s_g S_g(r), where S_g sums, signed over
    r, the terms whose letter on q is g, and s_g is q's sign on axis g.
    Its best over q's signs is S_I(r) + sum_g |S_g(r)|, the single-site
    case of the full-correlation bounds of Werner and Wolf, PRA 64,
    032112 (2001).  When the other pairs number at most LOW_BITS
    (m - k <= LOW_BITS) the whole screen is a few thousand codes, and
    removing q would save less than its bookkeeping costs: then k = 0,
    and S_I is the whole operator.

    A term's sign at r factors into a sign over r's high bits (its row)
    and one over its low bits, so each S_g over a chunk of rows is one
    matrix product of a high and a low sign table: k + 1 products over
    2^(m - k) reduced codes, where the full enumeration has 2^m.  The low
    bits number ceil((m - k) / 2), at most LOW_BITS and fewer when the T
    terms would make a sign table of more than SIGN_TABLE_ELEMENTS
    entries.  A chunk holds DEFAULT_CHUNK full codes rounded up to whole
    rows, and at most SIGN_TABLE_ELEMENTS // (2^k T) rows.

    The products only screen: BLAS sums in an order of its own.  A value
    summed in any order is within (T - 1) eps/2 sum|c| of the true one
    (the screen's k + 1 products and k additions round T - 1 times in
    all), so under a chunk's exact maximum lies a reduced code that
    screens within 2 (T - 1) eps sum|c| of the chunk's screened maximum,
    less than the margin 8 (T + 1) eps sum|c|.  The reduced codes within
    the margin are expanded back to full codes, keeping both signs s_g
    only where |S_g(r)| <= margin.  Past it, the other sign lowers the
    true value by 2 |S_g(r)| > 2 margin, more than rounding can make up,
    so that full code sums below the one with s_g flipped and is no
    maximizer.  When the screen overflows, every code of the chunk is
    kept, with both signs.  The full codes kept are summed exactly, the
    terms added in order, and only those sums are compared;
    ``exact_checks`` counts them.  The value, the maximizer and the tie
    rule therefore depend neither on q nor on chunking or BLAS threads.

    Ties resolve to the lexicographically smallest assignment: pairs
    ordered by qubit then axis x, y, z, and +1 before -1, which is the
    smallest code among the exact maxima.
    """
    require_identity_free(op)
    pairs, incidence = _incidence(op)
    m = len(pairs)
    if m > 63 or 2**m > DEFAULT_MAX_ASSIGNMENTS:
        raise ValueError(f"2^{m} assignments exceed the enumeration budget of {DEFAULT_MAX_ASSIGNMENTS}")
    if len(op) == 0:  # one assignment, of no pairs, with value 0
        return BoundResult(0.0, _full_table(op, {}), 1, ())
    bits = 1 << np.arange(m - 1, -1, -1)
    masks = incidence @ bits  # integer product: each row ORs its distinct bits
    coeffs = op.coeffs
    margin = 8 * (len(coeffs) + 1) * sys.float_info.epsilon * float(np.abs(coeffs).sum())

    # q and its k pairs, adjacent in pair order; k stays 0 when m - k <= LOW_BITS, as it is for any q
    # when m <= LOW_BITS + 1.  Then the term masks over the other m - k pairs, and the terms by letter on q.
    k, reduced, groups = 0, masks, [slice(None)]
    if m > LOW_BITS + 1:
        qubits = [qubit for qubit, _ in pairs]
        q = max(qubits, key=qubits.count)  # the first of the busiest qubits
        if m - qubits.count(q) > LOW_BITS:
            k = qubits.count(q)
            below = m - k - qubits.index(q)  # pairs after q's: the code bits under q's k bits
            letters = (masks >> below) & ((1 << k) - 1)  # the bit of q's pair a term measures, 0 for I
            reduced = (masks >> (below + k) << below) | (masks & ((1 << below) - 1))
            groups = [np.flatnonzero(letters == letter) for letter in [0] + [1 << i for i in range(k - 1, -1, -1)]]

    table_rows = max(1, SIGN_TABLE_ELEMENTS // len(coeffs))
    low = min((m - k + 1) // 2, LOW_BITS, table_rows.bit_length() - 1)
    low_codes = np.arange(1 << low)
    tables = [
        (coeffs[terms], reduced[terms] >> low, np.where(_odd(reduced[terms, None] & low_codes), -1.0, 1.0))
        for terms in groups
    ]
    total_rows = 2 ** (m - k - low)
    chunk_rows = min(-(-DEFAULT_CHUNK // 2 ** (low + k)), max(1, table_rows >> k), total_rows)
    sums = np.empty((k + 1, chunk_rows, 1 << low))  # S_I, then S_g for q's pairs in order; every chunk reuses them
    magnitude = np.empty((chunk_rows, 1 << low)) if k else None
    best_value = -np.inf
    best_code = 0
    exact_checks = 0
    for start in range(0, total_rows, chunk_rows):
        rows = np.arange(start, min(start + chunk_rows, total_rows))
        block = sums[:, : len(rows)]
        for table, out in zip(tables, block):
            _signed_sums(rows, *table, out)
        screen = block[0]
        for g in range(1, k + 1):
            screen += np.abs(block[g], out=magnitude[: len(rows)])
        threshold = screen.max() - margin
        overflow = not math.isfinite(threshold)  # overflow or NaN in the screen: keep every code
        near = np.arange(screen.size) if overflow else np.flatnonzero(screen >= threshold)
        codes = near + (start << low)
        if k:
            letter_values = [block[g].ravel()[near] for g in range(1, k + 1)]
            codes = _expand(codes, letter_values, math.inf if overflow else margin, below)
        value, code = _exact_best(codes, masks, coeffs)
        exact_checks += len(codes)
        if value > best_value or (value == best_value and code < best_code):
            best_value, best_code = value, code

    signs = {pair: 1 - 2 * ((best_code >> (m - 1 - j)) & 1) for j, pair in enumerate(pairs)}
    return BoundResult(best_value, _full_table(op, signs), exact_checks, tuple(pairs))


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked for, as in classical_bound
def sampled_lower_bound(op: HSOperator, trials: int, seed: int = 0) -> float:
    """Best value over uniformly random assignments; never above the bound.

    Any exactly summed value that is not finite raises ``ValueError``.
    """
    require_identity_free(op)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if len(op) == 0:  # every assignment has value 0
        return 0.0
    pairs, incidence = _incidence(op)
    bits = 1 << np.arange(len(pairs) - 1, -1, -1)
    masks = incidence @ bits
    rng = np.random.default_rng(seed)
    best_value = -np.inf
    done = 0
    while done < trials:
        count = min(DEFAULT_CHUNK, trials - done)
        draws = rng.integers(0, 2, size=(count, len(pairs)), dtype=np.int8)  # 1 sets a pair to -1
        best_value = max(best_value, _exact_best(draws @ bits, masks, op.coeffs)[0])
        done += count
    return best_value
