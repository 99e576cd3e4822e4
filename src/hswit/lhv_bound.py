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
from .pauli_core import AXIS_LABELS, BLOCK_ELEMENTS, Array
from .screen import LOW_BITS, _blocks

DEFAULT_MAX_ASSIGNMENTS = 1 << 26
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

    def lines(self, used: frozenset[tuple[int, int]]) -> list[str]:
        """One 'qubit k: X=+1 ...' line per qubit, restricted to used axes."""
        out = []
        for k, triple in enumerate(self.values):
            parts = [
                f"{AXIS_LABELS[a]}={triple[a - 1]:+d}"
                for a in (1, 2, 3)
                if (k, a) in used
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

    The codes go in batches whose table of codes by terms fits BLOCK_ELEMENTS.
    """
    values = np.empty(len(codes))
    step = max(1, BLOCK_ELEMENTS // len(coeffs))
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

    The screen shared with ``alpha_grid_oracle`` (``screen._blocks``)
    takes each of the other m - k pairs as a site of two points, +1 and
    -1, the second flipping the terms that measure the pair, so its flat
    index is the reduced code.  It folds the last ceil((m - k) / 2) pairs
    into one table, at most LOW_BITS and fewer where T terms would pass
    BLOCK_ELEMENTS entries, and walks the rest in chunks: k + 1 matrix
    products a chunk, over 2^(m - k) reduced codes where the full
    enumeration has 2^m.

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

    # q's k pairs, adjacent in pair order; k stays 0 when m - k <= LOW_BITS, as for any q when m <= LOW_BITS + 1.
    # The other pairs are the screen's sites, its terms grouped by letter on q: I, then q's pairs in order.
    k, below, order, groups = 0, 0, slice(None), [slice(None)]
    if m > LOW_BITS + 1:
        qubits = [qubit for qubit, _ in pairs]
        q = max(qubits, key=qubits.count)  # the first of the busiest qubits
        if m - qubits.count(q) > LOW_BITS:
            k, first = qubits.count(q), qubits.index(q)
            below = m - k - first  # pairs after q's: the code bits under q's k bits
            letters = incidence[:, first : first + k] @ np.arange(1, k + 1)  # 0 for I on q, g for q's g-th pair
            order = np.argsort(letters, kind="stable")
            ends = np.cumsum(np.bincount(letters, minlength=k + 1)).tolist()
            groups = [slice(start, end) for start, end in zip([0] + ends, ends)]
            incidence = np.delete(incidence, np.s_[first : first + k], axis=1)
    # a site's first point is its +1 outcome and its second the -1 outcome, which flips the terms measuring it
    factors = np.where(incidence[order].T[:, None, :] & np.array([[False], [True]]), -1.0, 1.0)

    best_value, best_code, exact_checks = -np.inf, 0, 0
    magnitude = None  # |S_g| over a chunk, allocated at the first, the largest
    for offset, block in _blocks(factors, coeffs[order], groups):
        screen = block[0]  # S_I, then S_g for q's pairs in order
        for g in range(1, k + 1):
            magnitude = np.empty_like(screen) if magnitude is None else magnitude
            screen += np.abs(block[g], out=magnitude[: len(screen)])
        threshold = screen.max() - margin
        overflow = not math.isfinite(threshold)  # overflow or NaN in the screen: keep every code
        near = np.arange(screen.size) if overflow else np.flatnonzero(screen >= threshold)
        codes = near + offset
        if k:
            letter_values = [block[g].ravel()[near] for g in range(1, k + 1)]
            codes = _expand(codes, letter_values, math.inf if overflow else margin, below)
        value, code = _exact_best(codes, masks, coeffs)
        exact_checks += len(codes)
        if value > best_value or (value == best_value and code < best_code):
            best_value, best_code = value, code

    signs = {pair: 1 - 2 * ((best_code >> (m - 1 - j)) & 1) for j, pair in enumerate(pairs)}
    return BoundResult(best_value, _full_table(op, signs), exact_checks, tuple(pairs))
