"""Exhaustive classical bounds, cross-checked by two enumerators and a closed form.

The naive oracle re-enumerates definite-outcome assignments with
itertools and per-term arithmetic, sharing no code with the vectorized
implementation under test.  The per-term enumerator is the earlier
implementation, kept here to pin the matrix-product screen to the same
bits: the same bound, maximizer and tie-break.  The Walsh-Hadamard
oracle reaches full-weight two-letter operators up to n = 10.
"""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg

from conftest import mermin
from hswit import lhv_bound
from hswit.hs import HSOperator, require_identity_free
from hswit.lhv_bound import (
    DEFAULT_CHUNK,
    DEFAULT_MAX_ASSIGNMENTS,
    BoundResult,
    LHVAssignment,
    _full_table,
    _incidence,
    classical_bound,
    sampled_lower_bound,
)


def _naive_value(op: HSOperator, table: dict[tuple[int, int], int]) -> float:
    """Operator value under one {(qubit, axis): +/-1} table, one term at a time."""
    value = 0.0
    for axes, coeff in zip(op.axes.tolist(), op.coeffs.tolist()):
        factor = 1.0
        for qubit, axis in enumerate(axes):
            if axis != 0:
                factor *= table[(qubit, axis)]
        value += coeff * factor
    return value


def _naive_extrema(op: HSOperator) -> tuple[float, float]:
    """(min, max) over all assignments, one term at a time."""
    pairs = _incidence(op)[0]
    best_lo, best_hi = np.inf, -np.inf
    for signs in itertools.product((1, -1), repeat=len(pairs)):
        value = _naive_value(op, dict(zip(pairs, signs)))
        best_lo = min(best_lo, value)
        best_hi = max(best_hi, value)
    return best_lo, best_hi


def _sign_row_values(op: HSOperator, incidence: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Operator value for each row of +/-1 signs over the measured pairs, terms added in order."""
    values = np.zeros(len(signs))
    for row, c in zip(incidence, op.coeffs):
        values += c * signs[:, row].prod(axis=1)
    return values


def _walsh_hadamard_bound(op: HSOperator) -> float:
    """beta_cl of a full-weight operator with at most two letters per qubit, as max |H c|.

    With x_k and y_k the signs of qubit k's first and second letter and S
    the set of qubits on their second letter, the value is
    prod_k x_k * sum_S c_S prod_(k in S) x_k y_k.  The products z_k = x_k y_k
    range over every sign pattern whatever prod_k x_k is, so the best value
    is max_z |sum_S c_S (-1)^|S & z||, the largest entry of H c for the
    Sylvester-Hadamard matrix H (Werner and Wolf, PRA 64, 032112, 2001).
    """
    axes = op.axes
    second = axes.max(axis=0)
    assert (axes > 0).all() and ((axes == axes.min(axis=0)) | (axes == second)).all()
    table = np.zeros(2**op.n)
    table[(axes == second) @ (1 << np.arange(op.n))] = op.coeffs
    return float(np.abs(scipy.linalg.hadamard(2**op.n) @ table).max())


def _per_term_enumeration(
    op: HSOperator,
    chunk_size: int = DEFAULT_CHUNK,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> tuple[float, LHVAssignment, int]:
    """The per-term enumerator that the matrix-product screen replaced, as it was.

    Returns (beta_cl, maximizer, evaluations).  It sums every
    assignment's value in term order, as the exact pass sums the
    near-best ones, so the two must agree with ``==``.
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
    return best_value, _full_table(op, signs), total_count


def _identity_free_labels(n):
    return ["".join(w) for w in itertools.product("IXYZ", repeat=n) if set(w) != {"I"}]


def _random_identity_free_op(rng, n, n_terms):
    labels = _identity_free_labels(n)
    picks = rng.choice(len(labels), size=n_terms, replace=False)
    return HSOperator(n, {labels[i]: float(rng.normal()) for i in picks})


@pytest.mark.parametrize(
    "name,want",
    [("ghz3", 2.0), ("w3", 2.0), ("ghz4", 4.0), ("w4", 5.0), ("cl4", 4.0)],
)
def test_catalog_bounds_are_the_documented_integers(cat, name, want):
    result = classical_bound(cat[name].bell)
    assert result.beta_cl == want


def test_bound_matches_naive_enumeration_on_catalog(cat):
    for name in ("ghz3", "w3", "ghz4", "w4", "cl4"):
        op = cat[name].bell
        _, want = _naive_extrema(op)
        assert classical_bound(op).beta_cl == pytest.approx(want, abs=1e-12)


def test_bound_matches_naive_enumeration_on_random_ops():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        for n_terms in (1, 3, 6):
            op = _random_identity_free_op(rng, n, n_terms)
            _, want = _naive_extrema(op)
            got = classical_bound(op)
            assert abs(got.beta_cl - want) < 1e-12
            table = {(k, a): signs[a - 1] for k, signs in enumerate(got.maximizer.values) for a in (1, 2, 3)}
            achieved = _naive_value(op, table)
            assert abs(achieved - got.beta_cl) < 1e-12


def _random_coefficient_op(rng, n, kind, n_terms=None):
    """Random identity-free operator with one of four coefficient families."""
    labels = _identity_free_labels(n)
    if n_terms is None:
        n_terms = int(rng.integers(1, min(len(labels), 30) + 1))
    picks = rng.choice(len(labels), size=n_terms, replace=False)
    if kind == "normal":
        coeffs = rng.normal(size=n_terms)
    elif kind == "integer":
        coeffs = rng.integers(-3, 4, size=n_terms).astype(float)
    elif kind == "dyadic":  # few distinct magnitudes: many exact ties
        coeffs = rng.integers(-4, 5, size=n_terms) / 8.0
    else:  # "mixed": magnitudes 1e-9 and 1e9 side by side
        coeffs = rng.normal(size=n_terms) * np.where(rng.random(n_terms) < 0.5, 1e-9, 1e9)
    return HSOperator(n, {labels[i]: float(c) for i, c in zip(picks, coeffs) if c != 0})


def _bound_in_chunks(monkeypatch, op, chunk):
    """classical_bound with its chunk of codes, the module constant DEFAULT_CHUNK, set to ``chunk``."""
    monkeypatch.setattr(lhv_bound, "DEFAULT_CHUNK", chunk)
    return classical_bound(op)


def _assert_same_bound(got, want):
    assert (got.beta_cl, got.maximizer, got.evaluations) == want
    assert 1 <= got.exact_checks <= got.evaluations


def test_bound_equals_the_per_term_enumerator_on_catalog(cat, monkeypatch):
    for entry in cat.values():
        for op in (entry.bell, entry.g_witness):
            if op is None:
                continue
            want = _per_term_enumeration(op)
            for chunk in (1, 3, 17, 4096, DEFAULT_CHUNK):
                _assert_same_bound(_bound_in_chunks(monkeypatch, op, chunk), want)


@pytest.mark.parametrize("kind", ["normal", "integer", "dyadic", "mixed"])
def test_bound_equals_the_per_term_enumerator_on_random_ops(kind, monkeypatch):
    rng = np.random.default_rng(["normal", "integer", "dyadic", "mixed"].index(kind))
    for i in range(48):
        op = _random_coefficient_op(rng, 1 + i % 6, kind)
        want = _per_term_enumeration(op)
        for chunk in (1, 3, 17, 4096, DEFAULT_CHUNK):
            _assert_same_bound(_bound_in_chunks(monkeypatch, op, chunk), want)


@pytest.mark.parametrize("kind", ["normal", "dyadic"])
def test_bound_equals_the_per_term_enumerator_over_several_chunks(kind, monkeypatch):
    # m > 11 measured pairs: rows of 2^11 codes, and chunks of 1, 4 or all rows
    op = _random_coefficient_op(np.random.default_rng(4), 6, kind, n_terms=40)
    assert len(_incidence(op)[0]) > 11
    want = _per_term_enumeration(op)
    for chunk in (1, 2048, 3 * 2048 + 1, DEFAULT_CHUNK):
        _assert_same_bound(_bound_in_chunks(monkeypatch, op, chunk), want)


def _tenths_op(rng, n, n_terms, swap_symmetric):
    """Coefficients +/-0.1 and +/-0.3, optionally equal on strings that differ by swapping qubits 0 and 1."""
    labels = _identity_free_labels(n)
    terms = {}
    for i in rng.permutation(len(labels)):
        if len(terms) >= n_terms:
            break
        coeff = float(rng.choice([0.1, 0.3]) * rng.choice([-1, 1]))
        terms.setdefault(labels[i], coeff)
        if swap_symmetric:
            terms.setdefault(labels[i][1] + labels[i][0] + labels[i][2:], coeff)
    return HSOperator(n, terms)


@pytest.mark.parametrize("n,n_terms", [(3, 20), (3, 63), (4, 150), (4, 255)])
def test_bound_equals_the_per_term_enumerator_on_rounded_ties(n, n_terms, monkeypatch):
    # Tenths are inexact in binary, so maxima tied in exact arithmetic (here
    # also by a qubit-swap symmetry) differ in the last bits between summation
    # orders, and BLAS adds the screen's terms in an order of its own.  Past
    # 128 terms the screen also takes fewer low bits per row.
    for seed in range(10):
        for swap_symmetric in (False, True):
            op = _tenths_op(np.random.default_rng(seed), n, n_terms, swap_symmetric)
            want = _per_term_enumeration(op)
            for chunk in (1, DEFAULT_CHUNK):
                _assert_same_bound(_bound_in_chunks(monkeypatch, op, chunk), want)


def test_bound_rejects_values_that_overflow():
    # the per-term enumerator reaches +inf on each; the screen's overflow keeps every
    # code, and a sum past the float range is an error, not a bound, with no numpy warning
    big = np.finfo(float).max
    ops = [
        HSOperator(1, {"X": 1e308, "Y": 1e308, "Z": 1e308}),
        HSOperator(2, {"XX": big, "ZI": big / 2**53, "IZ": -big / 2**53}),
        HSOperator(2, {"XX": -1e308, "XZ": -1e308, "ZZ": 1e308}),
    ]
    for op in ops:
        with np.errstate(over="ignore"):  # the reference enumerator warns as it reaches inf
            assert _per_term_enumeration(op)[0] == np.inf
        with pytest.raises(ValueError, match="overflows the float range"):
            classical_bound(op)


def test_exact_checks_count_the_tied_maximizers():
    # x0*x1 is maximal at (+,+) and (-,-): both are summed exactly, nothing else
    result = classical_bound(HSOperator(2, {"XX": 1.0}))
    assert result.exact_checks == 2
    assert result.evaluations == 4


def test_result_carries_the_measured_pairs(cat):
    for entry in cat.values():
        if entry.bell is not None:
            assert classical_bound(entry.bell).pairs == tuple(_incidence(entry.bell)[0])
    assert classical_bound(HSOperator(2, {})).pairs == ()


def test_maximizer_ties_resolve_to_all_plus_one():
    # x0*x1 is maximized by (+,+) and (-,-); the reported one is the
    # first in the fixed enumeration order, which starts all-plus.
    op = HSOperator(2, {"XX": 1.0})
    result = classical_bound(op)
    assert result.maximizer.values[0][0] == 1  # qubit 0, axis x
    assert result.maximizer.values[1][0] == 1
    # unused axes are carried as +1 placeholders
    assert result.maximizer.values == ((1, 1, 1), (1, 1, 1))


def test_chunk_partition_does_not_change_the_result(cat, monkeypatch):
    op = cat["w4"].bell
    reference = classical_bound(op)
    for chunk in (1, 3, 17, 1000):
        result = _bound_in_chunks(monkeypatch, op, chunk)
        assert result.beta_cl == reference.beta_cl
        assert result.maximizer == reference.maximizer
        assert result.evaluations == reference.evaluations


def test_bound_scales_linearly_and_negation_gives_minus_min(cat):
    rng = np.random.default_rng(33)
    ops = [cat["ghz3"].bell, cat["w4"].bell, _random_identity_free_op(rng, 3, 5)]
    for op in ops:
        base = classical_bound(op).beta_cl
        assert classical_bound(2.5 * op).beta_cl == pytest.approx(2.5 * base, abs=1e-12)
        lo, _ = _naive_extrema(op)
        assert classical_bound(-op).beta_cl == pytest.approx(-lo, abs=1e-12)


def test_identity_term_is_rejected():
    op = HSOperator(2, {"II": 1.0, "XX": 1.0})
    with pytest.raises(ValueError, match="identity"):
        classical_bound(op)
    with pytest.raises(ValueError, match="identity"):
        sampled_lower_bound(op, 10)


def test_empty_operator_bound_is_zero():
    result = classical_bound(HSOperator(2, {}))
    assert result.beta_cl == 0.0
    assert result.evaluations == 1


def test_evaluations_count_the_assignments_of_the_measured_pairs(cat):
    assert [f.name for f in dataclasses.fields(BoundResult)] == ["beta_cl", "maximizer", "exact_checks", "pairs"]
    bells = [entry.bell for entry in cat.values() if entry.bell is not None]
    for op in bells + [HSOperator(3, {})]:
        result = classical_bound(op)
        assert result.evaluations == 2 ** len(result.pairs)


def test_assignment_budget_is_enforced(cat, monkeypatch):
    monkeypatch.setattr(lhv_bound, "DEFAULT_MAX_ASSIGNMENTS", 4)
    with pytest.raises(ValueError, match="enumeration budget"):
        classical_bound(cat["ghz3"].bell)


def test_assignment_values_must_be_signs():
    with pytest.raises(ValueError):
        LHVAssignment(((1, 0, 1),))
    with pytest.raises(ValueError):
        LHVAssignment(((1, 1),))
    with pytest.raises(ValueError):
        LHVAssignment(())
    assign = LHVAssignment(((1, -1, 1), (-1, -1, 1)))
    assert assign.n == 2


def test_assignment_lines_cover_used_axes_only():
    assign = LHVAssignment(((1, -1, 1), (1, 1, 1)))
    lines = assign.lines(frozenset({(0, 2), (1, 1)}))
    assert lines == ["qubit 0: Y=-1", "qubit 1: X=+1"]


def test_sampled_bound_never_exceeds_exhaustive(cat):
    for name in ("ghz3", "w3", "w4"):
        op = cat[name].bell
        exact = classical_bound(op).beta_cl
        for seed in (0, 1, 2):
            assert sampled_lower_bound(op, 50, seed=seed) <= exact + 1e-12


def test_sampled_bound_finds_the_maximum_with_enough_trials(cat):
    for name in ("ghz3", "w3"):
        op = cat[name].bell
        exact = classical_bound(op).beta_cl
        got = sampled_lower_bound(op, 100 * 4**3, seed=0)
        assert got == pytest.approx(exact, abs=1e-12)


def test_sampled_bound_is_deterministic_per_seed(cat):
    op = cat["cl4"].bell
    a = sampled_lower_bound(op, 200, seed=7)
    b = sampled_lower_bound(op, 200, seed=7)
    assert a == b


def test_sampled_bound_is_the_best_evaluated_draw(cat):
    # the sampled bound is, bit for bit, the best of the evaluator's values
    # over the same draws, each summed in term order
    rng = np.random.default_rng(31)
    ops = [cat[name].bell for name in ("ghz3", "w4", "cl4")]
    ops += [_random_identity_free_op(rng, n, k) for n, k in ((2, 5), (3, 9), (4, 12))]
    for op in ops:
        pairs, incidence = _incidence(op)
        draws = 1 - 2 * np.random.default_rng(5).integers(0, 2, size=(40, len(pairs)), dtype=np.int8)
        values = [_sign_row_values(op, incidence, row[None])[0] for row in draws]
        assert sampled_lower_bound(op, 40, seed=5) == max(values)
        for row, value in zip(draws.tolist(), values):
            assert value == pytest.approx(_naive_value(op, dict(zip(pairs, row))), abs=1e-12)


# The busiest qubit q leaves the enumeration when the other m - k pairs
# number more than LOW_BITS.  Each layout gives the axes each qubit
# measures; q is the first qubit with the most of them.
_LAYOUTS = {
    "q first, 3 pairs": (0, ["XYZ"] + ["XZ", "YZ", "XY", "XZ", "YZ", "XY", "XZ"]),
    "q in the middle, 3 pairs": (4, ["XZ", "YZ", "XY", "XZ", "XYZ", "YZ", "XY", "XZ"]),
    "q last, 3 pairs": (7, ["XZ", "YZ", "XY", "XZ", "YZ", "XY", "XZ", "XYZ"]),
    "q first, 2 pairs": (0, ["XY", "XZ", "YZ", "XY", "XZ", "YZ", "XY", "XZ"]),
    "q in the middle, 2 pairs": (5, ["X", "Y", "Z", "X", "Y", "XZ", "XY", "YZ", "XZ", "XY"]),
}


def _layout_op(rng, layout, kind, identity_on_q, n_terms=28):
    """An operator measuring exactly the layout's pairs; its terms have I on q only if ``identity_on_q``."""
    q, axes = _LAYOUTS[layout]
    n = len(axes)

    def word(fixed=None):
        letters = [str(rng.choice(list("I" + a))) if rng.random() < 0.6 else "I" for a in axes]
        if fixed is not None:
            letters[fixed[0]] = fixed[1]
        if not identity_on_q and letters[q] == "I":
            letters[q] = str(rng.choice(list(axes[q])))
        return "".join(letters)

    words = {word() for _ in range(n_terms)}
    words |= {word((k, a)) for k, group in enumerate(axes) for a in group}  # every pair measured
    if identity_on_q:
        words.add(word((q, "I")))
    words.discard("I" * n)
    words = sorted(words)
    if kind == "normal":
        coeffs = rng.normal(size=len(words))
    elif kind == "dyadic":  # few distinct magnitudes: many exact ties
        coeffs = rng.choice([-2, -1, 1, 2], size=len(words)) / 8.0
    else:  # "tenths": ties in exact arithmetic that differ in the last bits between summation orders
        coeffs = rng.choice([0.1, 0.3], size=len(words)) * rng.choice([-1, 1], size=len(words))
    op = HSOperator(n, dict(zip(words, coeffs.tolist())))

    pairs = _incidence(op)[0]
    counts = [sum(qubit == k for qubit, _ in pairs) for k in range(n)]
    assert len(pairs) >= 15 and counts.index(max(counts)) == q and counts[q] == len(axes[q])
    assert len(pairs) - counts[q] > lhv_bound.LOW_BITS  # so q leaves the enumeration
    assert any(w[q] == "I" for w in words) == identity_on_q
    return op


@pytest.mark.parametrize("kind", ["normal", "dyadic", "tenths"])
@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_bound_with_the_busiest_qubit_in_closed_form_equals_the_per_term_enumerator(layout, kind, monkeypatch):
    rng = np.random.default_rng([list(_LAYOUTS).index(layout), ["normal", "dyadic", "tenths"].index(kind)])
    for identity_on_q in (False, True):
        op = _layout_op(rng, layout, kind, identity_on_q)
        want = _per_term_enumeration(op)
        for chunk in (1, 2048, DEFAULT_CHUNK):
            _assert_same_bound(_bound_in_chunks(monkeypatch, op, chunk), want)


def test_tied_maximizers_keep_both_signs_where_a_letter_sum_vanishes(monkeypatch):
    # On M_7 qubit 0 leaves the enumeration (m = 14, k = 2).  With the other six qubits fixed,
    # S_X and S_Y are the real and imaginary parts of a product of six factors x + iy, whose phase
    # is a multiple of pi/2, so at every maximizer one of them is 0 and both of its signs are best
    op = mermin(7)
    pairs, incidence = _incidence(op)
    assert len(pairs) - 2 > lhv_bound.LOW_BITS
    want = _per_term_enumeration(op)
    values = _sign_row_values(op, incidence, np.array(list(itertools.product((1, -1), repeat=len(pairs))))).tolist()
    for chunk in (1, 2048, DEFAULT_CHUNK):
        got = _bound_in_chunks(monkeypatch, op, chunk)
        _assert_same_bound(got, want)
        assert got.exact_checks == values.count(max(values)) == 2 * 2**12  # two under each reduced code


def test_sampled_bound_rejects_values_that_overflow_as_the_bound_does():
    # every assignment's value is finite (at most 1e308), but at +1, +1 the
    # term-order sum reaches inf before the -1e308 term; numpy must not warn
    op = HSOperator(2, {"IX": 1e308, "XI": 1e308, "XX": -1e308})
    with pytest.raises(ValueError, match="overflows the float range"):
        classical_bound(op)
    with pytest.raises(ValueError, match="overflows the float range"):
        sampled_lower_bound(op, 50)


def test_bound_with_the_busiest_qubit_in_closed_form_rejects_values_that_overflow():
    op = _layout_op(np.random.default_rng(5), "q first, 3 pairs", "normal", identity_on_q=True)
    op = op + HSOperator(8, {"XX" + "I" * 6: 1e308, "YX" + "I" * 6: 1e308, "ZX" + "I" * 6: 1e308})
    assert len(_incidence(op)[0]) >= 15
    with np.errstate(over="ignore"):  # the reference enumerator warns as it reaches inf
        assert _per_term_enumeration(op)[0] == np.inf
    with pytest.raises(ValueError, match="overflows the float range"):
        classical_bound(op)


def test_the_exact_pass_adds_terms_in_order():
    # 1e5 first in term order, then twenty terms of 1e-12, each below half an ulp of 1e5: added in
    # order every one rounds away, while any grouping of the small ones first would move the sum
    terms = {"I" * 7 + "X": 1.0e5}
    for k in range(20):
        terms["XYZ"[k % 3] + format(k, "07b").replace("0", "I").replace("1", "Z")] = 1e-12
    op = HSOperator(8, terms)
    want = _per_term_enumeration(op)
    assert want[0] == 1.0e5
    _assert_same_bound(classical_bound(op), want)


@pytest.mark.parametrize("n", range(3, 11))
def test_mermin_family_bound_is_the_closed_form(n, cat):
    # beta_cl(M_n) = 2^floor(n/2) (Mermin 1990; Ardehali 1992; Belinskii and Klyshko 1993)
    op = mermin(n)
    assert len(op) == 2 ** (n - 1)
    result = classical_bound(op)
    assert result.beta_cl == 2 ** (n // 2) == _walsh_hadamard_bound(op)
    assert result.evaluations == 4**n
    if f"ghz{n}" in cat:  # the catalog's GHZ Bell operators are M_3 and M_4
        bell = cat[f"ghz{n}"].bell
        assert np.array_equal(bell.codes, op.codes) and np.array_equal(bell.coeffs, op.coeffs)
        assert classical_bound(bell) == result


@pytest.mark.parametrize("n", range(3, 9))
def test_bound_of_two_letter_operators_is_the_walsh_hadamard_maximum(n):
    # full weight, two letters per qubit, half-integer coefficients: every sum is exact, so the two agree with ==
    rng = np.random.default_rng([9, n])
    for _ in range(8):
        letters = [rng.choice(list("XYZ"), size=2, replace=False) for _ in range(n)]
        subsets = np.flatnonzero(rng.random(2**n) < 0.7)
        words = ["".join(letters[k][s >> k & 1] for k in range(n)) for s in subsets.tolist()]
        op = HSOperator(n, dict(zip(words, (rng.integers(-4, 5, size=len(words)) / 2).tolist())))
        assert (len(_incidence(op)[0]) - 2 > lhv_bound.LOW_BITS) == (n >= 7)  # the closed-form qubit from n = 7
        assert classical_bound(op).beta_cl == _walsh_hadamard_bound(op)
