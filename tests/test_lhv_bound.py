"""Exhaustive classical bounds, cross-checked by a naive enumerator.

The oracle here re-enumerates definite-outcome assignments with
itertools and per-term arithmetic, sharing no code with the vectorized
implementation under test.
"""

import itertools

import numpy as np
import pytest

from hswit.hs import HSOperator
from hswit.lhv_bound import (
    LHVAssignment,
    classical_bound,
    evaluate_assignment,
    sampled_lower_bound,
    used_pairs,
)


def _naive_extrema(op: HSOperator) -> tuple[float, float]:
    """(min, max) over all assignments, one term at a time."""
    pairs = used_pairs(op)
    best_lo, best_hi = np.inf, -np.inf
    for signs in itertools.product((1, -1), repeat=len(pairs)):
        table = dict(zip(pairs, signs))
        value = 0.0
        for s, coeff in op:
            factor = 1.0
            for qubit, axis in enumerate(s.axes):
                if axis != 0:
                    factor *= table[(qubit, axis)]
            value += coeff * factor
        best_lo = min(best_lo, value)
        best_hi = max(best_hi, value)
    return best_lo, best_hi


def _random_identity_free_op(rng, n, n_terms):
    labels = [
        axes
        for axes in itertools.product(range(4), repeat=n)
        if any(a != 0 for a in axes)
    ]
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
            achieved = evaluate_assignment(op, got.maximizer)
            assert abs(achieved - got.beta_cl) < 1e-12


def test_maximizer_ties_resolve_to_all_plus_one():
    # x0*x1 is maximized by (+,+) and (-,-); the reported one is the
    # first in the fixed enumeration order, which starts all-plus.
    op = HSOperator(2, {"XX": 1.0})
    result = classical_bound(op)
    assert result.maximizer.value(0, 1) == 1
    assert result.maximizer.value(1, 1) == 1
    # unused axes are carried as +1 placeholders
    assert result.maximizer.values == ((1, 1, 1), (1, 1, 1))


def test_chunk_partition_does_not_change_the_result(cat):
    op = cat["w4"].bell
    reference = classical_bound(op)
    for chunk in (1, 3, 17, 1000):
        result = classical_bound(op, chunk_size=chunk)
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


def test_assignment_budget_is_enforced(cat):
    with pytest.raises(ValueError, match="enumeration budget"):
        classical_bound(cat["ghz3"].bell, max_assignments=4)


def test_evaluate_assignment_validates_width(cat):
    wrong = LHVAssignment(((1, 1, 1),))
    with pytest.raises(ValueError):
        evaluate_assignment(cat["ghz3"].bell, wrong)


def test_assignment_values_must_be_signs():
    with pytest.raises(ValueError):
        LHVAssignment(((1, 0, 1),))
    assign = LHVAssignment(((1, -1, 1), (-1, -1, 1)))
    assert assign.n == 2
    assert assign.value(1, 2) == -1
    with pytest.raises(ValueError):
        assign.value(0, 0)


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
    # the sampled bound and evaluate_assignment share one evaluator: the bound
    # equals, bit for bit, the best single-assignment value over the same draws
    rng = np.random.default_rng(31)
    ops = [cat[name].bell for name in ("ghz3", "w4", "cl4")]
    ops += [_random_identity_free_op(rng, n, k) for n, k in ((2, 5), (3, 9), (4, 12))]
    for op in ops:
        pairs = used_pairs(op)
        draws = 1 - 2 * np.random.default_rng(5).integers(0, 2, size=(40, len(pairs)), dtype=np.int8)
        values = []
        for row in draws.tolist():
            signs = dict(zip(pairs, row))
            table = tuple(tuple(signs.get((k, a), 1) for a in (1, 2, 3)) for k in range(op.n))
            values.append(evaluate_assignment(op, LHVAssignment(table)))
        assert sampled_lower_bound(op, 40, seed=5) == max(values)
