"""Property tests: the HSOperator term table against a plain-dict model.

The model keeps {label: coefficient} with the same pruning rule;
every property is checked on operators of up to four qubits.  Examples
are derandomized so the suite stays deterministic.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hswit.hs import PRUNE_TOL, HSOperator, hs_decompose, hs_reconstruct, overlap
from hswit.pauli_core import AXIS_LABELS

from conftest import random_density, string_matrix

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)

coefficients = st.one_of(
    st.floats(-10.0, 10.0, allow_nan=False),
    st.sampled_from([0.0, 5e-13, -5e-13, PRUNE_TOL]),
)


def label(axes):
    return "".join(AXIS_LABELS[a] for a in axes)


@st.composite
def term_dicts(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 4))
    keys = st.tuples(*[st.integers(0, 3)] * n).map(label)
    return n, draw(st.dictionaries(keys, coefficients, max_size=12))


@st.composite
def operator_pairs(draw):
    n, a = draw(term_dicts())
    _, b = draw(term_dicts(n))
    return n, a, b


def model(terms):
    return {word: float(c) for word, c in terms.items() if abs(c) >= PRUNE_TOL}


def all_strings(n):
    return map(label, itertools.product(range(4), repeat=n))


def assert_matches(op, expected):
    want = model(expected)
    assert op.labels() == sorted(want)  # I < X < Y < Z, so label order is code order
    assert len(op) == len(want)
    for word in all_strings(op.n):
        assert op.coefficient(word) == want.get(word, 0.0)


@SETTINGS
@given(term_dicts())
def test_lookup_order_and_pruning(case):
    n, terms = case
    op = HSOperator(n, terms)
    assert_matches(op, terms)
    assert op.identity_coefficient == model(terms).get("I" * n, 0.0)
    assert list(zip(op.labels(), op.coeffs.tolist())) == sorted(model(terms).items())


@SETTINGS
@given(operator_pairs(), st.floats(-4.0, 4.0, allow_nan=False))
def test_linearity(case, scale):
    n, a, b = case
    op_a, op_b = HSOperator(n, a), HSOperator(n, b)
    ma, mb = model(a), model(b)
    keys = set(ma) | set(mb)
    assert_matches(op_a + op_b, {k: ma.get(k, 0.0) + mb.get(k, 0.0) for k in keys})
    assert_matches(op_a - op_b, {k: ma.get(k, 0.0) - mb.get(k, 0.0) for k in keys})
    assert_matches(-op_a, {k: -c for k, c in ma.items()})
    assert_matches(scale * op_a, {k: scale * c for k, c in ma.items()})
    assert_matches(op_a * scale, {k: scale * c for k, c in ma.items()})


@SETTINGS
@given(term_dicts(), st.permutations([1, 2, 3]))
def test_relabel_then_inverse_is_the_identity(case, image):
    n, terms = case
    op = HSOperator(n, terms)
    forward = dict(zip((1, 2, 3), image))
    inverse = {v: k for k, v in forward.items()}
    mapped = op.relabel(forward)
    letters = str.maketrans("XYZ", "".join(AXIS_LABELS[a] for a in image))
    assert_matches(mapped, {k.translate(letters): c for k, c in model(terms).items()})
    back = mapped.relabel(inverse)
    assert back.labels() == op.labels()
    assert np.array_equal(back.coeffs, op.coeffs)


@SETTINGS
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_round_trip_reproduces_the_state(n, seed):
    rho = random_density(np.random.default_rng(seed), n)
    recon = hs_reconstruct(hs_decompose(rho)) / 2**n
    assert np.max(np.abs(recon - rho.matrix)) < 1e-10


@SETTINGS
@given(term_dicts(), st.integers(0, 2**32 - 1))
def test_overlap_equals_the_direct_trace(case, seed):
    n, terms = case
    op = HSOperator(n, terms)
    rho = random_density(np.random.default_rng(seed), n)
    want = sum(c * np.trace(string_matrix(k) @ rho.matrix).real for k, c in model(terms).items())
    assert abs(overlap(op, hs_decompose(rho)) - want) < 1e-9
