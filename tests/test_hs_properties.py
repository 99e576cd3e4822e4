"""Property tests: the HSOperator term table against a plain-dict model.

The model keeps {label: coefficient} with the same pruning rule;
every property is checked on operators of up to four qubits.  The
constructor's one bulk pass is checked against the per-key encoder it
replaced, on valid and near-valid mappings.  Examples are derandomized
so the suite stays deterministic.
"""

import itertools
import math
from fractions import Fraction
from numbers import Real

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hswit.hs import PRUNE_TOL, HSOperator, hs_decompose, hs_reconstruct, overlap
from hswit.pauli_core import AXIS_LABELS, CapacityError, check_qubit_count

from conftest import random_density, string_matrix
from reference import relabel

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
    mapped = relabel(op, forward)
    letters = str.maketrans("XYZ", "".join(AXIS_LABELS[a] for a in image))
    assert_matches(mapped, {k.translate(letters): c for k, c in model(terms).items()})
    back = relabel(mapped, inverse)
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


def _reference_code(key, n: int) -> int:
    """Base-4 code of one label, checked and encoded one key at a time."""
    if not isinstance(key, str) or not set(key) <= set(AXIS_LABELS):
        raise ValueError(f"labels may only contain I, X, Y, Z, got {key!r}")
    if len(key) != n:
        raise ValueError(f"term {key} has {len(key)} qubits, expected {n}")
    return int(key.translate(str.maketrans(AXIS_LABELS, "0123")), 4)


def _reference_table(n: int, terms: dict) -> tuple[np.ndarray, np.ndarray]:
    """(codes, coefficients) of HSOperator(n, terms), built one key at a time."""
    if check_qubit_count(n) > 31:
        raise CapacityError(f"the term table holds at most 31 qubits, got {n}")
    codes = []
    for key, value in terms.items():  # letters, then length, then a real value, key by key
        codes.append(_reference_code(key, n))
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"coefficient for {key} must be real, got {value!r}")
    coeffs = [float(value) for value in terms.values()]  # only once every key is checked
    for key, c in zip(terms, coeffs):
        if not math.isfinite(c):
            raise ValueError(f"coefficient for {key} must be finite, got {c}")
    table = sorted((code, c) for code, c in zip(codes, coeffs) if abs(c) >= PRUNE_TOL)
    return np.array([code for code, _ in table], dtype=np.int64), np.array([c for _, c in table], dtype=float)


def _table(n: int, terms: dict) -> tuple[np.ndarray, np.ndarray]:
    op = HSOperator(n, terms)
    assert op.n == n
    return op.codes, op.coeffs


def _outcome(build, *args):
    try:
        result = build(*args)
    except Exception as exc:  # the two builders must fail alike, whatever the error
        return type(exc), str(exc)
    return result if isinstance(result, float) else [(a.dtype, a.tobytes()) for a in result]


def _near_keys(n: int):
    """Mostly length-n labels; otherwise bad letters, lowercase, a wrong length, a str subclass or no str at all."""
    valid = st.text(AXIS_LABELS, min_size=n, max_size=n)
    near = st.one_of(
        st.text(AXIS_LABELS + "Qxz ", min_size=n, max_size=n),
        valid.map(str.lower),
        st.text(AXIS_LABELS, max_size=n + 1),
        valid.map(np.str_),
        st.sampled_from([(3, 3), (1,) * n, 5, None, True, b"XX", 1.5]),
    )
    return st.integers(0, 3).flatmap(lambda k: valid if k else near)


real_values = st.floats(-2.0, 2.0) | st.integers(-3, 3) | st.sampled_from([0.0, -0.0, 5e-13, PRUNE_TOL, 1e308, 2**70])
odd_values = st.sampled_from(
    [True, False, 1 + 2j, 1 + 0j, "0.5", Fraction(1, 3), Fraction(1, 10**13), np.float64(0.25)]
    + [float("nan"), float("inf"), -float("inf"), 10**400]
)
near_values = st.integers(0, 7).flatmap(lambda k: real_values if k else odd_values)  # mostly real values


@st.composite
def near_valid_terms(draw):
    n = draw(st.sampled_from([1, 2, 3] * 3 + [0]))
    terms = dict(draw(st.lists(st.tuples(_near_keys(n), near_values), max_size=6)))
    return n, terms, draw(st.lists(_near_keys(n), max_size=3))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(near_valid_terms())
@example((2, {"XX": 10**400, "ZZ": 1.0}, []))  # OverflowError, after every key is checked
@example((2, {"XX": 10**400, "ZQ": 1.0}, []))
@example((2, {"XX": float("nan"), "YY": True}, []))  # a real value before a finite one
@example((2, {"XX": 1.0, "ZZ": -float("inf"), "YY": float("nan")}, []))
@example((2, {"XQ": True}, []))  # letters before the value
@example((2, {"XXX": 1 + 2j}, []))  # length before the value
@example((2, {(3, 3): 1.0}, []))
@example((2, {"iz": 1.0}, []))
@example((2, {"XX": 1.0, "ZZ": 2.0, "IZ": 1e-13}, ["ZZ", "YY", "IZ", "zz", (3, 3), "XXX", ""]))
def test_constructor_matches_the_per_key_encoder(case):
    n, terms, probes = case
    built = _outcome(_table, n, terms)
    assert built == _outcome(_reference_table, n, terms)
    if isinstance(built, list):  # coefficient() checks and encodes a label as the constructor does
        op, (codes, coeffs) = HSOperator(n, terms), _reference_table(n, terms)
        want = dict(zip(codes.tolist(), coeffs.tolist()))
        for label in probes:
            got = _outcome(op.coefficient, label)
            assert got == _outcome(lambda k: want.get(_reference_code(k, n), 0.0), label)
