"""Property tests: the JSON loaders on arbitrary JSON-shaped documents.

Whatever the document, ``load_operator`` and ``load_state`` either
return or raise one of the errors the CLI turns into exit 1 or 2; they
never crash with anything else.  Documents are drawn both at random and
close to the two file formats, so most of them reach the deeper checks.
Examples are derandomized so the suite stays deterministic.  The
matrix branch of ``load_state`` reads clean entries in one numpy
conversion; the per-entry loop it falls back to is kept here as the
reference it must match.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hswit.cli import UsageError, load_operator, load_state, operator_json
from hswit.hs import HSOperator
from hswit.pauli_core import AXIS_LABELS, CapacityError, DensityMatrix, InvalidStateError
from hswit.states import ENTRY_NAMES

from conftest import random_density

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)

LOADER_ERRORS = (UsageError, InvalidStateError, CapacityError, ValueError)

numbers = st.one_of(
    st.sampled_from([10**400, -(10**400), 10**7, 40]),
    st.integers(-3, 12),
    st.floats(),
    st.integers(),
    st.booleans(),
)
scalars = st.one_of(st.none(), numbers, st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _maybe_extra_key(draw, doc: dict) -> dict:
    """The document, now and then with one more key its format does not allow."""
    if draw(st.integers(0, 9)) == 9:
        doc["extra"] = draw(scalars)
    return doc


def _mostly(draw, strategy):
    """Three times in four a draw from ``strategy``, otherwise any number or JSON value."""
    return draw(strategy) if draw(st.integers(0, 3)) else draw(numbers | json_values)


def _width(n) -> int:
    """A small size to shape the rest of a document around a drawn qubit count."""
    return n if isinstance(n, int) and not isinstance(n, bool) and 1 <= n <= 3 else 1


@st.composite
def _operator_docs(draw):
    n = _mostly(draw, st.integers(1, 3))
    word = st.text(AXIS_LABELS, min_size=_width(n), max_size=_width(n)) | st.text(AXIS_LABELS + "Q", max_size=4)
    term = st.fixed_dictionaries({"string": word, "coeff": numbers})
    return _maybe_extra_key(draw, {"n": n, "terms": _mostly(draw, st.lists(term, max_size=4))})


@st.composite
def _matrix_docs(draw):
    n = _mostly(draw, st.integers(1, 2))
    pair = st.lists(st.floats(-1.0, 1.0) | numbers, min_size=2, max_size=2)
    size = 4 ** _width(n)
    entries = st.lists(pair, min_size=size, max_size=size) | st.lists(pair | json_values, max_size=5)
    return _maybe_extra_key(draw, {"matrix": n, "entries": _mostly(draw, entries)})


@st.composite
def _catalog_docs(draw):
    doc = {"catalog": draw(st.sampled_from(ENTRY_NAMES + ("nope",)) | json_values)}
    if draw(st.booleans()):
        doc["params"] = draw(st.dictionaries(st.sampled_from(["p", "R", "q"]), numbers, max_size=2) | json_values)
    return _maybe_extra_key(draw, doc)


def _loads_or_rejects(load, doc):
    try:
        load(doc)
    except LOADER_ERRORS:
        pass


@SETTINGS
@given(json_values)
def test_loaders_return_or_reject_any_json(doc):
    _loads_or_rejects(load_operator, doc)
    _loads_or_rejects(load_state, doc)


@SETTINGS
@given(_operator_docs())
@example({"n": 2, "terms": [{"string": "XX", "coeff": 10**400}]})
def test_load_operator_returns_or_rejects(doc):
    _loads_or_rejects(load_operator, doc)


@SETTINGS
@given(_catalog_docs() | _matrix_docs())
@example({"catalog": "ghz3", "params": {"p": 10**400}})
@example({"matrix": 10**400, "entries": []})
def test_load_state_returns_or_rejects(doc):
    _loads_or_rejects(load_state, doc)


@st.composite
def operators(draw):
    n = draw(st.integers(1, 4))
    words = st.text(AXIS_LABELS, min_size=n, max_size=n)
    coeffs = st.floats(allow_nan=False, allow_infinity=False)
    return HSOperator(n, draw(st.dictionaries(words, coeffs, max_size=12)))


@SETTINGS
@given(operators())
def test_operator_document_round_trips_exactly(op):
    back = load_operator(json.loads(operator_json(op.n, op.labels(), op.coeffs.tolist())))
    assert back.n == op.n
    np.testing.assert_array_equal(back.codes, op.codes)
    np.testing.assert_array_equal(back.coeffs, op.coeffs)


def _reference_real(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{what} must be finite, got an integer too large for a float") from exc


def _per_entry_load_state(doc) -> DensityMatrix:
    """``load_state`` on a matrix file, reading one [re, im] pair at a time.

    Only for documents whose 'matrix' key and entry count are valid.
    """
    dim = 2 ** doc["matrix"]
    flat = []
    for pair in doc["entries"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise UsageError(f"each entry must be an [re, im] pair, got {pair!r}")
        flat.append(complex(_reference_real(pair[0], "re"), _reference_real(pair[1], "im")))
    return DensityMatrix.from_matrix(np.array(flat, dtype=complex).reshape(dim, dim))


odd_values = st.one_of(
    st.sampled_from(
        [True, False, "0.5", None, [0.5], (0.5,), {}, 10**400, -(10**400), 2**70, float("nan"), float("inf"), -float("inf")]
    ),
    st.floats(),
    st.integers(),
    st.floats(-1.0, 1.0).map(np.float64),
)
odd_pairs = st.one_of(
    st.lists(st.floats(-1.0, 1.0) | odd_values, max_size=3),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2), min_size=2, max_size=2),
    odd_values,
)


@st.composite
def _near_matrix_docs(draw):
    """A valid matrix state file, with floats or ints, now and then with a few pairs or values swapped out."""
    n = draw(st.integers(1, 2))
    if draw(st.booleans()):
        rho = random_density(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n).matrix
        entries = [[z.real, z.imag] for z in rho.ravel().tolist()]
    else:  # |0...0><0...0| written with integers
        entries = [[int(k == 0), 0] for k in range(4**n)]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, 4**n - 1))
        swap = draw(st.integers(0, 2))
        if swap == 0:
            entries[k] = draw(odd_pairs)
        elif isinstance(entries[k], list) and len(entries[k]) == 2:
            part = draw(st.integers(0, 1))
            entries[k][part] = draw(odd_values) if swap == 1 else np.float64(entries[k][part])
    return {"matrix": n, "entries": entries}


def _outcome(load, doc):
    try:
        matrix = load(doc).matrix
    except Exception as exc:  # the two readers must fail alike, whatever the error
        return type(exc), str(exc)
    return matrix.dtype, matrix.shape, matrix.tobytes()


@SETTINGS
@given(_near_matrix_docs())
@example({"matrix": 1, "entries": [[0.5, True], [0.5], [0.0, 0.0], [0.5, 0.0]]})
@example({"matrix": 1, "entries": [[0.5, 0.0], [0.5, 0.0, 0.0], [0.0, None], [0.5, 0.0]]})
@example({"matrix": 1, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 10**400], [0.5, 0.0]]})
@example({"matrix": 1, "entries": [[1, 0], [0, 0], [0, 0], [0, 2**70]]})
@example({"matrix": 1, "entries": [[0.5, 0.0], [0.5, -0.0], [0.5, 0.0], [0.5, 0.0]]})
def test_load_state_reads_entries_as_the_per_entry_loop_does(doc):
    assert _outcome(load_state, doc) == _outcome(_per_entry_load_state, doc)


def _per_term_load_operator(doc) -> HSOperator:
    """``load_operator`` on the terms of an operator file, reading one term at a time.

    Only for documents whose 'n' and 'terms' keys are valid.
    """
    n = doc["n"]
    terms: dict[str, float] = {}
    for item in doc["terms"]:
        if not isinstance(item, dict):
            raise UsageError(f"operator term must be a JSON object, got {type(item).__name__}")
        if set(item) != {"string", "coeff"}:
            raise UsageError("each term must have exactly the keys 'string' and 'coeff'")
        word = item["string"]
        if not isinstance(word, str) or len(word) != n:
            raise UsageError(f"term string must be a length-{n} word, got {word!r}")
        if any(ch not in AXIS_LABELS for ch in word):
            raise UsageError(f"term string {word!r} has letters outside I/X/Y/Z")
        if word in terms:
            raise UsageError(f"duplicate term string {word!r}")
        terms[word] = _reference_real(item["coeff"], f"coefficient of {word!r}")
    return HSOperator(n, terms)


odd_terms = st.sampled_from(
    [None, 5, "XX", [], {"string": "XX"}, {"coeff": 1.0}, {"string": "XX", "coeff": 1.0, "extra": 1}]
)
odd_words = st.sampled_from(["", "XQ", "xx", "x", 5, None, ["X"], "XXXX", "IIII"]) | st.text(max_size=4)


@st.composite
def _near_operator_docs(draw):
    """A valid operator file, now and then with a few terms, words or coefficients swapped out or repeated."""
    n = draw(st.integers(1, 3))
    words = draw(st.lists(st.text(AXIS_LABELS, min_size=n, max_size=n), max_size=8, unique=True))
    terms = [{"string": w, "coeff": draw(st.floats(-2.0, 2.0) | st.integers(-3, 3))} for w in words]
    for _ in range(draw(st.integers(0, 3)) if terms else 0):
        k = draw(st.integers(0, len(terms) - 1))
        swap = draw(st.integers(0, 3))
        if swap == 0:
            terms[k] = draw(odd_terms)
        elif swap == 1 and isinstance(terms[k], dict):
            terms[k]["string"] = draw(odd_words)
        elif swap == 2 and isinstance(terms[k], dict):
            terms[k]["coeff"] = draw(odd_values)
        else:  # a repeated word, wherever it lands
            terms.insert(draw(st.integers(0, len(terms))), {"string": draw(st.sampled_from(words)), "coeff": 0.5})
    return {"n": n, "terms": terms}


def _operator_outcome(load, doc):
    try:
        op = load(doc)
    except Exception as exc:  # the two readers must fail alike, whatever the error
        return type(exc), str(exc)
    return op.n, op.codes.dtype, op.codes.tobytes(), op.coeffs.dtype, op.coeffs.tobytes()


@SETTINGS
@given(_near_operator_docs())
@example({"n": 2, "terms": [{"string": "XX", "coeff": 2**70}, {"string": "ZZ", "coeff": float("nan")}]})
@example({"n": 2, "terms": [{"string": "XX", "coeff": 1.0}, {"string": "YY", "coeff": 10**400}]})
@example({"n": 2, "terms": [{"string": "XX", "coeff": True}, {"string": "XX", "coeff": 1.0}]})
@example({"n": 2, "terms": [{"string": "ZZ", "coeff": 1e-13}, {"string": "XI", "coeff": -0.0}]})
@example({"n": 11, "terms": [{"string": "X" * 11, "coeff": 1.0}]})
@example({"n": 11, "terms": []})
@example({"n": 1, "terms": []})
@example({"n": 2, "terms": [{"string": "XX", "coeff": 1.0}, {"string": ["X"], "coeff": 1.0}]})
@example({"n": 11, "terms": [{"string": "XX", "coeff": 1.0}]})
@example({"n": 2, "terms": [{"string": "XX", "coeff": 10**400}, {"string": "ZZ", "coeff": float("nan")}]})
@example({"n": 2, "terms": [{"string": "XX", "coeff": float("nan")}, {"string": "ZZ", "coeff": 10**400}]})
def test_load_operator_reads_terms_as_the_per_term_loop_does(doc):
    assert _operator_outcome(load_operator, doc) == _operator_outcome(_per_term_load_operator, doc)
