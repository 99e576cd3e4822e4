"""Property tests: the JSON loaders on arbitrary JSON-shaped documents.

Whatever the document, ``load_operator`` and ``load_state`` either
return or raise one of the errors the CLI turns into exit 1 or 2; they
never crash with anything else.  Documents are drawn both at random and
close to the two file formats, so most of them reach the deeper checks.
Examples are derandomized so the suite stays deterministic.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hswit.cli import UsageError, load_operator, load_state, operator_document
from hswit.hs import HSOperator
from hswit.pauli_core import AXIS_LABELS, CapacityError, InvalidStateError
from hswit.states import ENTRY_NAMES

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
    back = load_operator(operator_document(op))
    assert back.n == op.n
    np.testing.assert_array_equal(back.codes, op.codes)
    np.testing.assert_array_equal(back.coeffs, op.coeffs)
