"""Coefficient algebra: decomposition, reconstruction, overlaps.

The decomposition route is cross-checked against the direct definition,
computing each coefficient as Tr(rho sigma_s) with explicitly built
string matrices.
"""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from hswit import hs
from hswit.hs import HSOperator, hs_decompose, hs_reconstruct, overlap
from hswit.pauli_core import AXIS_LABELS, SIGMA, DensityMatrix
from hswit.states import ProductState, ghz, product_state, w_state

from conftest import random_density, string_matrix
from reference import bloch_vectors, is_close, relabel

# Every nonzero coefficient of the three-qubit single-excitation state,
# derived by hand from the amplitudes and frozen here.  The diagonal
# (I/Z-only) part follows from the computational-basis populations; each
# XX/YY pair on two qubits hops the excitation between them.
W3_TABLE = {
    "III": 1.0,
    "ZXX": 2 / 3, "XZX": 2 / 3, "XXZ": 2 / 3,
    "ZYY": 2 / 3, "YZY": 2 / 3, "YYZ": 2 / 3,
    "ZZZ": -1.0,
    "XXI": 2 / 3, "XIX": 2 / 3, "IXX": 2 / 3,
    "YYI": 2 / 3, "YIY": 2 / 3, "IYY": 2 / 3,
    "ZZI": -1 / 3, "ZIZ": -1 / 3, "IZZ": -1 / 3,
    "ZII": 1 / 3, "IZI": 1 / 3, "IIZ": 1 / 3,
}

# The three-qubit GHZ state: all-X and the XYY permutations (negative),
# plus the diagonal ZZ pairs.
GHZ3_TABLE = {
    "III": 1.0,
    "XXX": 1.0,
    "XYY": -1.0, "YXY": -1.0, "YYX": -1.0,
    "ZZI": 1.0, "ZIZ": 1.0, "IZZ": 1.0,
}


def _words(n: int) -> list[str]:
    return ["".join(w) for w in itertools.product(AXIS_LABELS, repeat=n)]


def _trace_coefficient(rho, label: str) -> float:
    value = np.trace(rho.matrix @ string_matrix(label))
    assert abs(value.imag) < 1e-12
    return value.real


def test_w3_coefficients_match_frozen_table():
    coeffs = hs_decompose(w_state(3))
    assert set(coeffs.labels()) == set(W3_TABLE)
    for label, want in W3_TABLE.items():
        assert abs(coeffs.coefficient(label) - want) < 1e-12, label


def test_w3_frozen_table_matches_direct_traces():
    rho = w_state(3)
    for label, want in W3_TABLE.items():
        got = _trace_coefficient(rho, label)
        assert abs(got - want) < 1e-12, label


def test_ghz3_coefficients_match_frozen_table():
    coeffs = hs_decompose(ghz(3))
    assert set(coeffs.labels()) == set(GHZ3_TABLE)
    for label, want in GHZ3_TABLE.items():
        assert abs(coeffs.coefficient(label) - want) < 1e-12, label


def test_ghz2_is_the_standard_bell_decomposition():
    coeffs = hs_decompose(ghz(2))
    want = {"II": 1.0, "XX": 1.0, "YY": -1.0, "ZZ": 1.0}
    assert set(coeffs.labels()) == set(want)
    for label, value in want.items():
        assert abs(coeffs.coefficient(label) - value) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_decompose_equals_direct_traces_on_random_states(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(5):
        rho = random_density(rng, n)
        coeffs = hs_decompose(rho)
        for label in _words(n):
            want = _trace_coefficient(rho, label)
            assert abs(coeffs.coefficient(label) - want) < 1e-10


def _einsum_decompose(rho) -> np.ndarray:
    """All 4^n traces as one einsum over the per-qubit indices, its path searched per call."""
    n = rho.n
    # index layout: rows r_k = k, columns c_k = n + k, axes a_k = 2n + k
    operands: list = [rho.matrix.reshape((2,) * (2 * n)), list(range(2 * n))]
    for k in range(n):
        operands.extend([SIGMA, [2 * n + k, n + k, k]])
    operands.append([2 * n + k for k in range(n)])
    return np.einsum(*operands, optimize=True).real


@pytest.mark.parametrize("n", range(1, 9))
def test_decompose_equals_the_searched_einsum(n):
    # the per-qubit contraction must equal the one-einsum decomposition bit for bit
    rho = random_density(np.random.default_rng(20 + n), n)
    want = HSOperator.from_dense(_einsum_decompose(rho))
    coeffs = hs_decompose(rho)
    np.testing.assert_array_equal(coeffs.codes, want.codes)
    np.testing.assert_array_equal(coeffs.coeffs, want.coeffs)


def _einsum_reconstruct(op) -> np.ndarray:
    """The dense matrix as one einsum over the per-qubit indices, its path searched per call."""
    n = op.n
    dense = np.zeros(4**n)
    dense[op.codes] = op.coeffs
    # index layout: rows r_k = k, columns c_k = n + k, axes a_k = 2n + k
    operands: list = [dense.reshape((4,) * n), [2 * n + k for k in range(n)]]
    for k in range(n):
        operands.extend([SIGMA, [2 * n + k, k, n + k]])
    operands.append(list(range(2 * n)))
    return np.einsum(*operands, optimize=True).reshape(2**n, 2**n)


@pytest.mark.parametrize("n", range(1, 9))
def test_reconstruct_equals_the_searched_einsum(n):
    # the per-qubit contraction must equal the one-einsum reconstruction bit for bit
    op = hs_decompose(random_density(np.random.default_rng(40 + n), n))
    np.testing.assert_array_equal(hs_reconstruct(op), _einsum_reconstruct(op))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_round_trip_reproduces_the_state(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(50):
        rho = random_density(rng, n)
        recon = hs_reconstruct(hs_decompose(rho)) / 2**n
        assert np.max(np.abs(recon - rho.matrix)) < 1e-10


def test_overlap_equals_direct_trace():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3):
        for _ in range(10):
            rho = random_density(rng, n)
            labels = _words(n)
            picks = rng.choice(len(labels), size=min(6, len(labels)), replace=False)
            terms = {labels[i]: float(rng.normal()) for i in picks}
            op = HSOperator(n, terms)
            got = overlap(op, hs_decompose(rho))
            want = np.trace(hs_reconstruct(op) @ rho.matrix).real
            assert abs(got - want) < 1e-9


def _searched_values(table: HSOperator, codes: np.ndarray) -> np.ndarray:
    """Coefficients of ``table`` at ``codes`` by binary search, 0.0 where absent: the reference for a dense table's read."""
    out = np.zeros(len(codes))
    idx = np.minimum(np.searchsorted(table.codes, codes), len(table.codes) - 1)
    hit = table.codes[idx] == codes
    out[hit] = table.coeffs[idx[hit]]
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_overlap_reads_dense_and_sparse_tables_as_the_search_does(n):
    rng = np.random.default_rng(n)
    dense = hs_decompose(random_density(rng, n))  # full rank: every code present
    sparse = hs_decompose(DensityMatrix.from_statevector(np.eye(2**n)[0]))  # |0...0>: the 2^n I/Z strings
    assert len(dense) == 4**n and len(sparse) < 4**n
    for terms in (1, 7, 4**n):
        table = np.zeros(4**n)
        table[rng.choice(4**n, size=min(terms, 4**n), replace=False)] = rng.normal(size=min(terms, 4**n))
        op = HSOperator.from_dense(table.reshape((4,) * n))
        for state_coeffs in (dense, sparse):
            assert overlap(op, state_coeffs) == float(op.coeffs @ _searched_values(state_coeffs, op.codes))


def test_product_state_coefficients_factorize():
    rng = np.random.default_rng(3)
    thetas = rng.uniform(0, np.pi, 3)
    phis = rng.uniform(0, 2 * np.pi, 3)
    ps = ProductState(tuple(zip(thetas, phis)))
    coeffs = hs_decompose(product_state(ps))
    blochs = bloch_vectors(ps)
    factors = [np.concatenate(([1.0], b)) for b in blochs]
    for label in _words(3):
        axes = [AXIS_LABELS.index(letter) for letter in label]
        want = factors[0][axes[0]] * factors[1][axes[1]] * factors[2][axes[2]]
        assert abs(coeffs.coefficient(label) - want) < 1e-10


# ---------------------------------------------------------------------------
# operator container behavior


def test_operator_takes_uppercase_labels_only():
    op = HSOperator(2, {"XX": 1.0, "ZZ": 2.0, "IZ": 0.5})
    assert [op.coefficient(w) for w in ("XX", "ZZ", "IZ", "YY")] == [1.0, 2.0, 0.5, 0.0]
    assert len(op) == 3
    for key in [(3, 3), "iz", "XQ", 5, None]:  # keys are uppercase labels only
        with pytest.raises(ValueError, match=re.escape(f"labels may only contain I, X, Y, Z, got {key!r}")):
            HSOperator(2, {"XX": 1.0, key: 1.0})
    for label in [(3, 3), "zz"]:
        with pytest.raises(ValueError, match="labels may only contain"):
            op.coefficient(label)


def test_operator_rejects_bad_terms():
    with pytest.raises(ValueError, match="expected 2"):
        HSOperator(2, {"XXX": 1.0})
    with pytest.raises(ValueError, match="expected 2"):
        HSOperator(2, {"XX": 1.0}).coefficient("X")
    with pytest.raises(ValueError, match="real"):
        HSOperator(2, {"XX": 1.0 + 2.0j})


def test_operator_rejects_bool_coefficients():
    # bool is a numbers.Real, but True is no coefficient; the CLI rejects it too
    for flag in (True, False):
        with pytest.raises(ValueError, match="must be real"):
            HSOperator(2, {"XZ": flag})


def test_operator_checks_the_qubit_count_before_the_labels():
    for n in (0, -1):
        with pytest.raises(ValueError, match="qubit count must be at least 1"):
            HSOperator(n, {"": 1.0})


def test_operator_prunes_negligible_coefficients():
    op = HSOperator(2, {"XX": 1.0, "YY": 1e-13})
    assert op.labels() == ["XX"]
    assert op.coefficient("YY") == 0.0


def test_terms_iterate_in_word_order():
    op = HSOperator(2, {"ZZ": 1.0, "IX": 2.0, "XI": 3.0, "II": 4.0})
    assert op.labels() == ["II", "IX", "XI", "ZZ"]
    assert op.labels(op.coeffs >= 2.5) == ["II", "XI"]
    assert op.labels(np.zeros(4, dtype=bool)) == []


@pytest.mark.parametrize("bound", [64, hs.BLOCK_ELEMENTS])
def test_labels_spell_every_code_block_by_block(monkeypatch, bound):
    # at 64 entries a block holds 64 // n codes, so most tables end on a partial block
    monkeypatch.setattr(hs, "BLOCK_ELEMENTS", bound)
    rng = np.random.default_rng(4)
    for n in range(1, 11):
        codes = np.arange(4**n) if n <= 6 else np.unique(rng.integers(0, 4**n, size=3000))
        want = ["".join(AXIS_LABELS[c >> 2 * (n - 1 - q) & 3] for q in range(n)) for c in codes.tolist()]
        assert hs._labels(codes, n) == want, n
    assert hs._labels(np.arange(0), 3) == []


def test_labels_stay_within_the_block_bound(monkeypatch):
    # a dense table at n = 8 is 65,536 codes, 128 blocks at this bound; only the labels returned grow with it
    bound = 2**12
    monkeypatch.setattr(hs, "BLOCK_ELEMENTS", bound)
    codes = np.arange(4**8)
    tracemalloc.start()
    try:
        labels = hs._labels(codes, 8)
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(labels) == 4**8
    # a block's shifted codes, its axis table and its letters as text: a few arrays of at most `bound` entries
    assert peak - result <= 4 * 8 * bound


def test_identity_coefficient_and_support():
    op = HSOperator(2, {"II": 0.25, "ZZ": -1.0})
    assert op.identity_coefficient == 0.25
    assert op.labels() == ["II", "ZZ"]
    assert HSOperator(2, {"ZZ": -1.0}).identity_coefficient == 0.0


def test_operator_algebra():
    a = HSOperator(2, {"XX": 1.0, "ZZ": 1.0})
    b = HSOperator(2, {"XX": 1.0, "YY": -2.0})
    total = a + b
    assert total.coefficient("XX") == 2.0
    assert total.coefficient("YY") == -2.0
    assert total.coefficient("ZZ") == 1.0
    diff = a - b
    assert diff.coefficient("XX") == 0.0
    assert diff.coefficient("YY") == 2.0
    assert (-a).coefficient("ZZ") == -1.0
    assert (3.0 * a).coefficient("XX") == 3.0
    assert (a * 3.0).coefficient("XX") == 3.0
    with pytest.raises(ValueError, match="qubits"):
        a + HSOperator(3, {"XXX": 1.0})


def test_relabel_permutes_axes():
    op = HSOperator(2, {"XY": 1.0, "ZI": 2.0})
    mapped = relabel(op, {1: 2, 2: 3, 3: 1})
    assert mapped.coefficient("YZ") == 1.0
    assert mapped.coefficient("XI") == 2.0
    with pytest.raises(ValueError, match="permutation"):
        relabel(op, {1: 1, 2: 1, 3: 3})
    with pytest.raises(ValueError, match="permutation"):
        relabel(op, {1: 2})


def test_is_close():
    a = HSOperator(2, {"XX": 1.0})
    b = HSOperator(2, {"XX": 1.0 + 5e-10})
    c = HSOperator(2, {"XX": 1.0, "YY": 0.1})
    assert is_close(a, b)
    assert not is_close(a, c)
    assert not is_close(a, HSOperator(3, {"XXX": 1.0}))


def test_overlap_requires_matching_width():
    a = HSOperator(2, {"XX": 1.0})
    b = HSOperator(3, {"XXX": 1.0})
    with pytest.raises(ValueError, match="qubit count"):
        overlap(a, b)
