"""Reference states, the operator catalog, and state transformations."""

import dataclasses
import importlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from hswit.hs import hs_decompose, hs_reconstruct
from hswit.pauli_core import DensityMatrix, InvalidStateError
from hswit.states import (
    ENTRY_NAMES,
    MDS_R_LIMIT,
    CatalogEntry,
    ProductState,
    catalog,
    cluster4,
    ghz,
    mds,
    mds_g_operator,
    mix_white_noise,
    w_state,
)

from reference import bloch_vectors, hermitian_eigenvalues, partial_transpose


def test_ghz_amplitudes():
    rho = ghz(3)
    vec = np.zeros(8)
    vec[0] = vec[7] = 1 / np.sqrt(2)
    np.testing.assert_allclose(rho.matrix, np.outer(vec, vec), atol=1e-12)
    with pytest.raises(ValueError):
        ghz(1)


def test_w_state_amplitudes():
    rho = w_state(3)
    vec = np.zeros(8)
    vec[[4, 2, 1]] = 1 / np.sqrt(3)  # one excitation on each qubit in turn
    np.testing.assert_allclose(rho.matrix, np.outer(vec, vec), atol=1e-12)
    with pytest.raises(ValueError):
        w_state(2)


def test_cluster4_amplitudes():
    rho = cluster4()
    vec = np.zeros(16)
    vec[0b0000] = vec[0b0011] = vec[0b1100] = 0.5
    vec[0b1111] = -0.5
    np.testing.assert_allclose(rho.matrix, np.outer(vec, vec), atol=1e-12)


def test_mds_g_operator_terms():
    g = mds_g_operator(0.3)
    assert sorted(g.labels()) == ["XXX", "YYY", "ZZZ"]
    for label in g.labels():
        assert abs(g.coefficient(label) - 0.3) < 1e-15


def test_mds_matrix_from_its_coefficients():
    rho = mds(0.4)
    expected = (np.eye(8) + hs_reconstruct(mds_g_operator(0.4))) / 8
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)


@pytest.mark.parametrize("r", [0.1, 0.2, 1 / 3, 0.5, MDS_R_LIMIT])
def test_mds_spectrum_is_two_fourfold_levels(r):
    # oracle route: numpy eigenvalues, not the in-house solver
    ev = np.linalg.eigvalsh(mds(r).matrix)
    low = (1 - r * np.sqrt(3)) / 8
    high = (1 + r * np.sqrt(3)) / 8
    want = np.sort([low] * 4 + [high] * 4)
    assert np.max(np.abs(ev - want)) < 1e-10


def test_mds_rejects_out_of_range_scale():
    with pytest.raises(InvalidStateError, match="sqrt"):
        mds(0.9)
    with pytest.raises(InvalidStateError):
        mds(-0.9)
    # the sign only flips the two spectral levels; negative scales are states too
    assert mds(-0.1).n == 3


def test_mds_single_qubit_reductions_are_maximally_mixed():
    # every reduction to one or two qubits is maximally mixed exactly when
    # every string of weight 1 or 2 has coefficient 0
    coeffs = hs_decompose(mds(0.5))
    assert coeffs.coefficient("III") == 1.0
    for word in map("".join, itertools.product("IXYZ", repeat=3)):
        if 1 <= 3 - word.count("I") <= 2:
            assert coeffs.coefficient(word) == 0.0, word


@pytest.mark.parametrize("r", [0.2, 1 / 3, 0.5, MDS_R_LIMIT])
def test_mds_partial_transpose_preserves_the_spectrum(r):
    rho = mds(r)
    base = hermitian_eigenvalues(rho.matrix)
    for qubit in range(3):
        flipped = hermitian_eigenvalues(partial_transpose(rho, qubit))
        assert np.max(np.abs(flipped - base)) < 1e-10


def test_partial_transpose_differs_for_an_entangled_pure_state():
    # sanity that the operation does something: a Bell pair gains a
    # negative eigenvalue under partial transposition
    rho = ghz(2)
    ev = np.linalg.eigvalsh(partial_transpose(rho, 0))
    assert ev.min() < -0.4


def test_partial_helpers_validate_qubit_index():
    rho = ghz(2)
    with pytest.raises(ValueError):
        partial_transpose(rho, 2)
    with pytest.raises(ValueError):
        partial_transpose(rho, -1)


def test_mix_white_noise_endpoints_and_exactness():
    rho = ghz(3)
    noisy = mix_white_noise(rho, 0.25)
    assert abs(np.trace(noisy.matrix) - 1.0) == 0.0
    np.testing.assert_array_equal(noisy.matrix, noisy.matrix.conj().T)
    np.testing.assert_allclose(
        mix_white_noise(rho, 1.0).matrix, rho.matrix, atol=0.0
    )
    np.testing.assert_allclose(
        mix_white_noise(rho, 0.0).matrix, np.eye(8) / 8, atol=0.0
    )
    with pytest.raises(ValueError):
        mix_white_noise(rho, 1.5)
    with pytest.raises(ValueError):
        mix_white_noise(rho, -0.1)


@pytest.mark.parametrize("p", [0.0, 0.25, 0.7, 1.0])
def test_mix_white_noise_is_the_identity_formula(cat, p):
    for name, entry in cat.items():
        for rho in (entry.state, DensityMatrix(np.asfortranarray(entry.state.matrix), entry.n)):
            before = rho.matrix.copy()
            noisy = mix_white_noise(rho, p)
            want = (1.0 - p) / rho.dim * np.eye(rho.dim, dtype=complex) + p * rho.matrix
            assert np.array_equal(noisy.matrix, want), name
            assert np.array_equal(rho.matrix, before), name
            assert not np.shares_memory(noisy.matrix, rho.matrix), name


# ---------------------------------------------------------------------------
# product states


def test_product_state_validation():
    ProductState(((0.0, 0.0), (np.pi, 6.28),))
    with pytest.raises(ValueError, match="theta"):
        ProductState(((-0.1, 0.0),))
    with pytest.raises(ValueError, match="phi"):
        ProductState(((0.1, 2 * np.pi),))


def test_bloch_round_trip():
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(3, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    ps = ProductState.from_bloch_vectors(vecs)
    np.testing.assert_allclose(bloch_vectors(ps), vecs, atol=1e-12)
    with pytest.raises(ValueError, match="unit"):
        ProductState.from_bloch_vectors(2 * vecs)


def test_single_qubit_statevector():
    theta, phi = 1.1, 2.3
    ps = ProductState(((theta, phi),))
    want = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    np.testing.assert_allclose(ps.statevector(), want, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_statevector_is_the_kronecker_chain_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    random = [tuple((rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)) for _ in range(n)) for _ in range(3)]
    # the poles theta = 0 and pi and the azimuth phi = 0, alone and among random qubits
    poles = [((0.0, 0.0),) * n, ((np.pi, 0.0),) * n, tuple((rng.choice([0.0, np.pi]), 0.0) for _ in range(n))]
    mixed = [
        tuple(q if k % 2 else (rng.choice([0.0, np.pi]), rng.choice([0.0, q[1]])) for k, q in enumerate(angles))
        for angles in random
    ]
    for angles in random + poles + mixed:
        want = np.ones(1, dtype=complex)
        for theta, phi in angles:
            want = np.kron(want, np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)]))
        # compared as raw bits: np.array_equal alone takes -0.0 for 0.0, and the poles make signed zeros
        assert np.array_equal(ProductState(angles).statevector().view(np.uint64), want.view(np.uint64)), angles


# ---------------------------------------------------------------------------
# catalog


def test_catalog_names_and_order():
    entries = catalog()
    assert list(entries) == ["ghz3", "w3", "ghz4", "w4", "cl4", "mds"]
    for name, entry in entries.items():
        assert entry.name == name
        assert entry.expected


@pytest.fixture(scope="module")
def paper():
    """``bench/paper.py``, the benchmark's own transcription of the paper's entries, imported as it is."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        return importlib.import_module("paper")


def _terms(op):
    return dict(zip(op.labels(), op.coeffs.tolist()))


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_catalog_matches_the_benchmark_transcription(cat, paper, name):
    entry = cat[name]
    assert ENTRY_NAMES == paper.ENTRIES
    assert (None if entry.bell is None else _terms(entry.bell)) == paper.BELL.get(name)
    assert _terms(entry.g_witness) == paper.witness_kernel(name)
    assert list({k: float(v) for k, v in entry.expected.items()}.items()) == list(paper.expected(name).items())
    assert np.max(np.abs(entry.state.matrix - paper.state_matrix(name))) <= 1e-12


def test_catalog_state_coeffs_are_the_decomposition(cat):
    for entry in cat.values():
        want = hs_decompose(entry.state)
        assert np.array_equal(entry.state_coeffs.codes, want.codes)
        assert np.array_equal(entry.state_coeffs.coeffs, want.coeffs)


def test_catalog_entries_store_no_decomposition():
    assert [f.name for f in dataclasses.fields(CatalogEntry)] == ["name", "state", "bell", "g_witness", "expected"]


def test_catalog_decomposes_each_state_on_first_read_only(monkeypatch):
    calls = []

    def counted(rho):
        calls.append(rho)
        return hs_decompose(rho)

    monkeypatch.setattr("hswit.states.hs_decompose", counted)
    entries = catalog()
    assert calls == []
    for entry in entries.values():
        first = entry.state_coeffs
        assert entry.state_coeffs is first
    assert [id(rho) for rho in calls] == [id(entry.state) for entry in entries.values()]
    # a replaced entry is a new object: it decomposes its state afresh
    ghz3 = entries["ghz3"]
    changed = dataclasses.replace(ghz3, expected={**ghz3.expected, "beta_cl": 3})
    assert np.array_equal(changed.state_coeffs.coeffs, ghz3.state_coeffs.coeffs)
    assert len(calls) == len(entries) + 1 and calls[-1] is ghz3.state


def test_catalog_rejects_bad_mds_scale():
    with pytest.raises(ValueError):
        catalog(mds_r=0.0)
    with pytest.raises(ValueError):
        catalog(mds_r=0.9)


def test_bell_support_relations(cat):
    """Each Bell operator's coefficients against the state's own."""
    for name in ("ghz3", "ghz4", "cl4"):
        entry = cat[name]
        for s, b in zip(entry.bell.labels(), entry.bell.coeffs):
            assert abs(b - entry.state_coeffs.coefficient(s)) < 1e-12, (name, s)
    w3 = cat["w3"]
    for s, b in zip(w3.bell.labels(), w3.bell.coeffs):
        r = w3.state_coeffs.coefficient(s)
        assert abs(b - np.sign(r)) < 1e-12, s
        assert abs(abs(r) - (1.0 if s == "ZZZ" else 2 / 3)) < 1e-12
    w4 = cat["w4"]
    for s, b in zip(w4.bell.labels(), w4.bell.coeffs):
        r = w4.state_coeffs.coefficient(s)
        factor = 3.0 if s == "ZZZZ" else 1.0
        assert abs(b - factor * r) < 1e-12, s
    g = cat["mds"].g_witness
    for s, c in zip(g.labels(), g.coeffs):
        assert abs(c - cat["mds"].state_coeffs.coefficient(s)) < 1e-12, s


def test_cl4_support_size(cat):
    coeffs = cat["cl4"].state_coeffs
    non_identity = [s for s in coeffs.labels() if s != "IIII"]
    assert len(non_identity) == 15
    assert coeffs.coefficient("IIII") == 1.0


def test_witness_operators_carry_no_identity_term(cat):
    for entry in cat.values():
        assert entry.g_witness.identity_coefficient == 0.0


def test_w4_documented_coefficients(cat):
    coeffs = cat["w4"].state_coeffs
    assert abs(coeffs.coefficient("ZZZZ") - (-1.0)) < 1e-12
    assert abs(coeffs.coefficient("ZZXX") - 0.5) < 1e-12
    bell = cat["w4"].bell
    assert abs(bell.coefficient("ZZZZ") - (-3.0)) < 1e-12
    assert abs(bell.coefficient("ZZXX") - 0.5) < 1e-12
    assert len(bell) == 13


def test_mds_entry_has_no_bell_operator(cat):
    assert cat["mds"].bell is None
    assert cat["mds"].g_witness.labels() == ["XXX", "YYY", "ZZZ"]


def test_catalog_states_are_valid_density_matrices(cat):
    for entry in cat.values():
        assert isinstance(entry.state, DensityMatrix)
        assert abs(np.trace(entry.state.matrix) - 1.0) < 1e-12
