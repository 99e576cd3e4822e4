"""Pauli basics, the Jacobi eigensolver, and density-matrix validation.

Single strings are built as one-term operators and made dense by
``hs_reconstruct``, the package's only route to a string's matrix, and
checked against the Kronecker chain of the textbook matrices.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hswit.hs import HSOperator, hs_reconstruct
from hswit.pauli_core import (
    AXIS_LABELS,
    EIGENVALUE_FLOOR,
    SIGMA,
    CapacityError,
    DensityMatrix,
    InvalidStateError,
    qubit_cap,
)

from conftest import PAULI, count_calls, random_density, string_matrix
from reference import density_checks, eigvalsh_positivity, hermitian_eigenvalues


def _dense(label: str) -> np.ndarray:
    """The reconstructed matrix of one Pauli string."""
    return hs_reconstruct(HSOperator(len(label), {label: 1.0}))


def _words(n: int) -> list[str]:
    return ["".join(w) for w in itertools.product(AXIS_LABELS, repeat=n)]


def test_pauli_matrices_are_the_textbook_ones():
    for a, letter in enumerate(AXIS_LABELS):
        np.testing.assert_array_equal(SIGMA[a], PAULI[letter])


def test_reconstructed_string_matches_explicit_kron():
    X, Y, Z = PAULI["X"], PAULI["Y"], PAULI["Z"]
    np.testing.assert_array_equal(_dense("XZ"), np.kron(X, Z))
    np.testing.assert_array_equal(_dense("ZYI"), np.kron(Z, np.kron(Y, np.eye(2))))
    for n in (1, 2, 3):
        for word in _words(n):
            np.testing.assert_array_equal(_dense(word), string_matrix(word))


def test_first_letter_acts_on_the_most_significant_bit():
    # ZI is diagonal (+1, +1, -1, -1): the first letter flips sign on the
    # high-order bit, i.e. the leftmost tensor factor.
    np.testing.assert_array_equal(np.diag(_dense("ZI")), [1, 1, -1, -1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_orthogonality_exhaustive(n):
    mats = [_dense(w) for w in _words(n)]
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            want = 2**n if i == j else 0.0
            assert abs(np.trace(a @ b) - want) < 1e-12


@pytest.mark.parametrize("n", [4, 5])
def test_basis_orthogonality_sampled(n):
    rng = np.random.default_rng(2 * n)
    def draw():
        return "".join(AXIS_LABELS[a] for a in rng.integers(0, 4, n))

    for _ in range(50):
        s, t = draw(), draw()
        product = np.trace(_dense(s) @ _dense(t))
        want = 2**n if s == t else 0.0
        assert abs(product - want) < 1e-12
    s = draw()
    assert abs(np.trace(_dense(s) @ _dense(s)) - 2**n) < 1e-12


def test_string_matrices_hermitian_exhaustive_n3():
    for word in _words(3):
        m = _dense(word)
        np.testing.assert_array_equal(m, m.conj().T)


def test_axis_labels_order():
    assert AXIS_LABELS == "IXYZ"


# ---------------------------------------------------------------------------
# eigensolver


def _random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
def test_eigenvalues_match_numpy_oracle(dim):
    rng = np.random.default_rng(dim)
    for scale in (1.0, 1e-3, 1e3):
        h = _random_hermitian(rng, dim, scale)
        got = hermitian_eigenvalues(h)
        want = np.linalg.eigvalsh(h)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, scale)


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 7, 12):
        h = _random_hermitian(rng, dim)
        assert abs(hermitian_eigenvalues(h).sum() - np.trace(h).real) < 1e-8


def test_eigenvalues_of_diagonal_matrix_are_exact():
    d = np.diag([3.0, -1.0, 2.0, 0.5]).astype(complex)
    np.testing.assert_array_equal(hermitian_eigenvalues(d), [-1.0, 0.5, 2.0, 3.0])


def test_eigenvalues_one_by_one_matrix():
    np.testing.assert_array_equal(
        hermitian_eigenvalues(np.array([[4.0 + 0j]])), [4.0]
    )


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_eigenvalues_known_two_by_two():
    # eigenvalues of [[1, 1], [1, -1]] are +/- sqrt(2)
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    got = hermitian_eigenvalues(h)
    np.testing.assert_allclose(got, [-np.sqrt(2), np.sqrt(2)], atol=1e-12)


def test_eigenvalues_complex_offdiagonal():
    h = np.array([[0.0, -2j], [2j, 0.0]])
    np.testing.assert_allclose(hermitian_eigenvalues(h), [-2.0, 2.0], atol=1e-12)


# ---------------------------------------------------------------------------
# density matrices


def test_density_matrix_accepts_valid_mixed_state():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 2)
    assert rho.n == 2
    assert rho.dim == 4
    assert 0.25 <= np.trace(rho.matrix @ rho.matrix).real <= 1.0


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(InvalidStateError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex), 1)
    with pytest.raises(InvalidStateError, match="trace"):
        DensityMatrix(np.eye(2, dtype=complex), 1)
    with pytest.raises(InvalidStateError, match="shape"):
        DensityMatrix(np.eye(4, dtype=complex) / 4, 1)


def test_from_matrix_checks_spectrum():
    good = np.diag([0.7, 0.3]).astype(complex)
    assert DensityMatrix.from_matrix(good).n == 1
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(InvalidStateError, match="negative"):
        DensityMatrix.from_matrix(bad)
    with pytest.raises(InvalidStateError, match="power of two"):
        DensityMatrix.from_matrix(np.eye(3, dtype=complex) / 3)


def test_from_statevector():
    vec = np.array([1, 0, 0, 1j]) / np.sqrt(2)
    rho = DensityMatrix.from_statevector(vec)
    assert rho.n == 2
    assert abs(np.trace(rho.matrix @ rho.matrix) - 1.0) < 1e-12
    with pytest.raises(InvalidStateError, match="norm"):
        DensityMatrix.from_statevector(np.array([1.0, 1.0]))


def _raises_exactly(exc, message):
    return pytest.raises(exc, match=f"^{re.escape(message)}$")


def test_density_matrix_checks_fire_in_order(monkeypatch):
    # cap, shape, finiteness, Hermiticity, trace: each bad matrix also fails every later check
    bad = np.full((3, 3), np.nan)
    monkeypatch.setenv("WITNESS_QUBIT_CAP", "1")
    with _raises_exactly(CapacityError, "2 qubits exceeds the cap of 1 (set WITNESS_QUBIT_CAP to raise it)"):
        DensityMatrix(bad, 2)
    monkeypatch.delenv("WITNESS_QUBIT_CAP")
    with _raises_exactly(InvalidStateError, "expected shape (4, 4) for 2 qubits, got (3, 3)"):
        DensityMatrix(bad, 2)
    mat = np.eye(4, dtype=complex)  # trace 4
    mat[0, 1] = 0.5  # not Hermitian
    for value in (np.nan, np.inf, complex(0.0, -np.inf)):  # an infinity also fails the Hermiticity check
        mat[2, 3] = value
        with _raises_exactly(InvalidStateError, "matrix has non-finite entries"):
            DensityMatrix(mat, 2)
    mat[2, 3] = 0.0
    with _raises_exactly(InvalidStateError, "matrix is not Hermitian"):
        DensityMatrix(mat, 2)
    mat[0, 1] = 0.0
    with _raises_exactly(InvalidStateError, f"trace must be 1, got {np.trace(mat)}"):
        DensityMatrix(mat, 2)
    # a trace that sums to NaN is refused by the trace check, before positivity is looked at
    split = np.diag([1e308] * 64 + [-1e308] * 64).astype(complex)
    for check in (lambda m: DensityMatrix(m, 7), DensityMatrix.from_matrix):
        with _raises_exactly(InvalidStateError, "trace must be 1, got (nan+0j)"):
            check(split)


@pytest.mark.parametrize("offset", [2e-10, -2e-10])
def test_density_matrix_tolerances_reject_2e_10(offset):
    base = np.full((4, 4), 0.1, dtype=complex) + np.diag(np.full(4, 0.15))
    DensityMatrix(base, 2)
    skew = base.copy()
    skew[1, 2] += offset * 1j
    with _raises_exactly(InvalidStateError, "matrix is not Hermitian"):
        DensityMatrix(skew, 2)
    skew[1, 2] = base[1, 2] + offset / 4 * 1j  # within HERMITIAN_ATOL
    DensityMatrix(skew, 2)
    heavy = base.copy()
    heavy[3, 3] += offset
    with _raises_exactly(InvalidStateError, f"trace must be 1, got {np.trace(heavy)}"):
        DensityMatrix(heavy, 2)
    heavy[3, 3] = base[3, 3] + offset / 4  # within TRACE_ATOL
    DensityMatrix(heavy, 2)


@pytest.mark.parametrize("scale", [1 + 2e-10, 1 - 2e-10])
def test_from_statevector_rejects_a_norm_off_by_2e_10_and_prints_it(scale):
    for vec in (np.array([1.0, 0.0]), np.array([0.6, 0.0, 0.0, 0.8j]), np.full(8, (1 + 1j) / 4)):
        vec = vec * scale
        with _raises_exactly(InvalidStateError, f"vector norm must be 1, got {np.linalg.norm(vec)}"):
            DensityMatrix.from_statevector(vec)
    with _raises_exactly(InvalidStateError, "vector length must be a power of two >= 2, got 3"):
        DensityMatrix.from_statevector(np.ones(3) / np.sqrt(3))


def test_from_statevector_is_the_outer_product():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        vec /= np.linalg.norm(vec)
        assert np.array_equal(DensityMatrix.from_statevector(vec).matrix, np.outer(vec, vec.conj()))


def test_qubit_cap_env_override(monkeypatch):
    monkeypatch.delenv("WITNESS_QUBIT_CAP", raising=False)
    assert qubit_cap() == 10
    monkeypatch.setenv("WITNESS_QUBIT_CAP", "2")
    assert qubit_cap() == 2
    with pytest.raises(CapacityError, match="exceeds the cap"):
        DensityMatrix(np.eye(8, dtype=complex) / 8, 3)
    monkeypatch.setenv("WITNESS_QUBIT_CAP", "abc")
    with pytest.raises(CapacityError):
        qubit_cap()
    monkeypatch.setenv("WITNESS_QUBIT_CAP", "0")
    with pytest.raises(CapacityError):
        qubit_cap()


def _outcome(check, *args):
    """The type and message of the error ``check(*args)`` raises, or None when it returns."""
    try:
        check(*args)
    except (InvalidStateError, CapacityError) as exc:
        return type(exc), str(exc)
    return None


# NaN and infinities; finite values that overflow a residual or a trace; finite values that break
# Hermiticity or the trace by a little or a lot
SPECIAL_ENTRIES = (np.nan, np.inf, -np.inf, 1e308, -1e308, 0.5, -0.25, 3e-10, 5e-11)


@st.composite
def edited_states(draw):
    """A random 1-3 qubit state with up to four real or imaginary parts overwritten by special entries,
    each edit copied to its mirror entry or not, and the result perhaps scaled off unit trace."""
    n = draw(st.integers(1, 3))
    mat = random_density(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n).matrix.copy()
    index = st.integers(0, 2**n - 1)
    edit = st.tuples(index, index, st.booleans(), st.booleans(), st.sampled_from(SPECIAL_ENTRIES))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j, imaginary, mirror, value in draw(st.lists(edit, max_size=4)):
            (mat.imag if imaginary else mat.real)[i, j] = value
            if mirror:
                mat[j, i] = np.conj(mat[i, j])
        mat *= draw(st.sampled_from((1.0, 1.0 + 4e-10, 3.0, 1e300)))
    return n, mat


@settings(derandomize=True, max_examples=400, deadline=None)
@given(edited_states())
@example((1, np.diag([1e308, 1e308]).astype(complex)))  # the trace overflows
@example((2, np.diag([1e308, 1e308, -1e308, 1.0]).astype(complex)))  # the trace overflows past entries of both signs
@example((7, np.diag([1e308] * 64 + [-1e308] * 64).astype(complex)))  # the pairwise trace sums inf and -inf to NaN
def test_density_checks_report_what_the_plain_order_reports(case):
    # the constructor computes the Hermiticity residual first and names a failure afterwards; the oracle
    # runs the checks one full pass each, finiteness first
    n, mat = case
    assert _outcome(DensityMatrix, mat, n) == _outcome(density_checks, mat, n)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("imaginary", [False, True], ids=["real", "imag"])
def test_a_non_finite_entry_anywhere_is_named_first(value, imaginary):
    # every position of a two-qubit matrix that is also asymmetric and off unit trace
    for i, j in itertools.product(range(4), repeat=2):
        mat = np.eye(4, dtype=complex)
        mat[3, 0] = 0.5
        (mat.imag if imaginary else mat.real)[i, j] = value
        assert _outcome(DensityMatrix, mat, 2) == (InvalidStateError, "matrix has non-finite entries")
        assert _outcome(density_checks, mat, 2) == _outcome(DensityMatrix, mat, 2)


def test_finite_overflows_are_compared_without_a_warning():
    # pytest turns RuntimeWarnings into errors, so a warning would fail these
    skew = np.array([[0.5, 1e308], [-1e308, 0.5]], dtype=complex)  # the residual overflows
    assert _outcome(DensityMatrix, skew, 1) == (InvalidStateError, "matrix is not Hermitian")
    heavy = np.diag([1e308, 1e308]).astype(complex)  # the trace overflows
    assert _outcome(DensityMatrix, heavy, 1) == (InvalidStateError, "trace must be 1, got (inf+0j)")
    for mat in (skew, heavy):
        assert _outcome(DensityMatrix.from_matrix, mat) == _outcome(density_checks, mat, 1)


def _with_smallest_eigenvalue(rng, n, smallest):
    """A random Hermitian unit-trace matrix whose eigenvalues are ``smallest`` and d - 1 values in (0, 1)."""
    dim = 2**n
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    lam = rng.uniform(0.5, 1.5, size=dim)
    lam[0] = 0.0
    lam *= (1.0 - smallest) / lam.sum()
    lam[0] = smallest
    mat = (q * lam) @ q.conj().T
    return (mat + mat.conj().T) / 2


def _pure(rng, n):
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return DensityMatrix.from_statevector(vec / np.linalg.norm(vec)).matrix


@pytest.mark.parametrize("n", range(1, 8))
def test_positivity_decides_as_eigvalsh_at_the_floor(n):
    rng = np.random.default_rng(100 + n)
    cases = [
        (_with_smallest_eigenvalue(rng, n, EIGENVALUE_FLOOR + offset), offset > 0)
        for offset in (1e-11, -1e-11, 1e-12, -1e-12)
    ]
    cases += [(_pure(rng, n), True), (_with_smallest_eigenvalue(rng, n, -0.05), False)]
    for mat, accepted in cases:
        want = _outcome(eigvalsh_positivity, DensityMatrix(mat, n))
        assert (want is None) == accepted
        assert _outcome(DensityMatrix.from_matrix, mat) == want


def test_a_large_norm_matrix_skips_the_factorization(monkeypatch):
    # ||rho||_F = sqrt(2) * 1e6 puts delta = 12 * eps * ||rho||_F above |EIGENVALUE_FLOOR|
    mat = np.array([[0.5, 1e6], [1e6, 0.5]], dtype=complex)
    want = _outcome(eigvalsh_positivity, DensityMatrix(mat, 1))
    assert want == (InvalidStateError, f"matrix has a negative eigenvalue {np.linalg.eigvalsh(mat)[0]}")
    cholesky = count_calls(monkeypatch, np.linalg, "cholesky")
    eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
    assert _outcome(DensityMatrix.from_matrix, mat) == want
    assert (len(cholesky), len(eigvalsh)) == (0, 1)


def test_eigvalsh_runs_only_on_a_refused_matrix(monkeypatch):
    rng = np.random.default_rng(5)
    accepted = [random_density(rng, n).matrix for n in range(1, 8)] + [_pure(rng, n) for n in range(1, 8)]
    refused = _with_smallest_eigenvalue(rng, 3, -0.05)
    eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
    for mat in accepted:
        DensityMatrix.from_matrix(mat)
    assert len(eigvalsh) == 0
    with pytest.raises(InvalidStateError, match="negative eigenvalue"):
        DensityMatrix.from_matrix(refused)
    assert len(eigvalsh) == 1
