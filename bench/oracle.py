"""Independent reference computations for checking hswit's outputs.

Everything here is written with numpy alone and imports nothing from
hswit, so a fault shared by hswit's modules cannot hide from the checks.
Conventions follow the paper: qubit 0 is the leftmost Kronecker factor,
letters are I, X, Y, Z, and an operator is a table {word: coefficient}.
"""

from __future__ import annotations

import itertools

import numpy as np

PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
AXIS_INDEX = {"X": 0, "Y": 1, "Z": 2}


# ---------------------------------------------------------------------------
# Pauli strings and traces


def word_matrix(word: str) -> np.ndarray:
    """Kronecker product of one Pauli matrix per letter, qubit 0 first."""
    mat = np.ones((1, 1), dtype=complex)
    for ch in word:
        mat = np.kron(mat, PAULI[ch])
    return mat


def all_words(n: int) -> list[str]:
    return ["".join(t) for t in itertools.product("IXYZ", repeat=n)]


def pauli_expectation(rho: np.ndarray, word: str) -> float:
    """Tr(rho sigma_word), computed from the dense Kronecker product."""
    return float(np.real(np.sum(word_matrix(word).T * rho)))


def operator_matrix(terms: dict[str, float]) -> np.ndarray:
    """Dense matrix sum_s c_s sigma_s."""
    n = len(next(iter(terms)))
    total = np.zeros((2**n, 2**n), dtype=complex)
    for word, c in terms.items():
        total += c * word_matrix(word)
    return total


def trace_product(op_matrix: np.ndarray, rho: np.ndarray) -> float:
    """Tr(G rho) for a dense operator matrix and a density matrix."""
    return float(np.real(np.sum(op_matrix.T * rho)))


# ---------------------------------------------------------------------------
# reference states of the paper


def _pure(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def ghz_matrix(n: int) -> np.ndarray:
    vec = np.zeros(2**n)
    vec[0] = vec[-1] = 1.0
    return _pure(vec)


def w_matrix(n: int) -> np.ndarray:
    vec = np.zeros(2**n)
    for k in range(n):
        vec[1 << k] = 1.0
    return _pure(vec)


def cluster4_matrix() -> np.ndarray:
    vec = np.zeros(16)
    vec[0b0000] = vec[0b0011] = vec[0b1100] = 1.0
    vec[0b1111] = -1.0
    return _pure(vec)


def mds_matrix(r: float) -> np.ndarray:
    """8 rho = III + r (XXX + YYY + ZZZ)."""
    return (np.eye(8) + r * operator_matrix({"XXX": 1, "YYY": 1, "ZZZ": 1})) / 8.0


def white_noise(rho: np.ndarray, p: float) -> np.ndarray:
    dim = rho.shape[0]
    return (1.0 - p) / dim * np.eye(dim) + p * rho


# ---------------------------------------------------------------------------
# product states


def bloch_vectors(angles) -> np.ndarray:
    """(n, 3) Bloch vectors from (theta, phi) pairs."""
    out = []
    for theta, phi in angles:
        out.append((np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)))
    return np.array(out, dtype=float)


def product_density(angles) -> np.ndarray:
    """Density matrix of cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> per qubit."""
    vec = np.ones(1, dtype=complex)
    for theta, phi in angles:
        vec = np.kron(vec, [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    return np.outer(vec, vec.conj())


def product_value(terms: dict[str, float], vectors: np.ndarray) -> float:
    """sum_s c_s prod_k v_k[s_k] with v_k[I] = 1, one term at a time."""
    total = 0.0
    for word, c in terms.items():
        prod = 1.0
        for k, ch in enumerate(word):
            if ch != "I":
                prod *= vectors[k][AXIS_INDEX[ch]]
        total += c * prod
    return total


def random_angles(rng: np.random.Generator, n: int) -> tuple[tuple[float, float], ...]:
    """Uniform point on each qubit's Bloch sphere, theta in [0, pi], phi in [0, 2 pi)."""
    theta = np.arccos(rng.uniform(-1.0, 1.0, size=n))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return tuple((float(t), float(p)) for t, p in zip(theta, phi))


def best_sampled_product(terms: dict[str, float], n: int, rng: np.random.Generator, count: int) -> float:
    """Largest value over ``count`` random product states (vectorized)."""
    v = rng.normal(size=(count, n, 3))
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    values = np.zeros(count)
    for word, c in terms.items():
        prod = np.ones(count)
        for k, ch in enumerate(word):
            if ch != "I":
                prod *= v[:, k, AXIS_INDEX[ch]]
        values += c * prod
    return float(values.max())


# ---------------------------------------------------------------------------
# local hidden variable assignments


def measured_pairs(terms: dict[str, float]) -> list[tuple[int, str]]:
    return sorted({(k, ch) for word in terms for k, ch in enumerate(word) if ch != "I"})


def assignment_value(terms: dict[str, float], triples) -> float:
    """Value of the operator when qubit k's X, Y, Z outcomes are triples[k]."""
    total = 0.0
    for word, c in terms.items():
        prod = 1
        for k, ch in enumerate(word):
            if ch != "I":
                prod *= int(triples[k][AXIS_INDEX[ch]])
        total += c * prod
    return total


def best_sampled_assignment(terms: dict[str, float], rng: np.random.Generator, count: int) -> float:
    """Largest value over ``count`` random +/-1 assignments of the measured pairs."""
    pairs = measured_pairs(terms)
    col = {pair: j for j, pair in enumerate(pairs)}
    signs = rng.choice(np.array([-1.0, 1.0]), size=(count, len(pairs)))
    values = np.zeros(count)
    for word, c in terms.items():
        cols = [col[(k, ch)] for k, ch in enumerate(word) if ch != "I"]
        values += c * signs[:, cols].prod(axis=1)
    return float(values.max())


def brute_force_bound(terms: dict[str, float]) -> float:
    """Exact maximum over all 2^m assignments, by a Walsh-Hadamard transform.

    With bit j of an integer a meaning outcome -1 on measured pair j, the
    value at a is sum_t c_t (-1)^{popcount(a & mask_t)}: the Walsh-Hadamard
    transform of the table holding c_t at index mask_t.  The transform
    runs over the low 16 bits for each setting of the high bits, so memory
    stays at 2^16 values whatever m is.
    """
    pairs = measured_pairs(terms)
    m = len(pairs)
    bit = {pair: 1 << j for j, pair in enumerate(pairs)}
    low_bits = min(m, 16)
    low_size = 1 << low_bits
    masks = []
    coeffs = []
    for word, c in terms.items():
        mask = 0
        for k, ch in enumerate(word):
            if ch != "I":
                mask |= bit[(k, ch)]
        masks.append(mask)
        coeffs.append(c)
    masks = np.array(masks, dtype=np.int64)
    coeffs = np.array(coeffs, dtype=float)
    low = masks & (low_size - 1)
    high = masks >> low_bits
    best = -np.inf
    for h in range(1 << (m - low_bits)):
        parity = np.array([bin(int(x)).count("1") & 1 for x in (high & h)])
        table = np.zeros(low_size)
        np.add.at(table, low, coeffs * (1 - 2 * parity))
        span = 1
        while span < low_size:
            view = table.reshape(-1, 2, span)
            a = view[:, 0, :].copy()
            b = view[:, 1, :]
            view[:, 0, :] = a + b
            view[:, 1, :] = a - b
            span *= 2
        best = max(best, float(table.max()))
    return best
