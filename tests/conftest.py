"""Shared fixtures: the reference catalog, random-state helpers and a dense string oracle."""

import numpy as np
import pytest

from hswit.pauli_core import DensityMatrix
from hswit.states import catalog


@pytest.fixture(scope="session")
def cat():
    """The six reference entries, built once per test run."""
    return catalog()


def random_density(rng: np.random.Generator, n: int) -> DensityMatrix:
    """A random full-rank density matrix (Ginibre construction)."""
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real, n)


@pytest.fixture
def make_density():
    return random_density


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def string_matrix(label: str) -> np.ndarray:
    """Dense matrix of one Pauli string: the Kronecker chain of its letters, qubit 0 first."""
    mat = np.ones((1, 1), dtype=complex)
    for letter in label:
        mat = np.kron(mat, PAULI[letter])
    return mat
