"""Shared fixtures: the reference catalog, the benchmark's generated inputs, random-state helpers,
a dense string oracle and the Mermin family.
"""

import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from hswit.hs import HSOperator
from hswit.pauli_core import DensityMatrix
from hswit.states import catalog

from make_golden import write_inputs


@pytest.fixture(scope="session")
def cat():
    """The six reference entries, built once per test run."""
    return catalog()


@pytest.fixture(scope="session")
def generated_by_seed(tmp_path_factory):
    """``generated_by_seed(seed)``: the directory ``seedSEED`` of input files ``bench/gen.py --seed SEED``
    writes, written once per seed and test run; every seed's directory lies in one parent, as the golden
    file names them."""
    root = tmp_path_factory.mktemp("generated")

    @functools.cache
    def write(seed: int) -> Path:
        out = root / f"seed{seed}"
        write_inputs(seed, out)
        return out

    return write


@pytest.fixture(scope="session")
def generated(generated_by_seed) -> Path:
    """The directory of input files ``bench/gen.py --seed 1`` writes."""
    return generated_by_seed(1)


def random_density(rng: np.random.Generator, n: int) -> DensityMatrix:
    """A random full-rank density matrix (Ginibre construction)."""
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real, n)


@pytest.fixture
def make_density():
    return random_density


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace ``module.<name>`` by a wrapper that records each call's arguments; returns the record."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


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


def mermin(n: int) -> HSOperator:
    """M_n = Re[(X + iY)^(x)n]: every X/Y word with an even number 2j of Y letters, coefficient (-1)^j."""
    words = ("".join(w) for w in itertools.product("XY", repeat=n))
    return HSOperator(n, {w: (-1.0) ** (w.count("Y") // 2) for w in words if w.count("Y") % 2 == 0})
