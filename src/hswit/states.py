"""Reference states, their operators, and state-manipulation helpers.

The catalog pairs each reference state with its Bell operator (when one
is known), its witness operator kernel G, and the expected benchmark
numbers those operators must reproduce.  Five entries are rows of one
table, built by one path; the mds entry, whose operators and numbers
depend on its mixing coefficient, has a builder of its own.  Operator
tables are transcribed constants: the W(4) operator carries a Z^4
coefficient three times the state's, so deriving the tables from state
coefficients is wrong in general.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .hs import HSOperator, hs_decompose, hs_reconstruct
from .pauli_core import Array, DensityMatrix, InvalidStateError, check_qubit_count

MDS_R_LIMIT = 1.0 / np.sqrt(3.0)


def ghz(n: int) -> DensityMatrix:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    check_qubit_count(n)
    if n < 2:
        raise ValueError("a GHZ state needs at least 2 qubits")
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = vec[-1] = 1.0 / np.sqrt(2.0)
    return DensityMatrix.from_statevector(vec)


def w_state(n: int) -> DensityMatrix:
    """Equal superposition of the n single-excitation basis states."""
    check_qubit_count(n)
    if n < 3:
        raise ValueError("a W state needs at least 3 qubits")
    vec = np.zeros(2**n, dtype=complex)
    for k in range(n):
        vec[1 << (n - 1 - k)] = 1.0 / np.sqrt(n)
    return DensityMatrix.from_statevector(vec)


def cluster4() -> DensityMatrix:
    """(|0000> + |0011> + |1100> - |1111>)/2, the four-qubit linear cluster."""
    vec = np.zeros(16, dtype=complex)
    vec[0b0000] = vec[0b0011] = vec[0b1100] = 0.5
    vec[0b1111] = -0.5
    return DensityMatrix.from_statevector(vec)


def mds_g_operator(r: float) -> HSOperator:
    """r * (XXX + YYY + ZZZ), the witness kernel for the mds family."""
    return HSOperator(3, {"XXX": r, "YYY": r, "ZZZ": r})


def mds(r: float) -> DensityMatrix:
    """Three-qubit mixed state 8 rho = III + r (XXX + YYY + ZZZ).

    Its eigenvalues are (1 +/- r sqrt(3))/8, four of each, so the matrix
    is a state exactly when |r| <= 1/sqrt(3).
    """
    return _mds_state(r)


def _mds_state(r: float, g: HSOperator | None = None) -> DensityMatrix:
    """``mds(r)``, from its kernel ``g`` = ``mds_g_operator(r)`` where the caller has built it."""
    if not abs(r) <= MDS_R_LIMIT + 1e-12:  # NaN too, before the kernel's own check names a coefficient
        raise InvalidStateError(f"mds requires |r| <= 1/sqrt(3) ~ {MDS_R_LIMIT:.6f}, got {r}")
    mat = (np.eye(8, dtype=complex) + hs_reconstruct(mds_g_operator(r) if g is None else g)) / 8.0
    return DensityMatrix(mat, 3)


@dataclass(frozen=True)
class ProductState:
    """A pure product state, one (theta, phi) Bloch pair per qubit.

    theta in [0, pi] is the polar angle from +z, phi in [0, 2 pi) the
    azimuth; the qubit vector is cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.
    """

    angles: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.angles) == 0:
            raise ValueError("a product state needs at least 1 qubit")
        check_qubit_count(len(self.angles))
        for theta, phi in self.angles:
            if not 0.0 <= theta <= np.pi:
                raise ValueError(f"theta must lie in [0, pi], got {theta}")
            if not 0.0 <= phi < 2.0 * np.pi:
                raise ValueError(f"phi must lie in [0, 2 pi), got {phi}")

    @classmethod
    def from_bloch_vectors(cls, vectors: Array) -> ProductState:
        """Build from an (n, 3) array of unit Bloch vectors."""
        vecs = np.asarray(vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[1] != 3:
            raise ValueError(f"expected an (n, 3) array, got shape {vecs.shape}")
        norms = np.linalg.norm(vecs, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("Bloch vectors must have unit norm")
        angles = []
        for x, y, z in vecs:
            theta = float(np.arccos(np.clip(z, -1.0, 1.0)))
            phi = float(np.arctan2(y, x)) % (2.0 * np.pi)
            if phi >= 2.0 * np.pi:  # a tiny negative atan2 can wrap to exactly 2*pi
                phi = 0.0
            angles.append((theta, phi))
        return cls(tuple(angles))

    @property
    def n(self) -> int:
        return len(self.angles)

    def statevector(self) -> Array:
        """The 2^n amplitudes, qubit A most significant.

        Each amplitude multiplies its qubits' amplitudes in qubit order,
        the order of the Kronecker chain, so the vector is that chain's
        bit for bit.
        """
        theta, phi = np.array(self.angles).T
        half = theta / 2.0
        amps = np.empty((self.n, 2), dtype=complex)
        amps[:, 0] = np.cos(half)
        amps[:, 1] = np.exp(1j * phi) * np.sin(half)
        return amps.ravel()[_amplitude_picks(self.n)].prod(axis=0)


@functools.cache
def _amplitude_picks(n: int) -> Array:
    """(n, 2^n) indices into the flat (n, 2) amplitude table: row k picks qubit k's bit of each basis index."""
    bits = (np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1
    picks = 2 * np.arange(n)[:, None] + bits
    picks.flags.writeable = False
    return picks


def product_state(ps: ProductState) -> DensityMatrix:
    return DensityMatrix.from_statevector(ps.statevector())


def mix_white_noise(rho: DensityMatrix, p: float) -> DensityMatrix:
    """(1 - p)/2^n * identity + p * rho.

    p = 1 returns the state itself, p = 0 the maximally mixed state.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    mat = np.multiply(p, rho.matrix, order="C")  # C order: ravel() is a view, the diagonal every (dim + 1)th entry
    mat.ravel()[:: rho.dim + 1] += (1.0 - p) / rho.dim
    return DensityMatrix(mat, rho.n)


@dataclass(frozen=True)
class CatalogEntry:
    """One reference state with its operators and expected benchmarks.

    ``state_coeffs`` is the state's decomposition, computed on first read
    and kept on the entry; a copy made by ``dataclasses.replace``
    decomposes afresh.  ``bell`` is None when no Bell operator is part of
    the benchmark (the mds family is treated through its witness only).
    ``expected`` maps report fields to exact values (Fraction where
    rational), in the order ``report`` and ``verify`` print them; a
    missing key means the benchmark does not pin that quantity for this
    entry.
    """

    name: str
    state: DensityMatrix
    bell: HSOperator | None
    g_witness: HSOperator
    expected: Mapping[str, Fraction | float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.state.n

    @functools.cached_property
    def state_coeffs(self) -> HSOperator:
        return hs_decompose(self.state)


# One row per transcribed entry, in ENTRY_NAMES order: the state's constructor, the Bell operator's
# terms, the terms G adds to the Bell operator (none: G is the Bell operator), and the expected numbers.
_HALF = Fraction(1, 2)
_TABLE = {
    "ghz3": (
        functools.partial(ghz, 3),
        {"XXX": 1, "XYY": -1, "YXY": -1, "YYX": -1},
        {"ZZI": 1},
        {
            "beta_cl": Fraction(2),
            "beta_qu": Fraction(4),
            "pcrit_bell": Fraction(1, 2),
            "alpha": Fraction(1),
            "trace_g_rho": Fraction(5),
            "witness_value": Fraction(-4),
            "pcrit_witness": Fraction(1, 5),
        },
    ),
    "w3": (
        functools.partial(w_state, 3),
        {"ZXX": 1, "XZX": 1, "XXZ": 1, "ZZZ": -1},
        {"YYI": 1},
        {
            "beta_cl": Fraction(2),
            "beta_qu": Fraction(3),
            "pcrit_bell": Fraction(2, 3),
            "alpha": Fraction(1),
            "trace_g_rho": Fraction(11, 3),
            "witness_value": Fraction(-8, 3),
            "pcrit_witness": Fraction(3, 11),
        },
    ),
    "ghz4": (
        functools.partial(ghz, 4),
        {
            "XXXX": 1,
            "YYYY": 1,
            "XXYY": -1,
            "XYXY": -1,
            "XYYX": -1,
            "YXXY": -1,
            "YXYX": -1,
            "YYXX": -1,
        },
        {"ZZZZ": 1},
        {
            "beta_cl": Fraction(4),
            "beta_qu": Fraction(8),
            "pcrit_bell": Fraction(1, 2),
            "alpha": Fraction(1),
            "trace_g_rho": Fraction(9),
            "witness_value": Fraction(-8),
            "pcrit_witness": Fraction(1, 9),
        },
    ),
    "w4": (
        functools.partial(w_state, 4),
        {
            "ZZZZ": -3,
            "ZZXX": _HALF,
            "ZXZX": _HALF,
            "ZXXZ": _HALF,
            "XZXZ": _HALF,
            "XZZX": _HALF,
            "XXZZ": _HALF,
            "ZZYY": _HALF,
            "ZYZY": _HALF,
            "ZYYZ": _HALF,
            "YZYZ": _HALF,
            "YZZY": _HALF,
            "YYZZ": _HALF,
        },
        {},
        {
            "beta_cl": Fraction(5),
            "beta_qu": Fraction(6),
            "pcrit_bell": Fraction(5, 6),
            "alpha": Fraction(3),
            "trace_g_rho": Fraction(6),
            "witness_value": Fraction(-3),
            "pcrit_witness": Fraction(1, 2),
        },
    ),
    "cl4": (
        cluster4,
        {
            "XYXY": 1,
            "XYYX": 1,
            "YXXY": 1,
            "YXYX": 1,
            "XXZI": 1,
            "XXIZ": 1,
            "YYZI": -1,
            "YYIZ": -1,
        },
        {},
        {
            "beta_cl": Fraction(4),
            "beta_qu": Fraction(8),
            "pcrit_bell": Fraction(1, 2),
            "alpha": Fraction(2),
            "trace_g_rho": Fraction(8),
            "witness_value": Fraction(-6),
            "pcrit_witness": Fraction(1, 4),
        },
    ),
}


def _mds_entry(name: str, r: float) -> CatalogEntry:
    g = mds_g_operator(r)
    return CatalogEntry(
        name,
        _mds_state(r, g),
        None,
        g,
        {
            "alpha": r,
            "trace_g_rho": 3.0 * r * r,
            "witness_value": r - 3.0 * r * r,
            "pcrit_witness": 1.0 / (3.0 * r),
            "threshold_r": Fraction(1, 3),
        },
    )


ENTRY_NAMES = (*_TABLE, "mds")


def catalog_entry(name: str, mds_r: float = 0.5) -> CatalogEntry:
    """The reference entry ``name``, one of ENTRY_NAMES, built alone.

    ``mds_r`` sets the mixing coefficient of the mds entry; it is checked
    whatever the name, and must be positive so the witness-side numbers
    are defined.
    """
    if not 0.0 < mds_r <= MDS_R_LIMIT + 1e-12:
        raise ValueError(f"mds_r must lie in (0, 1/sqrt(3)], got {mds_r}")
    if name == "mds":
        return _mds_entry(name, mds_r)
    state, bell_terms, g_terms, expected = _TABLE[name]
    rho = state()
    bell = HSOperator(rho.n, bell_terms)
    g = bell + HSOperator(rho.n, g_terms) if g_terms else bell
    return CatalogEntry(name, rho, bell, g, dict(expected))  # a dict of its own: no entry can change the table


def catalog(mds_r: float = 0.5) -> dict[str, CatalogEntry]:
    """All reference entries keyed by name, in ENTRY_NAMES order, each as ``catalog_entry`` builds it."""
    return {name: catalog_entry(name, mds_r) for name in ENTRY_NAMES}
