"""Reference routines that only the tests call.

Most are an independent second route to a number the package computes
another way: a pure-Python Jacobi eigensolver beside ``eigvalsh``, the
density-matrix checks in their plain order (finiteness, Hermiticity,
trace) beside the constructor's residual-first pass, an ``eigvalsh``-only
positivity check beside ``from_matrix``'s Cholesky test, the
partial transpose for spectral checks on the catalog states, a one-start
product-state value beside the blocked ascent, one start's draws from its
own generator beside a block's draws from one reset bit generator, and a
sampled lower bound beside the exhaustive classical bound.  The rest
record what only tests read: the ascent's value after every sweep, by
running the package's ascent one sweep at a time, a product state's
Bloch vectors, their angles one qubit at a time beside
``from_bloch_vectors``'s one pass, and an axis relabeling and a
coefficient-wise comparison of operators, for the paper's relabeling
identity.  None is reached by a command or a library path, so none
lives in the package.
"""

from typing import Mapping, NamedTuple

import numpy as np

from hswit.hs import HSOperator, require_identity_free
from hswit.lhv_bound import _exact_best, _incidence
from hswit.pauli_core import (
    AXIS_LABELS,
    BLOCK_ELEMENTS,
    EIGENVALUE_FLOOR,
    HERMITIAN_ATOL,
    TRACE_ATOL,
    Array,
    DensityMatrix,
    InvalidStateError,
    check_qubit_count,
)
from hswit.product_max import ASCENT_MAX_SWEEPS, _ascend, _components, _table, _values
from hswit.states import ProductState

JACOBI_TOL = 1e-12  # off-diagonal norm at which Jacobi sweeps stop, relative above norm 1
JACOBI_MAX_SWEEPS = 100


def hermitian_eigenvalues(matrix: Array) -> Array:
    """Eigenvalues of a Hermitian matrix, ascending, via cyclic Jacobi.

    Each (p, q) rotation absorbs the phase of the off-diagonal entry into
    a diagonal unitary and then applies the standard real symmetric 2x2
    rotation, so every sweep strictly shrinks the off-diagonal norm.
    Sweeps stop once that norm falls below JACOBI_TOL scaled by the
    input's Frobenius norm when that exceeds 1 (roundoff makes a smaller
    absolute norm unreachable for large-scale matrices); no convergence
    within JACOBI_MAX_SWEEPS sweeps raises ``ValueError``.  The package
    checks positivity with ``eigvalsh``; this is an independent reference
    for tests on small dense matrices.  It is O(dim^4) per unit of
    accuracy gained, not a general-purpose solver.
    """
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dim = a.shape[0]
    if dim == 1:
        return a.real.reshape(1).copy()
    if np.max(np.abs(a - a.conj().T)) > 1e-8 * max(1.0, np.max(np.abs(a))):
        raise ValueError("matrix is not Hermitian")

    def off_norm(m: Array) -> float:
        off = m - np.diag(np.diag(m))
        return float(np.linalg.norm(off))

    stop = JACOBI_TOL * max(1.0, float(np.linalg.norm(a)))
    threshold = stop / (2 * dim)
    for _ in range(JACOBI_MAX_SWEEPS):
        if off_norm(a) < stop:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                r = abs(apq)
                if r <= threshold:
                    continue
                phase = apq / r
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * r)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # columns: A <- A U with U restricted to the (p, q) plane
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * col_p + c * np.conj(phase) * col_q
                # rows: A <- U^dagger A
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * row_p + c * phase * row_q
    else:
        if off_norm(a) >= stop:
            raise ValueError(f"Jacobi sweeps did not converge within {JACOBI_MAX_SWEEPS} sweeps")
    return np.sort(np.diag(a).real)


@np.errstate(over="ignore", invalid="ignore")  # the constructor compares overflowed values without a warning too
def density_checks(matrix: Array, n: int) -> None:
    """The ``DensityMatrix`` constructor's checks, one full pass each, in order.

    The cap, the shape, finiteness, Hermiticity (the largest entry of
    |M - M*|), then the trace; the first that fails raises the
    constructor's exception and message.
    """
    check_qubit_count(n)
    mat = np.asarray(matrix, dtype=complex, order="C")
    dim = 2**n
    if mat.shape != (dim, dim):
        raise InvalidStateError(f"expected shape {(dim, dim)} for {n} qubits, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise InvalidStateError("matrix has non-finite entries")
    if np.abs(mat - mat.conj().T).max() > HERMITIAN_ATOL:
        raise InvalidStateError("matrix is not Hermitian")
    trace = mat.trace()
    if not abs(trace - 1.0) <= TRACE_ATOL:
        raise InvalidStateError(f"trace must be 1, got {trace}")


def eigvalsh_positivity(rho: DensityMatrix) -> None:
    """Refuse a state whose smallest ``eigvalsh`` eigenvalue is below EIGENVALUE_FLOOR, with
    ``from_matrix``'s message; ``eigvalsh`` decides every matrix."""
    smallest = np.linalg.eigvalsh(rho.matrix)[0]
    if smallest < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"matrix has a negative eigenvalue {smallest:.12g}")


def partial_transpose(rho: DensityMatrix, qubit: int) -> Array:
    """Transpose within qubit ``qubit``'s 2x2 blocks; output may not be psd."""
    n = rho.n
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index must lie in [0, {n}), got {qubit}")
    tensor = rho.matrix.reshape((2,) * (2 * n))
    tensor = np.swapaxes(tensor, qubit, n + qubit)
    return tensor.reshape(rho.dim, rho.dim).copy()


def lone_start(seed: int, start: int, n: int) -> Array:
    """Unit Bloch vectors of one start, from a Generator of its own over Philox keyed on (seed, start).

    Qubit k normalizes the k-th normal triple the generator draws.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, start], dtype=np.uint64)))
    out = np.empty((n, 3))
    for k in range(n):
        v = rng.normal(size=3)
        out[k] = v / np.linalg.norm(v)
    return out


def bloch_vectors(ps: ProductState) -> Array:
    """(n, 3) array of the product state's per-qubit Bloch vectors."""
    out = np.empty((ps.n, 3), dtype=float)
    for k, (theta, phi) in enumerate(ps.angles):
        sin_t = np.sin(theta)
        out[k] = (sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta))
    return out


def bloch_angles(vectors: Array) -> tuple[tuple[float, float], ...]:
    """(theta, phi) of each row of an (n, 3) array of unit Bloch vectors, one qubit at a time.

    theta is the arccos of the clipped z and phi the arctan2 of (y, x)
    taken mod 2 pi, with a wrap to exactly 2 pi sent to 0.0: the angles
    ``ProductState.from_bloch_vectors`` computes for all qubits at once.
    """
    angles = []
    for x, y, z in np.asarray(vectors, dtype=float):
        theta = float(np.arccos(np.clip(z, -1.0, 1.0)))
        phi = float(np.arctan2(y, x)) % (2.0 * np.pi)
        if phi >= 2.0 * np.pi:  # a tiny negative atan2 can wrap to exactly 2*pi
            phi = 0.0
        angles.append((theta, phi))
    return tuple(angles)


def objective(op: HSOperator, blochs: Array) -> float:
    """Expectation sum_s c_s prod_k v_k[s_k] at the given (n, 3) Bloch vectors."""
    table = _table(op.axes, op.coeffs, _components(np.array(blochs, dtype=float)[None]))
    return float(_values(table[: op.n].prod(axis=0), op.coeffs)[0])


class Trajectory(NamedTuple):
    """One start's ascent with its value before the first sweep and after every sweep."""

    value: float
    blochs: Array
    sweeps: int
    converged: bool
    history: tuple[float, ...]


def ascent_history(op: HSOperator, blochs: Array, max_iters: int = ASCENT_MAX_SWEEPS) -> Trajectory:
    """The package's ascent of one start, run one ``_ascend`` sweep at a time.

    Each sweep resumes from the previous sweep's endpoint, whose value is
    bit for bit the one an unbroken run carries on with, so the stepped
    run ends with one ``_ascend`` call's value, endpoint, sweeps and flag.
    After each sweep the history records the larger of the values before
    and after it, as the ascent keeps the better of the two when it stops.
    """
    runs = _ascend(op.axes, op.coeffs, np.array(blochs, dtype=float)[None], 0)
    history = [float(runs.values[0])]
    for _ in range(max_iters):
        before = float(runs.values[0])
        runs = _ascend(op.axes, op.coeffs, runs.blochs, 1)
        history.append(max(before, float(runs.values[0])))
        if runs.converged[0]:
            break
    return Trajectory(float(runs.values[0]), runs.blochs[0], len(history) - 1, bool(runs.converged[0]), tuple(history))


def relabel(op: HSOperator, mapping: Mapping[int, int]) -> HSOperator:
    """Apply one permutation of the axes {1: x, 2: y, 3: z} on every qubit.

    The identity axis 0 always maps to itself.  Relabeling is a local
    unitary on each qubit, so spectra and product-state maxima are
    unchanged.
    """
    perm = {0: 0, **{int(k): int(v) for k, v in mapping.items()}}
    if sorted(perm) != [0, 1, 2, 3] or sorted(perm.values()) != [0, 1, 2, 3]:
        raise ValueError(f"mapping must be a permutation of {{1, 2, 3}}, got {dict(mapping)}")
    letters = str.maketrans(AXIS_LABELS, "".join(AXIS_LABELS[perm[a]] for a in range(4)))
    return HSOperator(op.n, {s.translate(letters): c for s, c in zip(op.labels(), op.coeffs.tolist())})


def is_close(a: HSOperator, b: HSOperator, atol: float = 1e-9) -> bool:
    """True when both operators have the same coefficients within atol."""
    if a.n != b.n:
        return False
    codes = np.union1d(a.codes, b.codes)
    return bool(np.all(np.abs(a._values_at(codes) - b._values_at(codes)) <= atol))


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked for, as in classical_bound
def sampled_lower_bound(op: HSOperator, trials: int, seed: int = 0) -> float:
    """Best value over uniformly random assignments; never above the bound.

    The assignments are drawn BLOCK_ELEMENTS at a time, and each batch's
    codes are built one pair's column at a time, so the int8 draws are
    never widened whole.  Any exactly summed value that is not finite
    raises ``ValueError``.
    """
    require_identity_free(op)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if len(op) == 0:  # every assignment has value 0
        return 0.0
    pairs, incidence = _incidence(op)
    bits = 1 << np.arange(len(pairs) - 1, -1, -1)
    masks = incidence @ bits
    rng = np.random.default_rng(seed)
    best_value = -np.inf
    for done in range(0, trials, BLOCK_ELEMENTS):
        count = min(BLOCK_ELEMENTS, trials - done)
        draws = rng.integers(0, 2, size=(count, len(pairs)), dtype=np.int8)  # 1 sets a pair to -1
        codes = np.zeros(count, dtype=np.int64)
        for column in draws.T:  # the first pair is the most significant bit
            codes <<= 1
            codes |= column
        best_value = max(best_value, _exact_best(codes, masks, op.coeffs)[0])
    return best_value
