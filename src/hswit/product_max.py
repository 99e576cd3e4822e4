"""Maximization of Pauli-basis operators over pure product states.

For a product state the expectation value of an operator is multilinear
in the per-qubit Bloch vectors, so fixing all qubits but one leaves an
affine function c0 + c . v_k whose maximum over the Bloch sphere is
attained at v_k = c/|c|.  Alternating that closed-form update over the
qubits ascends monotonically; a multistart over counter-based RNG
streams guards against local maxima.  A brute-force angular grid search
is provided as an independent cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .hs import HSOperator, require_identity_free
from .pauli_core import Array
from .states import ProductState

DEGENERATE_FIELD = 1e-14
DEFAULT_GRID_BUDGET = 250_000_000
GRID_SUFFIX_ELEMENTS = 8_000_000
GRID_BLOCK_ELEMENTS = 4_000_000


def _factors(axes: Array, blochs: Array) -> Array:
    """(terms, n) table of qubit k's Bloch component along term t's axis; rows multiply to term values."""
    n = axes.shape[1]
    if blochs.shape != (n, 3):
        raise ValueError(f"expected Bloch vectors of shape {(n, 3)}, got {blochs.shape}")
    table = np.empty((n, 4), dtype=float)
    table[:, 0] = 1.0
    table[:, 1:] = blochs
    return table[np.arange(n), axes]


def _field(factors: Array, coeffs: Array, axes: Array, qubit: int) -> Array:
    """(c0, cx, cy, cz) of the objective as affine in one qubit; sets that column of factors to 1."""
    factors[:, qubit] = 1.0
    return np.bincount(axes[:, qubit], weights=coeffs * factors.prod(axis=1), minlength=4)


def objective(op: HSOperator, blochs: Array) -> float:
    """Expectation sum_s c_s prod_k v_k[s_k] at the given Bloch vectors."""
    return float(_factors(op.axes, np.asarray(blochs, dtype=float)).prod(axis=1) @ op.coeffs)


def effective_field(op: HSOperator, blochs: Array, qubit: int) -> tuple[float, Array]:
    """Split the objective as c0 + c . v_qubit with all other qubits fixed."""
    axes = op.axes
    factors = _factors(axes, np.asarray(blochs, dtype=float))
    if not 0 <= qubit < op.n:
        raise ValueError(f"qubit index must lie in [0, {op.n}), got {qubit}")
    sums = _field(factors, op.coeffs, axes, qubit)
    return float(sums[0]), sums[1:4].copy()


@dataclass(frozen=True)
class Ascent:
    """One alternating-ascent trajectory.

    ``history`` records the objective after the initial point and after
    every sweep; it is nondecreasing by construction.
    """

    value: float
    blochs: Array
    sweeps: int
    converged: bool
    history: tuple[float, ...]


@dataclass(frozen=True)
class AlphaResult:
    """Best product-state value found, with convergence bookkeeping.

    Nothing here certifies global optimality: ``converged`` only says
    the best trajectory's final sweep improved by less than the
    tolerance within the iteration budget, over ``starts_used`` seeds.
    """

    alpha: float
    argmax: ProductState
    starts_used: int
    iterations: int
    converged: bool


def _random_unit_vectors(rng: np.random.Generator, n: int) -> Array:
    out = np.empty((n, 3), dtype=float)
    for k in range(n):
        while True:
            v = rng.normal(size=3)
            norm = np.linalg.norm(v)
            if norm > 1e-12:
                out[k] = v / norm
                break
    return out


def ascend(
    op: HSOperator,
    blochs: Array,
    tol: float = 1e-10,
    max_iters: int = 500,
) -> Ascent:
    """Run one alternating-ascent trajectory from given unit Bloch vectors.

    Each sweep visits every qubit once, replacing its vector by the
    normalized effective field (kept unchanged when the field is
    degenerate).  The trajectory stops once a sweep improves the value
    by less than ``tol``, or after ``max_iters`` sweeps.
    """
    require_identity_free(op)
    blochs = np.array(blochs, dtype=float)
    axes, coeffs = op.axes, op.coeffs
    vals = _factors(axes, blochs)
    if not len(op):
        return Ascent(0.0, blochs, 0, True, (0.0,))

    value = float(vals.prod(axis=1) @ coeffs)
    history = [value]
    converged = False
    sweeps = 0
    for _ in range(max_iters):
        sweeps += 1
        for k in range(op.n):
            saved = vals[:, k].copy()
            field = _field(vals, coeffs, axes, k)[1:4]
            norm = np.linalg.norm(field)
            if norm < DEGENERATE_FIELD:
                vals[:, k] = saved
                continue
            blochs[k] = field / norm
            row = np.concatenate(([1.0], blochs[k]))
            vals[:, k] = row[axes[:, k]]
        new_value = float(vals.prod(axis=1) @ coeffs)
        history.append(max(value, new_value))
        if new_value - value < tol:
            value = max(value, new_value)
            converged = True
            break
        value = new_value
    return Ascent(value, blochs, sweeps, converged, tuple(history))


def alpha_max(
    op: HSOperator,
    starts: int = 64,
    seed: int = 0,
    tol: float = 1e-10,
    max_iters: int = 500,
) -> AlphaResult:
    """Maximum of the operator over pure product states, by ascent.

    Each start draws its own counter-based RNG stream keyed on
    (seed, start index), so results are reproducible and independent of
    scheduling or how many starts run.  The best trajectory's value,
    endpoint, sweep count and convergence flag are reported.
    """
    require_identity_free(op)
    if starts < 1:
        raise ValueError(f"starts must be positive, got {starts}")
    n = op.n
    if not len(op):
        poles = ProductState(tuple((0.0, 0.0) for _ in range(n)))
        return AlphaResult(0.0, poles, starts, 0, True)

    best: Ascent | None = None
    for start in range(starts):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, start], dtype=np.uint64)))
        trajectory = ascend(op, _random_unit_vectors(rng, n), tol=tol, max_iters=max_iters)
        if best is None or trajectory.value > best.value:
            best = trajectory

    blochs = best.blochs / np.linalg.norm(best.blochs, axis=1)[:, None]
    argmax = ProductState.from_bloch_vectors(blochs)
    return AlphaResult(float(best.value), argmax, starts, best.sweeps, best.converged)


def grid_point_count(n: int, divisions: int) -> int:
    """Number of product-state grid points visited at this resolution."""
    per_qubit = (divisions + 1) * divisions
    return per_qubit**n


def alpha_grid_oracle(
    op: HSOperator,
    divisions: int,
    max_points: int = DEFAULT_GRID_BUDGET,
) -> float:
    """Exhaustive product-state maximum over an angular grid.

    theta takes divisions + 1 uniform samples of [0, pi] (both poles
    included) and phi takes divisions uniform samples of [0, 2 pi), per
    qubit.  All ((divisions + 1) divisions)^n joint choices are
    evaluated; the call refuses to start when that count exceeds
    ``max_points``.  The result is a certified lower bound on the true
    product-state maximum that converges to it as divisions grows.
    """
    require_identity_free(op)
    if divisions < 4:
        raise ValueError(f"divisions must be at least 4, got {divisions}")
    n = op.n
    total = grid_point_count(n, divisions)
    if total > max_points:
        raise ValueError(
            f"grid of {total} points exceeds the budget of {max_points}; "
            "lower divisions or raise max_points"
        )
    if not len(op):
        return 0.0

    thetas = np.linspace(0.0, np.pi, divisions + 1)
    phis = np.linspace(0.0, 2.0 * np.pi, divisions, endpoint=False)
    theta_grid, phi_grid = np.meshgrid(thetas, phis, indexing="ij")
    sin_t = np.sin(theta_grid.ravel())
    vectors = np.column_stack(
        (sin_t * np.cos(phi_grid.ravel()), sin_t * np.sin(phi_grid.ravel()), np.cos(theta_grid.ravel()))
    )
    points = vectors.shape[0]
    components = np.column_stack((np.ones(points), vectors))

    axes, coeffs = op.axes, op.coeffs
    n_terms = len(op)
    # per-qubit matrices B_k[i, t] = component of grid point i along term t's axis
    per_qubit = [components[:, axes[:, k]] for k in range(n)]

    # fold as many trailing qubits as fit into one row-wise (Khatri-Rao) block
    suffix = per_qubit[-1]
    split = n - 1
    while split > 0 and suffix.shape[0] * points * n_terms <= GRID_SUFFIX_ELEMENTS:
        split -= 1
        block = per_qubit[split][:, None, :] * suffix[None, :, :]
        suffix = block.reshape(-1, n_terms)

    if split == 0:
        return float(np.max(suffix @ coeffs))
    # innermost prefix qubit is vectorized in row blocks; the rest walk an odometer
    inner = per_qubit[split - 1]
    outer_qubits = per_qubit[: split - 1]
    suffix_t = np.ascontiguousarray(suffix.T)
    block_rows = max(1, GRID_BLOCK_ELEMENTS // suffix.shape[0])
    best = -np.inf
    for combo in itertools.product(*(range(points) for _ in outer_qubits)):
        row = coeffs.copy()
        for b, i in zip(outer_qubits, combo):
            row *= b[i]
        for lo in range(0, points, block_rows):
            block_vals = (inner[lo : lo + block_rows] * row) @ suffix_t
            value = float(np.max(block_vals))
            if value > best:
                best = value
    return best
