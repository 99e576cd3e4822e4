"""Maximization of Pauli-basis operators over pure product states.

For a product state the expectation value of an operator is multilinear
in the per-qubit Bloch vectors, so fixing all qubits but one leaves an
affine function c0 + c . v_k whose maximum over the Bloch sphere is
attained at v_k = c/|c|.  Alternating that closed-form update over the
qubits ascends monotonically; a multistart over counter-based RNG
streams guards against local maxima.  A brute-force angular grid search
is provided as an independent cross-check.

One evaluator serves every entry point: a block of starts shares one
(n, starts, terms) factor table and each ascent step is one numpy call
for the whole block.  Per start the arithmetic is that of a lone start:
field sums are one ``bincount`` over start-major bins, which keeps each
start's term order, and values and norms are stacked vector products,
one dot per start.  So a start's result does not depend on which block
it ran in or how many starts ran beside it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hs import HSOperator, require_identity_free
from .pauli_core import Array
from .states import ProductState

DEGENERATE_FIELD = 1e-14
DEFAULT_GRID_BUDGET = 250_000_000
GRID_SUFFIX_ELEMENTS = 8_000_000
GRID_BLOCK_ELEMENTS = 4_000_000
GRID_FOLD_ELEMENTS = 262_144  # entries of the last grid fold materialized at once
ASCENT_BLOCK_ELEMENTS = 65_536  # factor-table entries per block of ascent starts
MIN_DRAW_NORM = 1e-12  # shorter random triples are redrawn


def _components(blochs: Array) -> Array:
    """(starts, n, 4) rows (1, vx, vy, vz): each qubit's component along every axis, identity first."""
    starts, n = blochs.shape[:2]
    components = np.empty((starts, n, 4))
    components[:, :, 0] = 1.0
    components[:, :, 1:] = blochs
    return components


def _factors(axes: Array, components: Array) -> Array:
    """(n, starts, terms) table: entry [k, s, t] is start s's qubit-k component along term t's axis.

    Entries along the first axis multiply to the term's value.  The
    table stays C-ordered, so every start's products form one contiguous
    row, as a lone start's do.
    """
    starts, n = components.shape[:2]
    factors = np.empty((n, starts, len(axes)))
    for k in range(n):
        factors[k] = components[:, k, axes[:, k]]
    return factors


def _lengths(rows: Array) -> Array:
    """Euclidean length of each row of a (rows, 3) array, one dot per row as in ``np.linalg.norm``."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _values(factors: Array, coeffs: Array) -> Array:
    """Objective of every start in the table, one dot per start."""
    return (factors.prod(axis=0)[:, None, :] @ coeffs[:, None])[:, 0, 0]


def _fields(factors: Array, coeffs: Array, axes: Array, qubit: int) -> Array:
    """(starts, 4) rows (c0, cx, cy, cz) of the objective as affine in one qubit.

    Sets that qubit's slice of the table to 1.  One bincount over
    start-major bins sums each start's terms in term order.
    """
    starts = factors.shape[1]
    factors[qubit] = 1.0
    bins = (4 * np.arange(starts))[:, None] + axes[:, qubit]
    weights = coeffs * factors.prod(axis=0)
    return np.bincount(bins.ravel(), weights=weights.ravel(), minlength=4 * starts).reshape(starts, 4)


class _Runs(NamedTuple):
    """Per-start results of one block; ``history`` is (starts, sweeps + 1), NaN past a start's end."""

    values: Array
    blochs: Array
    sweeps: Array
    converged: Array
    history: Array | None


def _ascend(
    axes: Array,
    coeffs: Array,
    blochs: Array,
    tol: float,
    max_iters: int,
    keep_history: bool = False,
) -> _Runs:
    """Alternating ascent of a block of starts from (starts, n, 3) unit Bloch vectors.

    A start leaves the block once a sweep improves it by less than
    ``tol``, or after ``max_iters`` sweeps, and the block is compacted.
    ``keep_history`` records every start's value after each sweep.
    """
    starts, n = blochs.shape[:2]
    blochs = blochs.copy()
    live = np.arange(starts)  # start index of each row still ascending
    components = _components(blochs)
    factors = _factors(axes, components)
    value = _values(factors, coeffs)
    values = value.copy()
    sweeps = np.zeros(starts, dtype=int)
    converged = np.zeros(starts, dtype=bool)
    history = [value.copy()] if keep_history else None
    for sweep in range(1, max_iters + 1):
        for k in range(n):
            field = _fields(factors, coeffs, axes, k)[:, 1:]
            norm = _lengths(field)
            moved = ~(norm < DEGENERATE_FIELD)  # a degenerate field keeps the vector
            np.divide(field, norm[:, None], out=components[:, k, 1:], where=moved[:, None])
            factors[k] = components[:, k, axes[:, k]]
        new = _values(factors, coeffs)
        best = np.where(new > value, new, value)
        done = new - value < tol
        value = np.where(done, best, new)
        if history is not None:
            history.append(np.full(starts, np.nan))
            history[-1][live] = best
        stop = done | (sweep == max_iters)
        if stop.any():
            ended = live[stop]
            values[ended], blochs[ended], sweeps[ended] = value[stop], components[stop, :, 1:], sweep
            converged[ended] = done[stop]
            if stop.all():
                break
            keep = ~stop
            live, components, value = live[keep], components[keep], value[keep]
            factors = factors.compress(keep, axis=1)  # stays C-ordered
    if history is not None:
        history = np.stack(history, axis=1)
    return _Runs(values, blochs, sweeps, converged, history)


def _one_start(op: HSOperator, blochs: Array) -> Array:
    """Bloch vectors of one start as a block of one."""
    blochs = np.array(blochs, dtype=float)
    if blochs.shape != (op.n, 3):
        raise ValueError(f"expected Bloch vectors of shape {(op.n, 3)}, got {blochs.shape}")
    return blochs[None]


def objective(op: HSOperator, blochs: Array) -> float:
    """Expectation sum_s c_s prod_k v_k[s_k] at the given Bloch vectors."""
    return float(_values(_factors(op.axes, _components(_one_start(op, blochs))), op.coeffs)[0])


def effective_field(op: HSOperator, blochs: Array, qubit: int) -> tuple[float, Array]:
    """Split the objective as c0 + c . v_qubit with all other qubits fixed."""
    factors = _factors(op.axes, _components(_one_start(op, blochs)))
    if not 0 <= qubit < op.n:
        raise ValueError(f"qubit index must lie in [0, {op.n}), got {qubit}")
    sums = _fields(factors, op.coeffs, op.axes, qubit)[0]
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
    ``starts_at_best`` counts the starts that ended within the tolerance
    of the best value.
    """

    alpha: float
    argmax: ProductState
    starts_used: int
    iterations: int
    converged: bool
    starts_at_best: int


def _start_blochs(seed: int, start: int, n: int) -> Array:
    """Unit Bloch vectors of one start, from its own Philox stream keyed on (seed, start).

    Qubit k normalizes the k-th triple of normal draws that is longer
    than MIN_DRAW_NORM; shorter triples are skipped.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, start], dtype=np.uint64)))
    draws = rng.normal(size=(n, 3))
    lengths = _lengths(draws)
    while (short := n - np.count_nonzero(lengths > MIN_DRAW_NORM)) > 0:
        more = rng.normal(size=(short, 3))
        draws, lengths = np.concatenate((draws, more)), np.concatenate((lengths, _lengths(more)))
    keep = np.flatnonzero(lengths > MIN_DRAW_NORM)[:n]
    return draws[keep] / lengths[keep, None]


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
    start = _one_start(op, blochs)
    if not len(op):
        return Ascent(0.0, start[0], 0, True, (0.0,))
    runs = _ascend(op.axes, op.coeffs, start, tol, max_iters, keep_history=True)
    sweeps = int(runs.sweeps[0])
    history = tuple(runs.history[0, : sweeps + 1].tolist())
    return Ascent(float(runs.values[0]), runs.blochs[0], sweeps, bool(runs.converged[0]), history)


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
    scheduling or how many starts run.  The starts ascend in blocks of
    at most ``ASCENT_BLOCK_ELEMENTS`` factor-table entries, so the
    tables do not grow with ``starts``.  The first start to reach the
    best value supplies the endpoint, sweep count and convergence flag.
    A best value or endpoint that is not finite raises ``ValueError``.
    """
    require_identity_free(op)
    if starts < 1:
        raise ValueError(f"starts must be positive, got {starts}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    n = op.n
    if not len(op):
        poles = ProductState(tuple((0.0, 0.0) for _ in range(n)))
        return AlphaResult(0.0, poles, starts, 0, True, starts)

    axes, coeffs = op.axes, op.coeffs
    block = max(1, ASCENT_BLOCK_ELEMENTS // axes.size)
    values = np.empty(starts)
    best: tuple[_Runs, int] | None = None
    for lo in range(0, starts, block):
        hi = min(starts, lo + block)
        draws = np.stack([_start_blochs(seed, s, n) for s in range(lo, hi)])
        runs = _ascend(axes, coeffs, draws, tol, max_iters)
        values[lo:hi] = runs.values
        i = int(np.argmax(runs.values))
        if best is None or runs.values[i] > best[0].values[best[1]]:
            best = (runs, i)

    runs, i = best
    alpha = float(runs.values[i])
    blochs = runs.blochs[i] / np.linalg.norm(runs.blochs[i], axis=1)[:, None]
    if not (np.isfinite(alpha) and np.isfinite(blochs).all()):
        raise ValueError("the ascent overflows the float range; scale the coefficients down")
    argmax = ProductState.from_bloch_vectors(blochs)
    at_best = int(np.count_nonzero(alpha - values <= tol))
    return AlphaResult(alpha, argmax, starts, int(runs.sweeps[i]), bool(runs.converged[i]), at_best)


def _khatri_rao(left: Array, right: Array) -> Array:
    """Row-wise products of every row of ``left`` with every row of ``right``, left-major."""
    return (left[:, None, :] * right[None, :, :]).reshape(-1, left.shape[1])


def grid_point_count(n: int, divisions: int) -> int:
    """Number of product-state grid points visited at this resolution."""
    per_qubit = (divisions + 1) * divisions
    return per_qubit**n


def alpha_grid_oracle(op: HSOperator, divisions: int) -> float:
    """Exhaustive product-state maximum over an angular grid.

    theta takes divisions + 1 uniform samples of [0, pi] (both poles
    included) and phi takes divisions uniform samples of [0, 2 pi), per
    qubit.  All ((divisions + 1) divisions)^n joint choices are
    evaluated; the call refuses to start when that count exceeds
    DEFAULT_GRID_BUDGET.  The result is a certified lower bound on the true
    product-state maximum that converges to it as divisions grows.
    """
    require_identity_free(op)
    if divisions < 4:
        raise ValueError(f"divisions must be at least 4, got {divisions}")
    n = op.n
    total = grid_point_count(n, divisions)
    if total > DEFAULT_GRID_BUDGET:
        raise ValueError(f"grid of {total} points exceeds the budget of {DEFAULT_GRID_BUDGET}; lower divisions")
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
    suffix = np.ones((1, n_terms))
    split = n
    while split > 1 and suffix.shape[0] * points * n_terms <= GRID_SUFFIX_ELEMENTS:
        split -= 1
        suffix = _khatri_rao(per_qubit[split], suffix)

    if split == 1 and suffix.shape[0] * points * n_terms <= GRID_SUFFIX_ELEMENTS:
        # qubit 0 folds in too, a few of its rows at a time to bound memory; blocks of
        # 4k rows keep every grid point's dot product the one a single fold would take
        rows = 4 * max(1, GRID_FOLD_ELEMENTS // (4 * suffix.size))
        return max(
            float(np.max(_khatri_rao(per_qubit[0][lo : lo + rows], suffix) @ coeffs))
            for lo in range(0, points, rows)
        )
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
