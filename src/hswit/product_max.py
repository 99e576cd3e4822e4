"""Maximization of Pauli-basis operators over pure product states.

For a product state the expectation value of an operator is multilinear
in the per-qubit Bloch vectors, so fixing all qubits but one leaves an
affine function c0 + c . v_k whose maximum over the Bloch sphere is
attained at v_k = c/|c|.  Alternating that closed-form update over the
qubits ascends monotonically; a multistart over counter-based RNG
streams guards against local maxima.  A brute-force angular grid search
is provided as an independent cross-check.

One evaluator serves every entry point: a block of starts shares one
(n + 1, starts, terms) table, the qubits' factors in rows 0..n-1 and the
coefficients in row n.  A sweep carries the product of the qubits it has
updated; the step on qubit k writes that prefix into row k and takes
every term's weight, for the whole block, as one product over rows k..n.
Rounded left to right, that is bit for bit a lone start's weight: its
factors in qubit order with a 1 for qubit k, times the coefficient.
After the last qubit the prefix is the product of every factor, so the
values need no second product.  Field sums are one ``bincount`` over
start-major bins, built once per block, which keeps each start's term
order; values and norms are stacked vector products, one dot per start.
So a start's result does not depend on which block it ran in or how many
starts ran beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hs import HSOperator, require_identity_free
from .pauli_core import BLOCK_ELEMENTS, Array
from .screen import _blocks
from .states import ProductState

DEGENERATE_FIELD = 1e-14
DEFAULT_GRID_BUDGET = 250_000_000
ASCENT_TOL = 1e-10  # a start stops once a sweep improves it by less than this
ASCENT_MAX_SWEEPS = 500
ASCENT_OVERFLOW = "the ascent overflows the float range; scale the coefficients down"


def _components(blochs: Array) -> Array:
    """(starts, n, 4) rows (1, vx, vy, vz): each qubit's component along every axis, identity first."""
    starts, n = blochs.shape[:2]
    components = np.empty((starts, n, 4))
    components[:, :, 0] = 1.0
    components[:, :, 1:] = blochs
    return components


def _table(axes: Array, coeffs: Array, components: Array) -> Array:
    """(n + 1, starts, terms) table: entry [k, s, t] is start s's qubit-k component along term t's axis.

    Row n holds the coefficients, so the rows multiply to each term's
    share of the objective.  The table stays C-ordered, so every start's
    products form one contiguous row, as a lone start's do.
    """
    starts, n = components.shape[:2]
    table = np.empty((n + 1, starts, len(coeffs)))
    table[:n] = components[:, np.arange(n), axes].transpose(2, 0, 1)
    table[n] = coeffs
    return table


def _bins(axes: Array, starts: int) -> Array:
    """(n, starts * terms) start-major bins 4 * start + axis, one row per qubit.

    The first rows * terms entries of a row are the bins of the first
    ``rows`` starts, so they serve the block after it is compacted.
    """
    return ((4 * np.arange(starts))[:, None] + axes.T[:, None, :]).reshape(axes.shape[1], -1)


def _lengths(rows: Array) -> Array:
    """Euclidean length of each row of a (rows, 3) array, one dot per row as in ``np.linalg.norm``."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _values(products: Array, coeffs: Array) -> Array:
    """Objective of every start from its (starts, terms) row of term products, one dot per start."""
    return (products[:, None, :] @ coeffs[:, None])[:, 0, 0]


def _fields(table: Array, bins: Array, prefix: Array, qubit: int) -> Array:
    """(starts, 4) rows (c0, cx, cy, cz) of the objective as affine in one qubit.

    ``prefix`` is the product of qubits 0..qubit-1's rows.  It replaces
    the qubit's row, so rows qubit..n multiply, left to right, to each
    term's weight without that qubit's factor.  One bincount over
    start-major bins sums each start's terms in term order.
    """
    starts = prefix.shape[0]
    table[qubit] = prefix
    weights = table[qubit:].prod(axis=0)
    return np.bincount(bins[qubit, : weights.size], weights=weights.ravel(), minlength=4 * starts).reshape(starts, 4)


class _Runs(NamedTuple):
    """Per-start results of one block."""

    values: Array
    blochs: Array
    sweeps: Array
    converged: Array


def _ascend(axes: Array, coeffs: Array, blochs: Array, max_iters: int) -> _Runs:
    """Alternating ascent of a block of starts from (starts, n, 3) unit Bloch vectors.

    A start leaves the block once a sweep improves it by less than
    ``ASCENT_TOL``, or after ``max_iters`` sweeps, and the block is
    compacted.
    """
    starts, n = blochs.shape[:2]
    blochs = blochs.copy()
    live = np.arange(starts)  # start index of each row still ascending
    components = _components(blochs)
    table = _table(axes, coeffs, components)
    bins = _bins(axes, starts)
    value = _values(table[:n].prod(axis=0), coeffs)
    values = value.copy()
    sweeps = np.zeros(starts, dtype=int)
    converged = np.zeros(starts, dtype=bool)
    for sweep in range(1, max_iters + 1):
        prefix = np.ones(table.shape[1:])  # the product of the qubits this sweep has updated
        for k in range(n):
            field = _fields(table, bins, prefix, k)[:, 1:]
            norm = _lengths(field)
            moved = ~(norm < DEGENERATE_FIELD)  # a degenerate field keeps the vector
            np.divide(field, norm[:, None], out=components[:, k, 1:], where=moved[:, None])
            table[k] = components[:, k, axes[:, k]]
            prefix *= table[k]
        new = _values(prefix, coeffs)
        best = np.where(new > value, new, value)
        done = new - value < ASCENT_TOL
        value = np.where(done, best, new)
        stop = done | (sweep == max_iters)
        if stop.any():
            ended = live[stop]
            values[ended], blochs[ended], sweeps[ended] = value[stop], components[stop, :, 1:], sweep
            converged[ended] = done[stop]
            if stop.all():
                break
            keep = ~stop
            live, components, value = live[keep], components[keep], value[keep]
            table = table.compress(keep, axis=1)  # stays C-ordered
    return _Runs(values, blochs, sweeps, converged)


@dataclass(frozen=True)
class Ascent:
    """One alternating-ascent trajectory: its final value and endpoint, its sweeps, and whether it converged."""

    value: float
    blochs: Array
    sweeps: int
    converged: bool


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


def _draw_starts(seed: int, lo: int, out: Array) -> Array:
    """``out``, (k, n, 3), filled with the unit Bloch vectors of starts lo..lo + k - 1.

    Start j draws from its own Philox stream, keyed on (seed, j) with a
    zero counter.  Philox is counter-based, so one bit generator serves
    the whole block: its state, a dict of plain ints, is reset to each
    start's key in turn.  Qubit q normalizes the q-th normal triple of its
    start's stream, drawn in place by ``standard_normal``; ``normal(0, 1)``
    returns 0.0 + 1.0 x, which differs only on an exact -0.0 (odds ~2**-53).
    """
    k, n = out.shape[:2]
    bits = np.random.Philox(key=np.array([seed, lo], dtype=np.uint64))
    rng = np.random.Generator(bits)
    key = [seed, lo]  # plain ints, which the state setter reads faster than numpy words
    state = {**bits.state, "state": {"counter": [0] * 4, "key": key}, "buffer": [0] * 4}  # zero counter, empty buffer
    for s in range(k):
        key[1] = lo + s
        bits.state = state
        rng.standard_normal(out=out[s])
    out /= _lengths(out.reshape(k * n, 3)).reshape(k, n, 1)
    return out


def ascend(op: HSOperator, blochs: Array, *, max_iters: int = ASCENT_MAX_SWEEPS) -> Ascent:
    """Run one alternating-ascent trajectory from given unit Bloch vectors.

    Each sweep visits every qubit once, replacing its vector by the
    normalized effective field (kept unchanged when the field is
    degenerate).  The trajectory stops once a sweep improves the value
    by less than ``ASCENT_TOL``, or after ``max_iters`` sweeps.
    """
    require_identity_free(op)
    start = np.array(blochs, dtype=float)
    if start.shape != (op.n, 3):
        raise ValueError(f"expected Bloch vectors of shape {(op.n, 3)}, got {start.shape}")
    if not len(op):
        return Ascent(0.0, start, 0, True)
    runs = _ascend(op.axes, op.coeffs, start[None], max_iters)
    return Ascent(float(runs.values[0]), runs.blochs[0], int(runs.sweeps[0]), bool(runs.converged[0]))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite best value or endpoint raises, so numpy warns of nothing
def alpha_max(op: HSOperator, starts: int = 64, seed: int = 0) -> AlphaResult:
    """Maximum of the operator over pure product states, by ascent.

    Each start draws its own counter-based RNG stream keyed on
    (seed, start index), so results are reproducible and independent of
    scheduling or how many starts run.  Every start ascends as ``ascend``
    does with its default budget: until a sweep improves it by less than
    ``ASCENT_TOL``, or for ``ASCENT_MAX_SWEEPS`` sweeps.  The starts
    ascend in blocks whose widest array, the table or the components,
    fits ``BLOCK_ELEMENTS`` entries, so no block's arrays, its draws
    included, grow with ``starts``.  Between blocks only the running best
    start's value, endpoint, sweeps and flag are kept.  The first start
    to reach the best value supplies the endpoint, sweep count and
    convergence flag.  A best value or endpoint that is not finite raises
    ``ValueError``.
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

    block = min(starts, max(1, BLOCK_ELEMENTS // max((n + 1) * len(op), 4 * n)))
    draws = np.empty((block, n, 3))
    values = np.empty(starts)
    for lo in range(0, starts, block):
        runs = _ascend(op.axes, op.coeffs, _draw_starts(seed, lo, draws[: min(starts - lo, block)]), ASCENT_MAX_SWEEPS)
        values[lo : lo + len(runs.values)] = runs.values
        i = int(np.argmax(runs.values))
        if lo == 0 or runs.values[i] > alpha:  # a later block must beat the best to replace it
            alpha, endpoint = float(runs.values[i]), runs.blochs[i].copy()
            sweeps, converged = int(runs.sweeps[i]), bool(runs.converged[i])
        del runs  # released before the next block ascends

    blochs = endpoint / np.linalg.norm(endpoint, axis=1)[:, None]
    if not (np.isfinite(alpha) and np.isfinite(blochs).all()):
        raise ValueError(ASCENT_OVERFLOW)
    argmax = ProductState.from_bloch_vectors(blochs)
    at_best = int(np.count_nonzero(alpha - values <= ASCENT_TOL))
    return AlphaResult(alpha, argmax, starts, sweeps, converged, at_best)


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
    DEFAULT_GRID_BUDGET.  The result is a lower bound on the true
    product-state maximum up to rounding of order eps * sum|c|, and
    converges to it as divisions grows.

    Each qubit is a site of the screen ``classical_bound`` shares
    (``screen._blocks``), its factor table holding every grid point's
    component along each term's axis.  Trailing qubits fold into one
    Khatri-Rao table, terms x grid points, while its columns stay within
    2^LOW_BITS, its entries within BLOCK_ELEMENTS and the folded qubits
    no more than the walked ones; the grid points of the other qubits are
    walked in chunks, one matrix product per chunk.  Apart from the n
    factor tables (grid points x terms each), no array exceeds
    BLOCK_ELEMENTS entries, except that a chunk holds at least one grid
    point.  Where a point's term products are split between the walked
    and the folded qubits depends on that bound, so the value's last bits
    do too.
    """
    require_identity_free(op)
    if divisions < 4:
        raise ValueError(f"divisions must be at least 4, got {divisions}")
    total = grid_point_count(op.n, divisions)
    if total > DEFAULT_GRID_BUDGET:
        raise ValueError(f"grid of {total} points exceeds the budget of {DEFAULT_GRID_BUDGET}; lower divisions")
    if not len(op):
        return 0.0

    thetas = np.linspace(0.0, np.pi, divisions + 1)
    phis = np.linspace(0.0, 2.0 * np.pi, divisions, endpoint=False)
    theta, phi = (grid.ravel() for grid in np.meshgrid(thetas, phis, indexing="ij"))
    sin_t = np.sin(theta)
    components = np.column_stack((np.ones(theta.size), sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)))
    # qubit k's factor table: every grid point's component along each term's axis on qubit k
    values = _blocks(components[:, op.axes.T].transpose(1, 0, 2), op.coeffs)
    return max(float(block.max()) for _, block in values)
