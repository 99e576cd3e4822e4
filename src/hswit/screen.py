"""One blocked screen of a multilinear form over a product of point sets.

The form is f(i) = sum_t c_t prod_j F_j[i_j, t]: site j takes one of the
points (rows) of its factor table F_j, points x terms, every site has as
many points, and the flat index i puts site 0's point first.
``classical_bound`` screens its +/-1 assignments with it, a site per
measured (qubit, axis) pair, and ``alpha_grid_oracle`` its grid of Bloch
vectors, a site per qubit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from .pauli_core import BLOCK_ELEMENTS, Array

LOW_BITS = 11  # at most 2^11 columns past the first site's in one matrix product


def _fold(factors: Array, table: Array) -> Array:
    """``table`` (terms x points) times the Khatri-Rao product of the factor tables, the first one's points first."""
    for f in factors[::-1].transpose(0, 2, 1)[..., None]:
        table = (f * table[:, None, :]).reshape(len(table), -1)
    return table


def _blocks(factors: Array, coeffs: Array, groups: Sequence[slice] = (slice(None),)) -> Iterator[tuple[int, Array]]:
    """Yield (offset, sums) over every flat index, a chunk of indices at a time.

    ``factors`` is (sites, points, terms); ``sums[g, r, col]``, in one
    buffer every chunk reuses, is the share of f of the terms in the slice
    ``groups[g]`` at flat index offset + r * columns + col.  The trailing
    sites fold into one Khatri-Rao table, terms x columns, while it fits
    BLOCK_ELEMENTS entries, the folded sites are no more than the others
    and, past the first site, the columns stay within 2^LOW_BITS (walking
    a wide site's points would make every product one column wide).  The
    other sites are walked in chunks of at most isqrt(BLOCK_ELEMENTS)
    rows, a row a point of theirs, whose rows (rows x terms) and sums
    (groups x rows x columns) fit BLOCK_ELEMENTS entries, or of one row.
    The walked sites fold into one table of rows, c_t included, when it
    fits BLOCK_ELEMENTS entries; otherwise only those whose points fit in
    a chunk do, and the others' factors are gathered chunk by chunk.  A
    group's sums over a chunk are one matrix product.
    """
    (sites, points), terms = factors.shape[:2], len(coeffs)
    folds = 0
    while folds < (sites + 1) // 2 and points ** (folds + 1) * terms <= BLOCK_ELEMENTS:
        if folds and points ** (folds + 1) > 1 << LOW_BITS:
            break
        folds += 1
    columns, walked = points**folds, sites - folds
    total = points**walked
    chunk = min(total, math.isqrt(BLOCK_ELEMENTS), max(1, BLOCK_ELEMENTS // max(terms, len(groups) * columns)))
    gathered, inner = walked, 1
    while gathered and (inner * points <= chunk or total * terms <= BLOCK_ELEMENTS):
        gathered, inner = gathered - 1, inner * points
    if gathered:
        chunk -= chunk % inner

    inner_rows = np.ascontiguousarray(_fold(factors[gathered:walked], coeffs[:, None]).T)
    table = _fold(factors[walked:], np.ones((terms, 1)))
    sums = np.empty((len(groups), chunk, columns))
    for lo in range(0, total, chunk):
        hi = min(total, lo + chunk)
        rows = inner_rows[lo:hi]
        if gathered:
            index = np.unravel_index(np.arange(lo // inner, hi // inner), (points,) * gathered)
            prefix = factors[0][index[0]]
            for f, i in zip(factors[1:gathered], index[1:]):
                prefix *= f[i]
            rows = (prefix[:, None, :] * inner_rows).reshape(hi - lo, terms)
        block = sums[:, : hi - lo]
        for g, out in zip(groups, block):
            np.matmul(rows[:, g], table[g], out=out)
        yield lo * columns, block
