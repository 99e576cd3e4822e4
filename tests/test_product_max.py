"""Alternating ascent over product states and the exhaustive grid oracle."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hswit import product_max, screen
from hswit.cli import load_operator
from hswit.hs import HSOperator, overlap
from hswit.lhv_bound import classical_bound
from hswit.pauli_core import AXIS_LABELS
from hswit.product_max import (
    DEGENERATE_FIELD,
    _ascend,
    _draw_starts,
    alpha_grid_oracle,
    alpha_max,
    ascend,
    grid_point_count,
)
from hswit.states import ProductState, mds_g_operator

from conftest import record_chunks
from reference import ascent_history, bloch_vectors, lone_start, objective

ALPHA_CASES = [
    ("ghz3", 1.0),
    ("w3", 1.0),
    ("ghz4", 1.0),
    ("w4", 3.0),
    ("cl4", 2.0),
    ("mds", 0.5),
]


def _random_blochs(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _product_coeffs(ps):
    """Hilbert-Schmidt coefficients of a product state: R_s = prod_k v_k[s_k] with v_k[0] = 1."""
    table = np.ones(())
    for bloch in bloch_vectors(ps):
        table = np.multiply.outer(table, np.concatenate(([1.0], bloch)))
    return HSOperator.from_dense(table)


def _field(op, blochs, qubit):
    """(c0, c) of the objective as c0 + c . v_qubit, all other qubits fixed, by the ascent's step."""
    table = product_max._table(op.axes, op.coeffs, product_max._components(np.array(blochs, dtype=float)[None]))
    prefix = table[:qubit].prod(axis=0)  # the product of the qubits a sweep has updated before this one
    sums = product_max._fields(table, product_max._bins(op.axes, 1), prefix, qubit)[0]
    return sums[0], sums[1:]


def test_objective_matches_overlap_with_product_coefficients(cat):
    rng = np.random.default_rng(1)
    for name in ("ghz3", "w4"):
        op = cat[name].g_witness
        for _ in range(5):
            blochs = _random_blochs(rng, op.n)
            ps = ProductState.from_bloch_vectors(blochs)
            want = overlap(op, _product_coeffs(ps))
            assert abs(objective(op, blochs) - want) < 1e-12


def test_objective_on_poles_reads_off_z_coefficients():
    op = HSOperator(2, {"ZZ": 0.75, "XX": 0.5})
    up = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    assert abs(objective(op, up) - 0.75) < 1e-15


def test_effective_field_is_the_partial_linearization(cat):
    rng = np.random.default_rng(2)
    for name in ("w3", "cl4"):
        op = cat[name].g_witness
        for _ in range(3):
            blochs = _random_blochs(rng, op.n)
            for qubit in range(op.n):
                c0, c = _field(op, blochs, qubit)
                recombined = c0 + c @ blochs[qubit]
                assert abs(recombined - objective(op, blochs)) < 1e-12


def test_effective_field_hand_examples(cat):
    # single term XX, partner on x: the whole objective is qubit 0's x component
    op = HSOperator(2, {"XX": 1.0})
    blochs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    c0, c = _field(op, blochs, 0)
    assert c0 == 0.0
    np.testing.assert_allclose(c, [1.0, 0.0, 0.0], atol=1e-15)
    # three-qubit witness operator with partners at the poles: only the
    # ZZ pair contributes, pointing qubit 0's field along z
    g3 = cat["ghz3"].g_witness
    poles = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    c0, c = _field(g3, poles, 0)
    assert c0 == 0.0
    np.testing.assert_allclose(c, [0.0, 0.0, 1.0], atol=1e-15)


def test_effective_field_matches_finite_difference_gradient(cat):
    rng = np.random.default_rng(3)
    op = cat["ghz3"].g_witness
    blochs = _random_blochs(rng, 3)
    for qubit in range(3):
        _, c = _field(op, blochs, qubit)
        v = blochs[qubit]
        # two tangent directions at v
        seed = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        t1 = np.cross(v, seed)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(v, t1)
        for t in (t1, t2):
            eps = 1e-6
            plus, minus = blochs.copy(), blochs.copy()
            plus[qubit] = (v + eps * t) / np.linalg.norm(v + eps * t)
            minus[qubit] = (v - eps * t) / np.linalg.norm(v - eps * t)
            fd = (objective(op, plus) - objective(op, minus)) / (2 * eps)
            assert abs(fd - c @ t) < 1e-6


def test_ascent_history_is_monotone(cat):
    rng = np.random.default_rng(4)
    for name, _ in ALPHA_CASES:
        op = cat[name].g_witness
        for _ in range(4):
            run = ascent_history(op, _random_blochs(rng, op.n))
            assert len(run.history) == run.sweeps + 1
            assert all(
                later >= earlier - 1e-15
                for earlier, later in zip(run.history, run.history[1:])
            )
            assert run.value == run.history[-1]


def test_ascent_stalls_gracefully_on_a_degenerate_start():
    # ZZ with both qubits on the equator: every effective field vanishes,
    # so the sweep keeps the vectors and reports convergence at value 0.
    op = HSOperator(2, {"ZZ": 1.0})
    start = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    run = ascend(op, start)
    assert run.converged
    assert run.value == 0.0
    np.testing.assert_array_equal(run.blochs, start)


def test_ascent_respects_iteration_budget(cat):
    op = cat["w4"].g_witness
    start = _random_blochs(np.random.default_rng(6), 4)
    assert ascend(op, start).sweeps > 2
    run = ascend(op, start, max_iters=2)
    assert run.sweeps == 2
    assert not run.converged


@pytest.mark.parametrize("name,want", ALPHA_CASES)
def test_alpha_values(cat, name, want):
    result = alpha_max(cat[name].g_witness)
    assert abs(result.alpha - want) < 1e-9
    assert result.converged
    assert result.starts_used == 64


def test_alpha_is_deterministic(cat):
    op = cat["w3"].g_witness
    a = alpha_max(op, starts=8, seed=3)
    b = alpha_max(op, starts=8, seed=3)
    assert a.alpha == b.alpha
    assert a.argmax.angles == b.argmax.angles


def test_alpha_value_is_achieved_by_the_reported_argmax(cat):
    for name, _ in ALPHA_CASES:
        op = cat[name].g_witness
        result = alpha_max(op, starts=16)
        achieved = overlap(op, _product_coeffs(result.argmax))
        assert abs(achieved - result.alpha) < 1e-9


def test_alpha_scaling_equivariance(cat):
    op = cat["cl4"].g_witness
    base = alpha_max(op, starts=16)
    scaled = alpha_max(4.0 * op, starts=16)
    assert abs(scaled.alpha - 4.0 * base.alpha) < 1e-9
    back = objective(op, bloch_vectors(scaled.argmax))
    assert abs(back - base.alpha) < 1e-9


def test_alpha_validates_arguments(cat):
    op = cat["ghz3"].g_witness
    with pytest.raises(ValueError):
        alpha_max(op, starts=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            alpha_max(op, seed=seed)
    with pytest.raises(ValueError, match="identity"):
        alpha_max(HSOperator(2, {"II": 1.0, "XX": 1.0}))


@pytest.mark.parametrize("terms", [{"X": 1e308, "Y": 1e308, "Z": 1e308}, {"XX": 1e308, "ZZ": 1e308}])
def test_alpha_names_an_overflow(terms):
    # the fields pass the float range, so the best value or the endpoint is not finite
    op = HSOperator(len(next(iter(terms))), terms)
    with pytest.raises(ValueError, match="ascent overflows the float range"):
        alpha_max(op)


def _alpha_and_bound(op):
    """alpha_max(op).alpha, and classical_bound(op).beta_cl raised by its rounding margin 8 (T + 1) eps sum|c|."""
    margin = 8 * (len(op) + 1) * sys.float_info.epsilon * float(np.abs(op.coeffs).sum())
    return alpha_max(op).alpha, classical_bound(op).beta_cl + margin


def test_alpha_never_exceeds_the_classical_bound(cat, generated):
    # a product state's value is affine in each qubit's Bloch vector, so its maximum over the cube
    # [-1, 1]^(3n), which holds the Bloch balls, lies at a vertex: an assignment of +/-1 outcomes
    ops = {name: entry.g_witness for name, entry in cat.items()}
    for path in sorted(generated.glob("kernel_*.json")) + sorted(generated.glob("op_*.json")):
        ops[path.name] = load_operator(json.loads(path.read_text()))
    assert len(ops) == 20
    values = {name: _alpha_and_bound(op) for name, op in ops.items()}
    assert not {name: pair for name, pair in values.items() if not pair[0] <= pair[1]}


@st.composite
def identity_free_operators(draw):
    n = draw(st.integers(1, 4))
    words = st.tuples(*[st.integers(0, 3)] * n).filter(any).map(lambda axes: "".join(AXIS_LABELS[a] for a in axes))
    return HSOperator(n, draw(st.dictionaries(words, st.floats(-10.0, 10.0), min_size=1, max_size=12)))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(identity_free_operators())
def test_alpha_never_exceeds_the_classical_bound_on_random_operators(op):
    alpha, bound = _alpha_and_bound(op)
    assert alpha <= bound


def test_grid_point_count():
    assert grid_point_count(1, 4) == 20
    assert grid_point_count(3, 24) == 600**3
    assert grid_point_count(4, 10) == 110**4


def test_grid_oracle_on_single_term_poles():
    op = HSOperator(3, {"ZZZ": 1.0})
    assert alpha_grid_oracle(op, 4) == pytest.approx(1.0, abs=1e-12)
    result = alpha_max(op, starts=16)
    assert abs(result.alpha - 1.0) < 1e-9


def test_grid_oracle_caps_at_the_true_maximum():
    # poles are grid points, so the sweep attains the exact value R there
    op = mds_g_operator(1.0)
    assert alpha_grid_oracle(op, 8) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name,divisions", [
    ("ghz3", 24), ("w3", 24), ("mds", 24), ("ghz4", 10), ("w4", 10), ("cl4", 10),
])
def test_ascent_meets_or_beats_the_grid(cat, name, divisions):
    op = cat[name].g_witness
    grid = alpha_grid_oracle(op, divisions)
    best = alpha_max(op).alpha
    assert best >= grid - 1e-9
    # for these operators the maximizers lie on the grid, so the two agree
    assert abs(best - grid) < 1e-9


def _grid_by_enumeration(op, divisions):
    """Every grid point's value: per-term products over the qubits, then one dot with the coefficients."""
    thetas = np.linspace(0.0, np.pi, divisions + 1)
    phis = np.linspace(0.0, 2.0 * np.pi, divisions, endpoint=False)
    theta, phi = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    components = np.column_stack(
        (np.ones(theta.size), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    )
    terms = np.ones((1, len(op)))
    for k in range(op.n):
        terms = (terms[:, None, :] * components[:, op.axes[:, k]][None]).reshape(-1, len(op))
    return float(np.max(terms @ op.coeffs))


def _chunks(total, rows, columns):
    """The (rows, columns) of the chunks that walk ``total`` rows, ``rows`` at a time."""
    return {(min(rows, total), columns)} | ({(total % rows, columns)} if total > rows and total % rows else set())


# the screen's BLOCK_ELEMENTS as a function of (n, terms), and the chunks that bound must give, checked on
# the counts of each chunk's (rows, columns); divisions 4 give 20 points per qubit and the operators have up
# to 30 terms
@pytest.mark.parametrize("bound,chunks", [
    # ceil(n / 2) qubits folded, within 2^LOW_BITS columns past the first, and one chunk of every walked point
    pytest.param(lambda n, t: 20**4 * t,
                 lambda n, t, shapes: shapes == {(20 ** (n // 2), 20 ** ((n + 1) // 2)): 1},
                 id="balanced-fold"),
    # one qubit folded: the table of 20 columns fits, one of 400 does not
    pytest.param(lambda n, t: 20 * t, lambda n, t, shapes: {c for _, c in shapes} == {20}, id="one-fold"),
    # ceil(n / 2) qubits folded, the walked rows in one table within the bound, and chunks of max(t, 20) of
    # its rows, the last one partial
    pytest.param(lambda n, t: 400 * max(t, 20),
                 lambda n, t, shapes: set(shapes) == _chunks(20 ** (n // 2), max(t, 20), 20 ** ((n + 1) // 2)),
                 id="rows-table"),
    # no qubit folded: a one-column table, and chunks of 19 gathered points (isqrt(bound) where that is fewer)
    pytest.param(lambda n, t: 20 * t - 1,
                 lambda n, t, shapes: set(shapes) == _chunks(20**n, min(19, math.isqrt(20 * t - 1)), 1),
                 id="no-fold"),
])
def test_grid_oracle_matches_an_enumeration_of_every_point(monkeypatch, bound, chunks):
    rng = np.random.default_rng(41)
    divisions = 4
    for n in (1, 2, 3, 4):
        for _ in range(3):
            op = _random_operator(rng, n, int(rng.integers(1, min(4**n - 1, 30) + 1)))
            shapes = record_chunks(monkeypatch, product_max, bound(n, len(op)))
            got = alpha_grid_oracle(op, divisions)
            assert chunks(n, len(op), shapes), (n, len(op), set(shapes))
            want = _grid_by_enumeration(op, divisions)
            assert abs(got - want) <= 1e-12 * (1.0 + np.abs(op.coeffs).sum()), (n, op.labels())


@pytest.mark.parametrize("n", [3, 4])
def test_grid_oracle_gathers_the_leading_qubits_when_their_rows_pass_the_bound(monkeypatch, n):
    # 24 terms at 40 entries a term: one qubit folded, and the 20^(n-1) walked rows pass the bound, so a
    # chunk is 20 rows, the last walked qubit's rows times the other qubits' gathered factors
    op = _random_operator(np.random.default_rng(n), n, 24)
    shapes = record_chunks(monkeypatch, product_max, 40 * len(op))
    got = alpha_grid_oracle(op, 4)
    assert shapes == {(20, 20): 20 ** (n - 2)}
    assert abs(got - _grid_by_enumeration(op, 4)) <= 1e-12 * (1.0 + np.abs(op.coeffs).sum()), op.labels()


def test_grid_oracle_matches_an_enumeration_on_one_qubit_at_many_divisions(monkeypatch):
    # 360,600 grid points of up to three terms: too wide a table to fold, so the points are walked in
    # chunks of isqrt(BLOCK_ELEMENTS), the last one partial
    rng = np.random.default_rng(12)
    for terms in (1, 2, 3):
        op = _random_operator(rng, 1, terms)
        shapes = record_chunks(monkeypatch, product_max, screen.BLOCK_ELEMENTS)
        want = _grid_by_enumeration(op, 600)
        assert abs(alpha_grid_oracle(op, 600) - want) <= 1e-12 * (1.0 + np.abs(op.coeffs).sum()), op.labels()
        assert set(shapes) == _chunks(360_600, math.isqrt(screen.BLOCK_ELEMENTS), 1)


def _traced_peak(function, *args, **kwargs):
    tracemalloc.start()
    try:
        function(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_oracle_chunks_stay_within_the_block_bound_for_many_terms(monkeypatch):
    # 255 terms on four qubits against a bound of 100 entries a term: one qubit's table fits, two do not,
    # and the terms, not the table, bound a chunk's rows: 100 rows of 20 columns, of which the last walked
    # qubit fills the rows table and the other two are gathered
    op = _random_operator(np.random.default_rng(8), 4, 255)
    points, bound = 20, 100 * len(op)
    shapes = record_chunks(monkeypatch, product_max, bound)
    tables = op.n * points * len(op) * 8  # the per-qubit factors
    # two arrays of at most `bound` entries live at once (a chunk's rows beside its gathered prefix or
    # beside its sums); the third is slack for the folded table and the small arrays
    assert _traced_peak(alpha_grid_oracle, op, 4) <= tables + 3 * 8 * bound
    assert shapes == {(100, 20): 80}


def test_grid_oracle_working_set_at_the_default_bound():
    # four qubits, 24 terms, 6 divisions (42 points a qubit): the benchmark's operator shape
    op = _random_operator(np.random.default_rng(19), 4, 24)
    tables = op.n * 42 * len(op) * 8  # the per-qubit factors
    assert _traced_peak(alpha_grid_oracle, op, 6) <= tables + 3 * 8 * screen.BLOCK_ELEMENTS


def test_grid_oracle_folds_one_qubit_past_the_column_cap(monkeypatch):
    # two qubits at 60 divisions have 3,660 points each, past 2^LOW_BITS; walking both would run every
    # product against one column, about 50 times slower
    op = _random_operator(np.random.default_rng(2), 2, 10)
    shapes = record_chunks(monkeypatch, product_max, screen.BLOCK_ELEMENTS)
    alpha_grid_oracle(op, 60)
    assert {columns for _, columns in shapes} == {grid_point_count(1, 60)}


def test_grid_oracle_validates_divisions(cat):
    with pytest.raises(ValueError, match="divisions"):
        alpha_grid_oracle(cat["ghz3"].g_witness, 3)


def test_grid_oracle_enforces_the_point_budget(cat, monkeypatch):
    with pytest.raises(ValueError, match="budget"):
        alpha_grid_oracle(cat["ghz4"].g_witness, 24)
    monkeypatch.setattr(product_max, "DEFAULT_GRID_BUDGET", 1000)
    with pytest.raises(ValueError, match="budget"):
        alpha_grid_oracle(cat["ghz3"].g_witness, 24)


# ---------------------------------------------------------------------------
# the batched evaluator against the single-start loop it replaced


def _lone_ascend(op, blochs, tol=1e-10, max_iters=500):
    """One start at a time, in the arithmetic the batched evaluator must reproduce bit for bit."""
    blochs = np.array(blochs, dtype=float)
    axes, coeffs = op.axes, op.coeffs
    table = np.empty((op.n, 4))
    table[:, 0] = 1.0
    table[:, 1:] = blochs
    vals = table[np.arange(op.n), axes]
    value = float(vals.prod(axis=1) @ coeffs)
    history = [value]
    converged = False
    sweeps = 0
    for _ in range(max_iters):
        sweeps += 1
        for k in range(op.n):
            saved = vals[:, k].copy()
            vals[:, k] = 1.0
            field = np.bincount(axes[:, k], weights=coeffs * vals.prod(axis=1), minlength=4)[1:4]
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
    return value, blochs, sweeps, converged, tuple(history)


def _lone_alpha(op, starts, seed=0, tol=1e-10):
    runs = [_lone_ascend(op, lone_start(seed, s, op.n), tol) for s in range(starts)]
    best = None
    for run in runs:
        if best is None or run[0] > best[0]:
            best = run
    at_best = sum(1 for run in runs if best[0] - run[0] <= tol)
    return best, at_best


def _random_operator(rng, n, terms):
    labels = set()
    while len(labels) < terms:
        word = "".join("IXYZ"[a] for a in rng.integers(0, 4, size=n))
        if set(word) != {"I"}:
            labels.add(word)
    return HSOperator(n, {w: float(rng.normal()) for w in sorted(labels)})


def _assert_block_matches_lone(op, starts, max_iters=500):
    """The block, and each start's stepped history, against the lone loop at the package's tolerance."""
    runs = _ascend(op.axes, op.coeffs, np.stack(starts), max_iters)
    for s, start in enumerate(starts):
        value, blochs, sweeps, converged, history = _lone_ascend(op, start, product_max.ASCENT_TOL, max_iters)
        assert runs.values[s] == value, s
        np.testing.assert_array_equal(runs.blochs[s], blochs)
        assert runs.sweeps[s] == sweeps, s
        assert runs.converged[s] == converged, s
        assert ascent_history(op, start, max_iters).history == history, s
    return runs


def _operators(cat):
    rng = np.random.default_rng(31)
    ops = [(name, cat[name].g_witness) for name, _ in ALPHA_CASES]
    for n, terms in ((1, 3), (2, 5), (3, 9), (4, 16), (5, 20), (6, 24), (7, 24), (8, 40)):
        ops.append((f"random n={n}", _random_operator(rng, n, terms)))
    return ops


def test_block_ascent_is_bit_identical_to_lone_starts(cat):
    for name, op in _operators(cat):
        starts = [lone_start(5, s, op.n) for s in range(12)]
        runs = _assert_block_matches_lone(op, starts)
        lone = ascend(op, starts[0])
        assert (lone.value, lone.sweeps, lone.converged) == (runs.values[0], runs.sweeps[0], runs.converged[0]), name
        np.testing.assert_array_equal(lone.blochs, runs.blochs[0])


def test_stepped_history_ends_where_one_ascent_run_does(cat):
    # ascent_history runs _ascend one sweep at a time; its endpoint is one run's to the last bit, so the
    # histories the tests read are the package's own ascent
    for name, op in _operators(cat):
        for s in range(4):
            start = lone_start(7, s, op.n)
            runs = _ascend(op.axes, op.coeffs, start[None], 500)
            stepped = ascent_history(op, start)
            assert stepped.value == runs.values[0], (name, s)
            assert stepped.blochs.tobytes() == runs.blochs[0].tobytes(), (name, s)
            assert (stepped.sweeps, stepped.converged) == (runs.sweeps[0], runs.converged[0]), (name, s)
            assert len(stepped.history) == stepped.sweeps + 1 and stepped.history[-1] == stepped.value, (name, s)


def test_block_mixes_degenerate_and_moving_starts():
    op = HSOperator(2, {"ZZ": 1.0, "XY": 0.25})
    equator = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rng = np.random.default_rng(8)
    starts = [equator, _random_blochs(rng, 2), np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), _random_blochs(rng, 2)]
    runs = _assert_block_matches_lone(HSOperator(2, {"ZZ": 1.0}), starts)
    np.testing.assert_array_equal(runs.blochs[0], equator)  # both fields vanish: the start stays put
    assert runs.values[0] == 0.0 and runs.values[1] == 1.0
    _assert_block_matches_lone(op, starts)


def test_block_compacts_starts_that_stop_on_different_sweeps(cat, monkeypatch):
    op = _operators(cat)[-4][1]
    starts = [lone_start(0, s, op.n) for s in range(24)]
    monkeypatch.setattr(product_max, "ASCENT_TOL", 1e-13)
    runs = _assert_block_matches_lone(op, starts)
    assert len(set(runs.sweeps.tolist())) > 5


@pytest.mark.parametrize("name", ["op_n7_m20", "op_n8_m16", "op_n8_m22"])
def test_block_ascent_is_bit_identical_to_lone_starts_on_the_benchmark_operators(generated, name):
    # the 64 starts alpha_max draws at seed 0, as the CLI runs them, on the benchmark's largest operator files
    op = load_operator(json.loads((generated / f"{name}.json").read_text()))
    runs = _assert_block_matches_lone(op, _draw_starts(0, 0, np.empty((64, op.n, 3))))
    if name == "op_n8_m16":
        # two starts run on long after the rest have stopped, so the block compacts across a long tail
        assert sorted(runs.sweeps.tolist())[-3:] == [82, 200, 250]


@pytest.mark.parametrize("tol,max_iters", [(0.0, 0), (0.0, 2), (-1.0, 40)])
def test_block_respects_the_iteration_budget(cat, monkeypatch, tol, max_iters):
    # with a negative tolerance no sweep converges, and the value follows
    # every last-bit wobble of the sweeps while the history keeps the maximum
    op = _operators(cat)[-4][1]
    starts = [lone_start(1, s, op.n) for s in range(6)]
    monkeypatch.setattr(product_max, "ASCENT_TOL", tol)
    runs = _assert_block_matches_lone(op, starts, max_iters=max_iters)
    assert (runs.sweeps == max_iters).all()
    assert not runs.converged.any()


def test_factor_table_equals_a_per_qubit_gather(cat):
    rng = np.random.default_rng(12)
    for name, op in _operators(cat):
        for starts in (1, 64):
            components = product_max._components(rng.normal(size=(starts, op.n, 3)))
            want = np.empty((op.n + 1, starts, len(op)))
            for k in range(op.n):
                want[k] = components[:, k, op.axes[:, k]]
            want[op.n] = op.coeffs
            got = product_max._table(op.axes, op.coeffs, components)
            np.testing.assert_array_equal(got, want)
            assert got.flags.c_contiguous, name


def test_ascent_working_set_stays_within_the_block_bound(monkeypatch):
    # eight qubits and 64 terms, the shape of the benchmark's op_n8_m16: 200 starts in eight blocks of up to 28
    op = _random_operator(np.random.default_rng(23), 8, 64)
    starts, bound = 200, 2**14
    monkeypatch.setattr(product_max, "BLOCK_ELEMENTS", bound)
    peak = _traced_peak(alpha_max, op, starts=starts)
    # the table, its compacted copy and the bins hold at most `bound` entries each, the fourth is slack for
    # the small arrays; only the final values, 8 bytes a start, grow with the starts
    assert peak <= 8 * starts + 4 * 8 * bound


@pytest.mark.parametrize("bound", [2**14, product_max.BLOCK_ELEMENTS])
def test_start_draws_stay_within_the_block_bound(monkeypatch, bound):
    # one qubit, one term: the components, 4 entries a start, are a block's widest array, twice the table;
    # at 2**14 the 20,000 starts run in five blocks, at the default in one
    op, starts = HSOperator(1, {"Z": 1.0}), 20_000
    monkeypatch.setattr(product_max, "BLOCK_ELEMENTS", bound)
    alpha_max(op, starts=2)  # the first call's one-off allocations are not the block's
    peak = _traced_peak(alpha_max, op, starts=starts)
    # a block's draws, filled in place, and the ascent's copy of them, its components, table, bins and fields,
    # and its results: about eight arrays of at most `bound` entries live at once, the rest slack, as a finished
    # block's results are released before the next block ascends; only the final values, 8 bytes a start, grow
    # with the starts
    assert peak <= 8 * starts + 10 * 8 * bound


def test_block_draws_are_the_lone_starts_bit_for_bit():
    # compared as raw words, so a signed zero counts
    for seed in (0, 1, 2**63, 2**64 - 1):
        for n in range(1, 11):
            for lo in (0, 7, 2**40):
                for k in (1, 17, 64):
                    out = np.empty((k, n, 3))
                    assert _draw_starts(seed, lo, out) is out
                    want = np.stack([lone_start(seed, lo + s, n) for s in range(k)])
                    assert np.array_equal(out.view(np.uint64), want.view(np.uint64)), (seed, n, lo, k)


def test_alpha_max_matches_lone_starts_across_blocks(cat, monkeypatch):
    ops = _operators(cat)
    for name, op in ops[:6] + ops[-3:]:
        best, at_best = _lone_alpha(op, 20, seed=9)
        for elements in ((op.n + 1) * len(op), 3 * (op.n + 1) * len(op), product_max.BLOCK_ELEMENTS):
            monkeypatch.setattr(product_max, "BLOCK_ELEMENTS", elements)
            result = alpha_max(op, starts=20, seed=9)
            assert result.alpha == best[0], name
            assert (result.iterations, result.converged) == (best[2], best[3]), name
            assert result.starts_at_best == at_best, name
            want = best[1] / np.linalg.norm(best[1], axis=1)[:, None]
            assert result.argmax == ProductState.from_bloch_vectors(want), name


def test_alpha_max_of_k_starts_is_the_best_of_the_first_k(cat):
    op = _operators(cat)[-2][1]
    starts = _draw_starts(2, 0, np.empty((30, op.n, 3)))
    runs = _ascend(op.axes, op.coeffs, starts, 500)
    for k in (1, 4, 17, 30):
        i = int(np.argmax(runs.values[:k]))
        result = alpha_max(op, starts=k, seed=2)
        assert result.alpha == runs.values[i]
        assert (result.iterations, result.converged) == (runs.sweeps[i], runs.converged[i])
        assert result.starts_at_best == np.count_nonzero(runs.values[i] - runs.values[:k] <= 1e-10)


def test_starts_at_best_counts_the_starts_that_reach_alpha(cat):
    result = alpha_max(cat["ghz3"].g_witness)
    assert 1 <= result.starts_at_best <= result.starts_used == 64
    assert alpha_max(HSOperator(2)).starts_at_best == 64
