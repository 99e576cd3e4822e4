"""Alternating ascent over product states and the exhaustive grid oracle."""

import numpy as np
import pytest

from hswit import product_max
from hswit.hs import HSOperator, overlap
from hswit.product_max import (
    DEGENERATE_FIELD,
    _ascend,
    _start_blochs,
    alpha_grid_oracle,
    alpha_max,
    ascend,
    effective_field,
    grid_point_count,
    objective,
)
from hswit.states import ProductState, mds_g_operator, product_state_coeffs

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


def test_objective_matches_overlap_with_product_coefficients(cat):
    rng = np.random.default_rng(1)
    for name in ("ghz3", "w4"):
        op = cat[name].g_witness
        for _ in range(5):
            blochs = _random_blochs(rng, op.n)
            ps = ProductState.from_bloch_vectors(blochs)
            want = overlap(op, product_state_coeffs(ps))
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
                c0, c = effective_field(op, blochs, qubit)
                recombined = c0 + c @ blochs[qubit]
                assert abs(recombined - objective(op, blochs)) < 1e-12


def test_effective_field_hand_examples(cat):
    # single term XX, partner on x: the whole objective is qubit 0's x component
    op = HSOperator(2, {"XX": 1.0})
    blochs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    c0, c = effective_field(op, blochs, 0)
    assert c0 == 0.0
    np.testing.assert_allclose(c, [1.0, 0.0, 0.0], atol=1e-15)
    # three-qubit witness operator with partners at the poles: only the
    # ZZ pair contributes, pointing qubit 0's field along z
    g3 = cat["ghz3"].g_witness
    poles = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    c0, c = effective_field(g3, poles, 0)
    assert c0 == 0.0
    np.testing.assert_allclose(c, [0.0, 0.0, 1.0], atol=1e-15)
    with pytest.raises(ValueError):
        effective_field(g3, poles, 3)


def test_effective_field_matches_finite_difference_gradient(cat):
    rng = np.random.default_rng(3)
    op = cat["ghz3"].g_witness
    blochs = _random_blochs(rng, 3)
    for qubit in range(3):
        _, c = effective_field(op, blochs, qubit)
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
            run = ascend(op, _random_blochs(rng, op.n))
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
    rng = np.random.default_rng(6)
    run = ascend(op, _random_blochs(rng, 4), tol=0.0, max_iters=2)
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
        achieved = overlap(op, product_state_coeffs(result.argmax))
        assert abs(achieved - result.alpha) < 1e-9


def test_alpha_scaling_equivariance(cat):
    op = cat["cl4"].g_witness
    base = alpha_max(op, starts=16)
    scaled = alpha_max(4.0 * op, starts=16)
    assert abs(scaled.alpha - 4.0 * base.alpha) < 1e-9
    back = objective(op, scaled.argmax.bloch_vectors())
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("terms", [{"X": 1e308, "Y": 1e308, "Z": 1e308}, {"XX": 1e308, "ZZ": 1e308}])
def test_alpha_names_an_overflow(terms):
    # the fields pass the float range, so the best value or the endpoint is not finite
    op = HSOperator(len(next(iter(terms))), terms)
    with pytest.raises(ValueError, match="ascent overflows the float range"):
        alpha_max(op)


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


@pytest.mark.parametrize("name", ["ghz3", "w3", "mds"])
def test_grid_oracle_folds_in_blocks_without_changing_a_bit(cat, monkeypatch, name):
    op = cat[name].g_witness
    monkeypatch.setattr(product_max, "GRID_FOLD_ELEMENTS", 1 << 40)  # one block: a single fold
    whole = alpha_grid_oracle(op, 8)
    monkeypatch.setattr(product_max, "GRID_FOLD_ELEMENTS", 1)  # four rows of qubit 0 at a time
    assert alpha_grid_oracle(op, 8) == whole


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


def _lone_start(seed, start, n, min_norm=1e-12):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, start], dtype=np.uint64)))
    out = np.empty((n, 3))
    for k in range(n):
        while True:
            v = rng.normal(size=3)
            norm = np.linalg.norm(v)
            if norm > min_norm:
                out[k] = v / norm
                break
    return out


def _lone_alpha(op, starts, seed=0, tol=1e-10):
    runs = [_lone_ascend(op, _lone_start(seed, s, op.n), tol) for s in range(starts)]
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


def _assert_block_matches_lone(op, starts, tol=1e-10, max_iters=500):
    runs = _ascend(op.axes, op.coeffs, np.stack(starts), tol, max_iters, keep_history=True)
    for s, start in enumerate(starts):
        value, blochs, sweeps, converged, history = _lone_ascend(op, start, tol, max_iters)
        assert runs.values[s] == value, s
        np.testing.assert_array_equal(runs.blochs[s], blochs)
        assert runs.sweeps[s] == sweeps, s
        assert runs.converged[s] == converged, s
        assert tuple(runs.history[s, : sweeps + 1].tolist()) == history, s
        assert np.isnan(runs.history[s, sweeps + 1 :]).all()
    return runs


def _operators(cat):
    rng = np.random.default_rng(31)
    ops = [(name, cat[name].g_witness) for name, _ in ALPHA_CASES]
    for n, terms in ((1, 3), (2, 5), (3, 9), (4, 16), (5, 20), (6, 24), (7, 24), (8, 40)):
        ops.append((f"random n={n}", _random_operator(rng, n, terms)))
    return ops


def test_block_ascent_is_bit_identical_to_lone_starts(cat):
    for name, op in _operators(cat):
        starts = [_lone_start(5, s, op.n) for s in range(12)]
        runs = _assert_block_matches_lone(op, starts)
        lone = ascend(op, starts[0])
        assert (lone.value, lone.sweeps, lone.converged) == (runs.values[0], runs.sweeps[0], runs.converged[0]), name
        assert lone.history == tuple(runs.history[0, : lone.sweeps + 1].tolist()), name
        np.testing.assert_array_equal(lone.blochs, runs.blochs[0])


def test_block_mixes_degenerate_and_moving_starts():
    op = HSOperator(2, {"ZZ": 1.0, "XY": 0.25})
    equator = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rng = np.random.default_rng(8)
    starts = [equator, _random_blochs(rng, 2), np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), _random_blochs(rng, 2)]
    runs = _assert_block_matches_lone(HSOperator(2, {"ZZ": 1.0}), starts)
    np.testing.assert_array_equal(runs.blochs[0], equator)  # both fields vanish: the start stays put
    assert runs.values[0] == 0.0 and runs.values[1] == 1.0
    _assert_block_matches_lone(op, starts)


def test_block_compacts_starts_that_stop_on_different_sweeps(cat):
    op = _operators(cat)[-4][1]
    starts = [_lone_start(0, s, op.n) for s in range(24)]
    runs = _assert_block_matches_lone(op, starts, tol=1e-13)
    assert len(set(runs.sweeps.tolist())) > 5


@pytest.mark.parametrize("tol,max_iters", [(0.0, 0), (0.0, 2), (-1.0, 40)])
def test_block_respects_the_iteration_budget(cat, tol, max_iters):
    # with a negative tolerance no sweep converges, and the value follows
    # every last-bit wobble of the sweeps while the history keeps the maximum
    op = _operators(cat)[-4][1]
    starts = [_lone_start(1, s, op.n) for s in range(6)]
    runs = _assert_block_matches_lone(op, starts, tol=tol, max_iters=max_iters)
    assert (runs.sweeps == max_iters).all()
    assert not runs.converged.any()


def test_start_draws_skip_short_triples(monkeypatch):
    # with a floor of 1 about a fifth of all triples are redrawn, shifting later qubits
    monkeypatch.setattr(product_max, "MIN_DRAW_NORM", 1.0)
    shifted = 0
    for s in range(20):
        got = _start_blochs(3, s, 5)
        np.testing.assert_array_equal(got, _lone_start(3, s, 5, min_norm=1.0))
        shifted += not np.array_equal(got, _lone_start(3, s, 5))
    assert shifted > 0


def test_alpha_max_matches_lone_starts_across_blocks(cat, monkeypatch):
    ops = _operators(cat)
    for name, op in ops[:6] + ops[-3:]:
        best, at_best = _lone_alpha(op, 20, seed=9)
        for elements in (op.axes.size, 3 * op.axes.size, product_max.ASCENT_BLOCK_ELEMENTS):
            monkeypatch.setattr(product_max, "ASCENT_BLOCK_ELEMENTS", elements)
            result = alpha_max(op, starts=20, seed=9)
            assert result.alpha == best[0], name
            assert (result.iterations, result.converged) == (best[2], best[3]), name
            assert result.starts_at_best == at_best, name
            want = best[1] / np.linalg.norm(best[1], axis=1)[:, None]
            assert result.argmax == ProductState.from_bloch_vectors(want), name


def test_alpha_max_of_k_starts_is_the_best_of_the_first_k(cat):
    op = _operators(cat)[-2][1]
    starts = np.stack([_start_blochs(2, s, op.n) for s in range(30)])
    runs = _ascend(op.axes, op.coeffs, starts, 1e-10, 500)
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
