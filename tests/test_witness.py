"""Witness construction, evaluation, critical noise, and the benchmark report."""

import numpy as np
import pytest

from conftest import mermin
from hswit import hs, product_max, states, witness
from hswit.cli import entry_rows
from hswit.hs import HSOperator, hs_decompose, hs_reconstruct, overlap
from hswit.lhv_bound import classical_bound
from hswit.pauli_core import DensityMatrix
from hswit.product_max import AlphaResult, alpha_max
from hswit.states import (
    MDS_R_LIMIT,
    ProductState,
    catalog,
    ghz,
    mds,
    mds_g_operator,
    mix_white_noise,
    product_state,
)
from hswit.witness import (
    MDS_THRESHOLD_STARTS,
    Witness,
    WitnessIneffectiveError,
    analyze,
    build_witness,
    eval_witness,
    mds_entanglement_threshold,
    pcrit_bell,
    pcrit_witness,
)

EVAL_CASES = [
    ("ghz3", -4.0),
    ("w3", -8 / 3),
    ("ghz4", -8.0),
    ("w4", -3.0),
    ("cl4", -6.0),
]


@pytest.fixture(scope="module")
def witnesses(cat):
    return {name: build_witness(entry.g_witness) for name, entry in cat.items()}


def test_witness_packaging(cat, witnesses):
    w = witnesses["ghz3"]
    assert abs(w.alpha - 1.0) < 1e-9


def test_witness_rejects_identity_component():
    with pytest.raises(ValueError, match="identity"):
        build_witness(HSOperator(2, {"II": 0.5, "XX": 1.0}))


def test_witness_accepts_precomputed_search(cat):
    g = cat["w4"].g_witness
    result = alpha_max(g, starts=16)
    w = witness.Witness(g, result)
    assert w.alpha == result.alpha
    with pytest.raises(ValueError):
        witness.Witness(cat["ghz3"].g_witness, result)


@pytest.mark.parametrize("name,want", EVAL_CASES)
def test_eval_witness_on_the_target_states(cat, witnesses, name, want):
    value = eval_witness(witnesses[name], cat[name].state)
    assert abs(value - want) < 1e-9


def test_eval_witness_on_maximally_mixed_is_alpha(cat, witnesses):
    for name, w in witnesses.items():
        dim = 2 ** w.n
        mixed = DensityMatrix(np.eye(dim, dtype=complex) / dim, w.n)
        assert abs(eval_witness(w, mixed) - w.alpha) < 1e-12


def test_eval_witness_checks_width(cat, witnesses):
    with pytest.raises(ValueError):
        eval_witness(witnesses["ghz4"], cat["ghz3"].state)


def _witness_at(g: HSOperator, alpha: float = 0.75) -> witness.Witness:
    """A witness on G with a given alpha; eval_witness reads nothing else."""
    return witness.Witness(g, AlphaResult(alpha, ProductState(((0.0, 0.0),) * g.n), 1, 0, True, 1))


def _full_rank_state(rng: np.random.Generator, n: int) -> DensityMatrix:
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T  # positive by construction, so the plain constructor's checks suffice
    return DensityMatrix(rho / np.trace(rho).real, n)


def _kernel(rng: np.random.Generator, n: int, terms: int) -> HSOperator:
    """Identity-free G on ``terms`` random strings plus Y...Y and Z, X, Y, Z, X, ... in turn."""
    table = np.zeros(4**n)
    codes = rng.choice(np.arange(1, 4**n), size=min(terms, 4**n - 1), replace=False)
    table[codes] = rng.normal(size=len(codes))
    for label in ("Y" * n, ("ZXY" * n)[:n]):
        table[HSOperator(n, {label: 1.0}).codes[0]] = rng.normal()
    return HSOperator.from_dense(table.reshape((4,) * n))


def _assert_matches_the_decomposition(g: HSOperator, rho: DensityMatrix) -> witness.Witness:
    w = _witness_at(g)
    want = w.alpha - overlap(g, hs_decompose(rho))
    assert abs(eval_witness(w, rho) - want) <= 1e-12 * (1 + np.abs(g.coeffs).sum())
    return w


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_eval_witness_equals_alpha_minus_the_decomposed_overlap(n):
    rng = np.random.default_rng(100 + n)
    rho = _full_rank_state(rng, n)
    for terms in (1, 3, 12, 60, 4**n - 1) if n <= 8 else (1, 60, 3000, 4**n - 1):
        w = _assert_matches_the_decomposition(_kernel(rng, n, terms), rho)
    # the full-support kernel reads all of rho
    assert len(w._support_plan[0]) == 4**n


@pytest.mark.parametrize("order", ["fortran", "transposed", "strided"])
def test_a_state_from_any_memory_order_is_stored_row_major(order):
    # eval_witness reads rho.matrix flat; a state kept in another order would copy it on every call
    rng = np.random.default_rng(9)
    rho = _full_rank_state(rng, 6).matrix
    source = {
        "fortran": np.asfortranarray(rho),
        "transposed": np.ascontiguousarray(rho.T).T,
        "strided": np.repeat(rho, 2, axis=1)[:, ::2],
    }[order]
    assert not source.flags.c_contiguous and np.array_equal(source, rho)
    state = DensityMatrix(source, 6)
    assert state.matrix.flags.c_contiguous
    assert np.array_equal(state.matrix, rho)
    w = _witness_at(_kernel(rng, 6, 12))
    assert eval_witness(w, state) == eval_witness(w, DensityMatrix(rho, 6))


def test_eval_witness_on_all_y_strings():
    # Tr(Y...Y rho) carries the phase i^n; n = 1..4 covers every power of i, n = 5..8 wrap around
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4, 5, 6, 7, 8):
        _assert_matches_the_decomposition(HSOperator(n, {"Y" * n: 1.3}), _full_rank_state(rng, n))


def test_eval_witness_with_a_full_support_kernel():
    rng = np.random.default_rng(8)
    g = _kernel(rng, 3, 63)
    assert len(g) == 63
    _assert_matches_the_decomposition(g, _full_rank_state(rng, 3))


@pytest.mark.parametrize("step", [1 << 15, 40])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_a_plan_reads_g_s_nonzero_entries_once_on_its_flip_masks(n, step):
    """The plan reads rho[j, k] only where j ^ k is one of G's flip masks (X and Y qubits), once each.

    Its reads are ascending flat positions, two weights each, so any block of
    ``step`` consecutive reads is a slice of the flat plan, and the blocks'
    traces add up to the one-gather trace.
    """
    rng, dim = np.random.default_rng(200 + n), 2**n
    rho = _full_rank_state(rng, n)
    entries = rho.matrix.ravel()
    for terms in (1, 3 * n, 300):
        g = _kernel(rng, n, terms)
        flips = np.isin(g.axes, (1, 2)) @ (1 << np.arange(n - 1, -1, -1))
        picks, weights = hs._trace_plan(g)
        assert len(weights) == 2 * len(picks)
        assert (np.diff(picks) > 0).all()
        rows, columns = np.divmod(picks, dim)
        assert np.isin(rows ^ columns, flips).all()
        assert len(picks) <= len(np.unique(flips)) * dim
        blocks = [
            weights[2 * start : 2 * (start + step)] @ entries[picks[start : start + step]].view(float)
            for start in range(0, len(picks), step)
        ]
        whole = hs._trace_on_support((picks, weights), rho)
        assert abs(sum(blocks) - whole) <= 1e-12 * (1 + np.abs(g.coeffs).sum())


def test_each_catalog_witness_reads_only_g_s_nonzero_entries(witnesses):
    reads = {name: len(w._support_plan[0]) for name, w in witnesses.items()}
    assert reads == {"ghz3": 10, "w3": 28, "ghz4": 18, "w4": 64, "cl4": 8, "mds": 16}


def test_a_witness_plans_once_and_evaluates_as_a_fresh_one(monkeypatch):
    """G's dense matrix is reconstructed when a witness plans, never per state."""
    rng = np.random.default_rng(11)
    g, target = _kernel(rng, 4, 40), _full_rank_state(rng, 4)
    states = []
    for i in range(50):
        if i % 3 == 0:
            angles = tuple((rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)) for _ in range(4))
            states.append(product_state(ProductState(angles)))
        elif i % 3 == 1:
            states.append(mix_white_noise(target, rng.uniform()))
        else:
            states.append(_full_rank_state(rng, 4))
    reconstruct, calls = hs.hs_reconstruct, []
    monkeypatch.setattr(hs, "hs_reconstruct", lambda op: calls.append(op) or reconstruct(op))
    w = _witness_at(g)
    values = [eval_witness(w, rho) for rho in states]
    assert calls == [g]
    assert values == [eval_witness(_witness_at(g), rho) for rho in states]
    assert calls == [g] * (1 + len(states))


def test_eval_witness_does_not_decompose_the_state(cat, witnesses, monkeypatch):
    def refuse(rho):
        raise AssertionError("hs_decompose called")

    monkeypatch.setattr(hs, "hs_decompose", refuse)
    monkeypatch.setattr(witness, "hs_decompose", refuse, raising=False)
    assert abs(eval_witness(witnesses["ghz3"], cat["ghz3"].state) + 4.0) < 1e-9


@pytest.mark.parametrize("n", range(3, 11))
def test_mermin_family_on_ghz_takes_its_closed_forms(n):
    # G = M_n on GHZ_n: alpha = 1, Tr(G rho) = 2^(n-1), so the witness value is 1 - 2^(n-1),
    # pcrit_witness = 2^(1-n) and, with beta_cl = 2^floor(n/2), pcrit_bell = 2^(floor(n/2)-n+1)
    g = mermin(n)
    tol = 1e-12 * 2 ** (n - 1)
    result = alpha_max(g)
    assert abs(result.alpha - 1.0) <= tol
    assert result.starts_at_best == result.starts_used
    value = eval_witness(Witness(g, result), ghz(n))  # one flip mask, X on every qubit: a cheap read
    trace = result.alpha - value
    assert abs(trace - 2 ** (n - 1)) <= tol
    assert abs(value - (1 - 2 ** (n - 1))) <= tol
    assert abs(pcrit_witness(result.alpha, trace) - 2 ** (1 - n)) <= tol
    # test_lhv_bound pins beta_cl == 2^floor(n/2) for n = 3..10; past n = 8 this test does not pay for it again
    beta_cl = classical_bound(g).beta_cl if n <= 8 else 2 ** (n // 2)
    assert abs(pcrit_bell(beta_cl, trace) - 2 ** (n // 2 - n + 1)) <= tol


def test_witnesses_are_nonnegative_on_product_states(cat, witnesses):
    rng = np.random.default_rng(77)
    for name, w in witnesses.items():
        for _ in range(200):
            angles = tuple(
                (rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
                for _ in range(w.n)
            )
            value = eval_witness(w, product_state(ProductState(angles)))
            assert value >= -1e-9, name


def test_noise_linearity(cat, witnesses):
    rng = np.random.default_rng(13)
    for name, entry in cat.items():
        w = witnesses[name]
        trace_g_rho = overlap(entry.g_witness, entry.state_coeffs)
        for p in rng.uniform(0.0, 1.0, 5):
            got = eval_witness(w, mix_white_noise(entry.state, p))
            assert abs(got - (w.alpha - p * trace_g_rho)) < 1e-10


def test_eval_crosses_zero_at_the_critical_noise(cat, witnesses):
    for name, entry in cat.items():
        w = witnesses[name]
        trace_g_rho = overlap(entry.g_witness, entry.state_coeffs)
        pc = pcrit_witness(w.alpha, trace_g_rho)
        assert abs(eval_witness(w, mix_white_noise(entry.state, pc))) < 1e-9
        assert eval_witness(w, mix_white_noise(entry.state, pc + 1e-6)) < 0.0


def test_bell_value_scales_linearly_with_noise(cat):
    for name in ("ghz3", "w3", "ghz4", "w4", "cl4"):
        entry = cat[name]
        beta_cl = float(entry.expected["beta_cl"])
        beta_qu = overlap(entry.bell, entry.state_coeffs)
        pc = pcrit_bell(beta_cl, beta_qu)
        noisy = hs_decompose(mix_white_noise(entry.state, pc))
        assert abs(overlap(entry.bell, noisy) - beta_cl) < 1e-9


def test_bell_operators_have_the_states_as_eigenvectors(cat):
    for name, eigenvalue in (("ghz3", 4.0), ("ghz4", 8.0), ("w4", 6.0)):
        entry = cat[name]
        matrix = hs_reconstruct(entry.bell)
        # the state is pure: pick out its ray and apply the operator
        vec = np.linalg.eigh(entry.state.matrix)[1][:, -1]
        assert np.max(np.abs(matrix @ vec - eigenvalue * vec)) < 1e-10, name


def test_pcrit_bell_values_and_domain():
    assert pcrit_bell(2.0, 4.0) == 0.5
    assert pcrit_bell(2.0, 3.0) == pytest.approx(2 / 3, abs=1e-15)
    assert pcrit_bell(5.0, 6.0) == pytest.approx(5 / 6, abs=1e-15)
    # a value above 1 is meaningful: the operator never violates
    assert pcrit_bell(2.0, 1.5) == pytest.approx(4 / 3, abs=1e-15)
    with pytest.raises(ValueError):
        pcrit_bell(2.0, 0.0)
    with pytest.raises(ValueError):
        pcrit_bell(2.0, -1.0)


def test_pcrit_witness_values_and_domain():
    assert pcrit_witness(1.0, 5.0) == pytest.approx(0.2, abs=1e-15)
    assert pcrit_witness(1.0, 11 / 3) == pytest.approx(3 / 11, abs=1e-15)
    assert pcrit_witness(3.0, 6.0) == 0.5
    with pytest.raises(WitnessIneffectiveError):
        pcrit_witness(1.0, 0.5)
    with pytest.raises(WitnessIneffectiveError):
        pcrit_witness(1.0, 1.0)


def test_entanglement_threshold_of_the_disordered_family(monkeypatch):
    build, probe_state, ascend = witness.mds_g_operator, witness.mds, product_max._ascend
    kernels, probes, ascents = [], [], []

    def ascended(axes, coeffs, blochs, *args):
        ascents.append((axes, coeffs, len(blochs)))
        return ascend(axes, coeffs, blochs, *args)

    monkeypatch.setattr(witness, "mds_g_operator", lambda r: kernels.append(build(r)) or kernels[-1])
    monkeypatch.setattr(witness, "mds", lambda r: probes.append(r) or probe_state(r))
    monkeypatch.setattr(product_max, "_ascend", ascended)
    reconstruct, reconstructed = hs.hs_reconstruct, []
    for module in (hs, states):
        monkeypatch.setattr(module, "hs_reconstruct", lambda op: reconstructed.append(op) or reconstruct(op))
    threshold = mds_entanglement_threshold()
    # one operator and one ascent of every start a bisection, on G(1); the probes build neither
    assert len(kernels) == 1
    assert kernels[0].labels() == ["XXX", "YYY", "ZZZ"] and kernels[0].coeffs.tolist() == [1.0, 1.0, 1.0]
    assert len(ascents) == 1
    axes, coeffs, starts = ascents[0]
    np.testing.assert_array_equal(axes, kernels[0].axes)
    np.testing.assert_array_equal(coeffs, kernels[0].coeffs)
    assert starts == MDS_THRESHOLD_STARTS
    # one reconstruct a bisection plans G(1)'s read, and one a probe builds its state
    assert len(probes) == 32 and len(reconstructed) == 33
    assert reconstructed[0] is kernels[0]
    for r, g in zip(probes, reconstructed[1:]):
        assert g.labels() == ["XXX", "YYY", "ZZZ"] and g.coeffs.tolist() == [r, r, r]
    assert abs(threshold - 1 / 3) <= 1e-9 + 1e-12
    # bit for bit: the bracket is fixed, so this one float fixes the signs at its two
    # ends and at all 30 midpoints (+-+--+--++++--++-+--+-++-++++--+); the nearest
    # midpoint lies 4.9e-11 from the crossing
    assert threshold == 0.33333333355291384
    assert threshold.hex() == "0x1.555555591b0f0p-2"


def test_a_probe_whose_best_value_is_not_finite_raises(monkeypatch):
    ascend = product_max._ascend
    monkeypatch.setattr(product_max, "_ascend", lambda *args: ascend(*args)._replace(values=np.full(16, np.nan)))
    with pytest.raises(ValueError, match="^the ascent overflows the float range; scale the coefficients down$"):
        mds_entanglement_threshold()


def test_threshold_probes_read_the_sign_of_every_per_probe_witness():
    # alpha(G(r)) is r alpha(G(1)) bit for bit, and alpha(G(1)) - Tr(G(1) rho(r)) has the
    # sign of the witness value the per-probe pipeline reads, near the crossing too
    rng = np.random.default_rng(20191)
    rs = np.concatenate((rng.uniform(1e-6, MDS_R_LIMIT, 200), 1 / 3 + rng.uniform(-1e-7, 1e-7, 100)))
    g1 = mds_g_operator(1.0)
    alpha1 = alpha_max(g1, starts=MDS_THRESHOLD_STARTS).alpha
    plan = hs._trace_plan(g1)
    signs = []
    for r in rs.tolist():
        g = mds_g_operator(r)
        result = alpha_max(g, starts=MDS_THRESHOLD_STARTS)
        assert result.alpha == r * alpha1, r
        rho = mds(r)
        probe = alpha1 - hs._trace_on_support(plan, rho)
        assert np.sign(probe) == np.sign(eval_witness(Witness(g, result), rho)), r
        signs.append(np.sign(probe))
    assert signs.count(1.0) > 50 and signs.count(-1.0) > 50


@pytest.mark.parametrize("r,sign", [(0.4, -1.0), (0.3, 1.0), (MDS_R_LIMIT, -1.0)])
def test_witness_sign_straddles_the_threshold(r, sign):
    g = mds_g_operator(r)
    w = witness.Witness(g, alpha_max(g, starts=16))
    value = eval_witness(w, mds(r))
    assert np.sign(value) == sign
    assert abs(value - (r - 3 * r * r)) < 1e-9


def test_threshold_rejects_bad_bracket(monkeypatch):
    monkeypatch.setattr(witness, "MDS_THRESHOLD_R_LO", 0.4)
    monkeypatch.setattr(witness, "MDS_R_LIMIT", 0.5)
    with pytest.raises(ValueError, match="bracket"):
        mds_entanglement_threshold()


# ---------------------------------------------------------------------------
# reports


def test_reports_grade_every_entry_ok(cat):
    for name, entry in cat.items():
        report = analyze(entry)
        rows = entry_rows(entry)
        assert rows and all(ok for *_, ok in rows), (name, rows)
        assert report.witness_value == report.alpha - report.trace_g_rho
        if entry.bell is None:
            assert report.beta_cl is None
            assert report.beta_qu is None
            assert report.pcrit_bell is None
            assert "pcrit_bell" not in report.computed()
        else:
            assert report.bound_result is not None


def test_analyze_propagates_ineffective_witnesses():
    weak = catalog(mds_r=0.2)["mds"]
    with pytest.raises(WitnessIneffectiveError):
        analyze(weak)
