"""Witness construction, evaluation, critical noise, and the benchmark report."""

import dataclasses

import numpy as np
import pytest

from hswit import witness
from hswit.hs import HSOperator, hs_decompose, hs_reconstruct, overlap
from hswit.pauli_core import DensityMatrix
from hswit.product_max import alpha_max
from hswit.states import (
    MDS_R_LIMIT,
    ProductState,
    catalog,
    mds,
    mds_g_operator,
    mix_white_noise,
    product_state,
    product_state_coeffs,
)
from hswit.witness import (
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
    op = w.operator()
    assert op.identity_coefficient == pytest.approx(w.alpha)
    # alpha I minus a traceless sum: trace is alpha times the dimension
    assert np.trace(hs_reconstruct(op)).real == pytest.approx(8 * w.alpha)


def test_witness_rejects_identity_component():
    with pytest.raises(ValueError, match="identity"):
        build_witness(HSOperator(2, {"II": 0.5, "XX": 1.0}))


def test_witness_accepts_precomputed_search(cat):
    g = cat["w4"].g_witness
    result = alpha_max(g, starts=16)
    w = build_witness(g, alpha_result=result)
    assert w.alpha == result.alpha
    with pytest.raises(ValueError):
        build_witness(cat["ghz3"].g_witness, alpha_result=result)


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


def test_entanglement_threshold_of_the_disordered_family():
    threshold = mds_entanglement_threshold()
    assert abs(threshold - 1 / 3) <= 1e-9 + 1e-12
    # bit for bit: the bracket is fixed, so this one float fixes the signs at its two
    # ends and at all 30 midpoints (+-+--+--++++--++-+--+-++-++++--+); the nearest
    # midpoint lies 4.9e-11 from the crossing
    assert threshold == 0.33333333355291384
    assert threshold.hex() == "0x1.555555591b0f0p-2"


@pytest.mark.parametrize("r,sign", [(0.4, -1.0), (0.3, 1.0), (MDS_R_LIMIT, -1.0)])
def test_witness_sign_straddles_the_threshold(r, sign):
    g = mds_g_operator(r)
    w = build_witness(g, alpha_result=alpha_max(g, starts=16))
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
        assert report.all_ok(), (name, report.checks())
        assert report.witness_value == report.alpha - report.trace_g_rho
        if entry.bell is None:
            assert report.beta_cl is None
            assert report.beta_qu is None
            assert report.pcrit_bell is None
            assert "pcrit_bell" not in report.computed()
        else:
            assert report.bound_result is not None


def test_report_catches_a_corrupted_expectation(cat):
    entry = dataclasses.replace(
        cat["ghz3"], expected={**cat["ghz3"].expected, "beta_cl": 3}
    )
    report = analyze(entry)
    checks = report.checks()
    assert not checks["beta_cl"]
    assert not report.all_ok()


def test_analyze_propagates_ineffective_witnesses():
    weak = catalog(mds_r=0.2)["mds"]
    with pytest.raises(WitnessIneffectiveError):
        analyze(weak)


def test_report_checks_skip_unknown_expected_fields(cat):
    entry = dataclasses.replace(
        cat["mds"], expected={**cat["mds"].expected, "threshold_r": 1 / 3}
    )
    report = analyze(entry)
    # threshold is not analyze's job; the report grades only what it computed
    assert "threshold_r" not in report.checks()
    assert report.all_ok()
