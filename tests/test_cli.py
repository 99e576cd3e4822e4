"""End-to-end command tests: formats, exit codes, determinism."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hswit
from hswit import hs, lhv_bound, product_max, states
from hswit.cli import (
    build_parser,
    decompose_text,
    entry_rows,
    load_operator,
    load_state,
    main,
    operator_json,
    verify_entries,
)
from hswit.hs import hs_decompose, hs_reconstruct
from hswit.pauli_core import DensityMatrix
from hswit.states import ENTRY_NAMES, catalog, ghz, mix_white_noise, w_state

from conftest import count_calls, random_density, string_matrix
from make_golden import GOLDEN, REFUSALS, REPORTS, SEEDS
from make_golden import outputs as golden_outputs
from reference import is_close


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def ghz3_file(tmp_path):
    return write_json(tmp_path, "ghz3.json", {"catalog": "ghz3"})


@pytest.fixture
def bell_g3_file(tmp_path):
    doc = {
        "n": 3,
        "terms": [
            {"string": "XXX", "coeff": 1.0},
            {"string": "XYY", "coeff": -1.0},
            {"string": "YXY", "coeff": -1.0},
            {"string": "YYX", "coeff": -1.0},
        ],
    }
    return write_json(tmp_path, "bell_g3.json", doc)


# ---------------------------------------------------------------------------
# decompose


def test_decompose_text_output(ghz3_file, capsys):
    assert main(["decompose", ghz3_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n 3"
    assert lines[1] == "terms 8"
    assert "XXX 1" in lines
    assert "XYY -1" in lines
    words = [line.split()[0] for line in lines[2:]]
    assert words == sorted(words)


def test_decompose_round_trips_the_state(tmp_path, capsys):
    state_file = write_json(
        tmp_path, "noisy.json", {"catalog": "w3", "params": {"p": 0.5}}
    )
    assert main(["decompose", state_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    op = load_operator(doc)
    want = mix_white_noise(w_state(3), 0.5).matrix
    assert np.max(np.abs(hs_reconstruct(op) / 8 - want)) < 1e-10


def test_decompose_threshold_filters_small_terms(tmp_path, capsys):
    state_file = write_json(tmp_path, "w3.json", {"catalog": "w3"})
    assert main(["decompose", state_file, "--threshold", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # only the unit-magnitude entries survive: III, ZZZ, and the
    # 2/3-coefficient words are filtered at 0.5... which keeps them
    words = {line.split()[0] for line in lines[2:]}
    assert "III" in words
    assert "ZZZ" in words
    assert "ZZI" not in words  # magnitude 1/3


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_decompose_labels_only_the_kept_terms(tmp_path, monkeypatch, capsys, flags):
    rho = random_density(np.random.default_rng(3), 4)
    entries = [[z.real, z.imag] for z in rho.matrix.ravel().tolist()]
    state_file = write_json(tmp_path, "n4.json", {"matrix": 4, "entries": entries})
    coeffs = hs_decompose(rho)
    kept = np.abs(coeffs.coeffs) >= 0.05
    assert 0 < kept.sum() < len(coeffs) == 256
    labelled = count_calls(monkeypatch, hs, "_labels")
    assert main(["decompose", state_file, "--threshold", "0.05", *flags]) == 0
    out = capsys.readouterr().out
    assert [len(codes) for codes, _ in labelled] == [kept.sum()]
    words = coeffs.labels()
    want = [(w, v) for w, v, k in zip(words, coeffs.coeffs.tolist(), kept) if k]
    if flags:
        assert out == operator_json(4, *map(list, zip(*want))) + "\n"
    else:
        assert out == decompose_text(4, *map(list, zip(*want))) + "\n"


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_decompose_rejects_a_non_finite_threshold(ghz3_file, capsys, threshold):
    assert main(["decompose", ghz3_file, "--threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--threshold" in captured.err


@pytest.mark.parametrize("threshold", ["1e-14", "0", "-1"])
def test_decompose_refuses_a_threshold_below_the_pruning_tolerance(tmp_path, capsys, threshold):
    # X = 5e-13 is already gone from the decomposition, so no threshold below 1e-12 could keep it
    state = {"matrix": 1, "entries": [[0.5, 0.0], [2.5e-13, 0.0], [2.5e-13, 0.0], [0.5, 0.0]]}
    state_file = write_json(tmp_path, "x.json", state)
    assert main(["decompose", state_file, "--threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --threshold must be at least 1e-12, got {float(threshold)}\n"
    assert main(["decompose", state_file, "--threshold", "1e-12"]) == 0
    assert capsys.readouterr().out == "n 1\nterms 1\nI 1\n"


def test_decompose_matrix_state(tmp_path, capsys):
    entries = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    state_file = write_json(tmp_path, "diag.json", {"matrix": 1, "entries": entries})
    assert main(["decompose", state_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"n": 1, "terms": [{"string": "I", "coeff": 1.0}]}


def test_a_state_inside_the_hermiticity_tolerance_decomposes_as_its_hermitian_part(tmp_path, capsys):
    # the residual |M - M*| is 9.8e-11, inside HERMITIAN_ATOL, yet the XXXXXXXX coefficient's imaginary part
    # is 256 * 0.49e-10 = 1.25e-8: the state is accepted, and the decomposition keeps the real parts
    n = 8
    mat = np.eye(2**n) / 2**n + 0.49e-10j * string_matrix("X" * n)
    want = hs_decompose(DensityMatrix((mat + mat.conj().T) / 2, n))
    assert is_close(hs_decompose(DensityMatrix.from_matrix(mat)), want, atol=0.0)
    entries = [[z.real, z.imag] for z in mat.ravel().tolist()]
    assert main(["decompose", write_json(tmp_path, "skew.json", {"matrix": n, "entries": entries}), "--json"]) == 0
    assert capsys.readouterr() == (operator_json(n, want.labels(), want.coeffs.tolist()) + "\n", "")


def _state_docs():
    yield from ({"catalog": name} for name in ENTRY_NAMES)
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        entries = [[z.real, z.imag] for z in random_density(rng, n).matrix.ravel().tolist()]
        yield {"matrix": n, "entries": entries}


def test_decompose_json_is_the_bytes_of_json_dumps(tmp_path, capsys):
    # the writer joins repr()s; json.dumps writes a finite float as its repr too
    for k, doc in enumerate(_state_docs()):
        assert main(["decompose", write_json(tmp_path, f"state{k}.json", doc), "--json"]) == 0
        op = hs_decompose(load_state(doc))
        terms = [{"string": w, "coeff": c} for w, c in zip(op.labels(), op.coeffs.tolist())]
        assert capsys.readouterr().out == json.dumps({"n": op.n, "terms": terms}) + "\n"


# repr writes a float's exponent from 1e16 up and below 1e-4; format(.12g) from 1e12 up and below 1e-4
_EXPONENT_SWITCHES = st.one_of(
    st.floats(min_value=1e15, max_value=1e17),
    st.floats(min_value=1e-5, max_value=1e-3),
    st.floats(allow_nan=False, allow_infinity=False),
).map(lambda x: x if x else 1.0)  # a kept coefficient is never zero
_EDGES = [1e16, np.nextafter(1e16, 0), 1e-4, np.nextafter(1e-4, 0), 1e12, 5e-324, 1.7976931348623157e308]
_WORDS = ["".join(w) for w in itertools.product("IXYZ", repeat=3)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(_EXPONENT_SWITCHES, st.booleans()), max_size=len(_WORDS)))
@example([(float(x), False) for x in _EDGES] + [(float(x), True) for x in _EDGES])
def test_the_writers_equal_json_dumps_and_the_format_template(signed):
    values = [-x if negative else x for x, negative in signed]
    words = _WORDS[: len(values)]
    terms = [{"string": w, "coeff": c} for w, c in zip(words, values)]
    assert operator_json(3, words, values) == json.dumps({"n": 3, "terms": terms})
    lines = ["n 3", f"terms {len(words)}", *map("{} {:.12g}".format, words, values)]
    assert decompose_text(3, words, values) == "\n".join(lines)


@pytest.mark.parametrize("flags,out", [([], "n 3\nterms 0\n"), (["--json"], json.dumps({"n": 3, "terms": []}) + "\n")])
def test_decompose_with_no_kept_terms(ghz3_file, capsys, flags, out):
    # every ghz3 coefficient has magnitude 1
    assert main(["decompose", ghz3_file, "--threshold", "1.5", *flags]) == 0
    assert capsys.readouterr() == (out, "")


def test_decompose_mds_r_zero_is_identity_only(tmp_path, capsys):
    for r in (0, 0.0, -0.0, 1e-15):
        state_file = write_json(tmp_path, "mds0.json", {"catalog": "mds", "params": {"R": r}})
        assert main(["decompose", state_file]) == 0
        assert capsys.readouterr() == ("n 3\nterms 1\nIII 1\n", "")


def test_decompose_mds_at_a_negative_r(tmp_path, capsys):
    # every |R| <= 1/sqrt(3) is a state, the witness's range R > 1/3 or not
    state_file = write_json(tmp_path, "mds.json", {"catalog": "mds", "params": {"R": -0.3, "p": 0.5}})
    assert main(["decompose", state_file]) == 0
    assert capsys.readouterr() == ("n 3\nterms 4\nIII 1\nXXX -0.15\nYYY -0.15\nZZZ -0.15\n", "")


@pytest.mark.parametrize("r", [0.9, -0.9])
def test_decompose_refuses_an_mds_r_past_the_state_range(tmp_path, capsys, r):
    state_file = write_json(tmp_path, "mds.json", {"catalog": "mds", "params": {"R": r}})
    assert main(["decompose", state_file]) == 1
    assert capsys.readouterr() == ("", f"error: mds requires |r| <= 1/sqrt(3) ~ 0.577350, got {r}\n")


# ---------------------------------------------------------------------------
# bound and alpha


def test_bound_text_and_json(bell_g3_file, capsys):
    assert main(["bound", bell_g3_file]) == 0
    out = capsys.readouterr().out
    assert "beta_cl 2" in out
    assert "qubit 0:" in out
    assert main(["bound", bell_g3_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["beta_cl"] == 2.0
    assert len(doc["maximizer"]) == 3


def test_bound_empty_operator(tmp_path, capsys):
    op_file = write_json(tmp_path, "empty.json", {"n": 2, "terms": []})
    assert main(["bound", op_file]) == 0
    assert "beta_cl 0" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["bound", "alpha"])
@pytest.mark.parametrize("terms,word,value", [
    ({"XX": 1e-13, "ZZ": 1e-13}, "XX", "1e-13"),  # beta_cl 2e-13 and alpha 1e-13 would print as 0.0
    ({"XX": 1.0, "ZZ": 4e-13}, "ZZ", "4e-13"),  # 1.0000000000004 would print as 1.0
    ({"ZZ": 3e-13, "XX": 2e-13}, "ZZ", "3e-13"),  # the first in file order, not in label order
])
def test_bound_and_alpha_refuse_a_coefficient_below_the_pruning_tolerance(
    tmp_path, capsys, command, terms, word, value
):
    doc = {"n": 2, "terms": [{"string": w, "coeff": c} for w, c in terms.items()]}
    op_file = write_json(tmp_path, "tiny.json", doc)
    for flags in ([], ["--json"]):
        assert main([command, op_file, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: coefficient of '{word}' is {value}, below the tolerance 1e-12 under which terms are dropped;"
            " scale the operator up\n"
        )


def test_alpha_text_json_and_grid(bell_g3_file, capsys):
    assert main(["alpha", bell_g3_file]) == 0
    out = capsys.readouterr().out
    assert "alpha 1" in out
    assert "converged true" in out
    assert main(["alpha", bell_g3_file, "--grid-check", "8", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == pytest.approx(1.0, abs=1e-9)
    assert doc["grid_value"] <= doc["alpha"] + 1e-9
    assert len(doc["argmax"]) == 3


def test_alpha_is_deterministic(bell_g3_file, capsys):
    assert main(["alpha", bell_g3_file]) == 0
    first = capsys.readouterr().out
    assert main(["alpha", bell_g3_file]) == 0
    assert capsys.readouterr().out == first


def test_alpha_rejects_tiny_grid(bell_g3_file, capsys):
    assert main(["alpha", bell_g3_file, "--grid-check", "2"]) == 2


@pytest.mark.parametrize("flags", [
    ["--grid-check", "2"],
    ["--starts", "0"],
    ["--starts", "-3"],
    ["--seed", "-1"],
    ["--seed", str(2**64)],
])
def test_alpha_bad_arguments_exit_two(bell_g3_file, capsys, flags):
    assert main(["alpha", bell_g3_file, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_alpha_refuses_a_grid_past_its_budget_before_the_ascent(bell_g3_file, monkeypatch, capsys, flags):
    def no_ascent(*args, **kwargs):
        raise AssertionError("alpha_max ran before the grid budget refused")

    monkeypatch.setattr("hswit.cli.alpha_max", no_ascent)
    assert main(["alpha", bell_g3_file, "--grid-check", "25", *flags]) == 1  # 650^3 points
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid of 274625000 points exceeds the budget of 250000000; lower divisions\n"


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_alpha_past_memory_prints_one_error_line(bell_g3_file, capsys, flags):
    # alpha_max's per-start values array would take 8e17 bytes, more than any address space holds, so numpy
    # refuses it without allocating
    assert main(["alpha", bell_g3_file, "--starts", str(10**17), *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_alpha_accepts_the_largest_seed(bell_g3_file, capsys):
    assert main(["alpha", bell_g3_file, "--seed", str(2**64 - 1), "--starts", "1"]) == 0
    assert "starts_used 1" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# report and verify


def test_report_ghz3(capsys):
    assert main(["report", "ghz3"]) == 0
    out = capsys.readouterr().out
    assert "name ghz3" in out
    assert "beta_cl 2 expected 2 ok" in out
    assert "pcrit_witness 0.2 expected 0.2 ok" in out
    assert "all_ok true" in out


def test_report_mds_includes_the_threshold(capsys):
    assert main(["report", "mds"]) == 0
    out = capsys.readouterr().out
    assert "threshold_r" in out
    assert "all_ok true" in out


def test_report_json(capsys):
    assert main(["report", "w4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_ok"] is True
    assert doc["fields"]["beta_cl"]["computed"] == 5.0


# `report`'s text for every entry and three mds scales, and the two refusals, byte for byte as the golden file
# holds them (text only: --json prints alpha to the last bit)
_GOLDEN = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("args", REPORTS)
def test_report_text_is_byte_identical(capsys, args):
    assert main(["report", *args]) == 0
    out, err = capsys.readouterr()
    assert _GOLDEN[" ".join(["report", *args])] == {"exit": 0, "stdout": out, "stderr": err} and err == ""


@pytest.mark.parametrize("args", REFUSALS)
def test_report_refusals_are_byte_identical(capsys, args):
    assert main(["report", *args]) == 1
    out, err = capsys.readouterr()
    assert _GOLDEN[" ".join(["report", *args])] == {"exit": 1, "stdout": out, "stderr": err} and out == ""


def test_report_mds_with_ineffective_scale(capsys):
    assert main(["report", "mds", "--mds-r", "0.2"]) == 1
    assert "witness" in capsys.readouterr().err


def test_one_name_builds_one_entry(ghz3_file, monkeypatch, capsys):
    built = []
    for name, build in states._BUILDERS.items():
        monkeypatch.setitem(states._BUILDERS, name, lambda *args, build=build: built.append(args[0]) or build(*args))
    for argv in (["report", "ghz3"], ["report", "ghz3", "--mds-r", "0.4"], ["decompose", ghz3_file]):
        built.clear()
        assert main(argv) == 0
        assert built == ["ghz3"], argv
    capsys.readouterr()


def test_verify_passes_and_is_byte_identical(capsys):
    assert main(["verify"]) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[-1].startswith("RESULT PASS")
    assert "mds threshold_r" in first
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == first


def test_outputs_match_the_golden_file(generated_by_seed):
    # every printed byte that follows neither the BLAS thread count nor the BLAS kernel: the 40 graded rows
    # and the verdict, the reports and refusals, bound on the seed 1-3 operator files and decompose on their
    # catalog and non-positive state files, as tests/make_golden.py wrote them; a changed printed digit is a
    # changed paper number
    root = generated_by_seed(SEEDS[0]).parent
    for seed in SEEDS:
        generated_by_seed(seed)
    runs = golden_outputs(root)
    assert list(runs) == list(_GOLDEN)
    assert {argv: run for argv, run in runs.items() if run != _GOLDEN[argv]} == {}


def test_verify_json(capsys):
    assert main(["verify", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    assert set(doc["results"]) == {"ghz3", "w3", "ghz4", "w4", "cl4", "mds"}
    assert doc["results"]["w3"]["pcrit_witness"] is True


def test_verify_names_a_corrupted_field(monkeypatch, capsys):
    entries = catalog()
    entries["ghz3"] = dataclasses.replace(
        entries["ghz3"], expected={**entries["ghz3"].expected, "beta_cl": 3}
    )
    monkeypatch.setattr("hswit.cli.catalog", lambda **kw: entries)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "ghz3 beta_cl 2 expected 3 FAIL" in out
    assert out.splitlines()[-1].startswith("RESULT FAIL")


def test_rows_follow_the_order_of_the_expected_fields(cat):
    entry = cat["w3"]
    reversed_entry = dataclasses.replace(entry, expected=dict(reversed(entry.expected.items())))
    assert entry_rows(reversed_entry) == entry_rows(entry)[::-1]


def test_verify_entries_reports_rows(cat):
    rows, all_pass = verify_entries([cat["w3"]])
    assert all_pass
    assert [r[1] for r in rows][:3] == ["beta_cl", "beta_qu", "pcrit_bell"]
    assert all(len(r) == 5 for r in rows)


# ---------------------------------------------------------------------------
# parsing and exit codes


def test_operator_document_round_trip(cat):
    op = cat["w4"].bell
    doc = json.loads(operator_json(op.n, op.labels(), op.coeffs.tolist()))
    assert is_close(load_operator(doc), op, atol=0.0)


def test_usage_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["decompose", missing]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    assert main(["bound", str(bad_json)]) == 2
    # an integer literal past Python's int-string digit limit is a parse error, not a ValueError
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"n": 2, "terms": [{"string": "XX", "coeff": 1' + "0" * 5000 + "}]}")
    capsys.readouterr()
    assert main(["bound", str(long_int)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {long_int} is not valid JSON:")
    cases = [
        {"n": 2, "terms": [{"string": "XQ", "coeff": 1.0}]},
        {"n": 2, "terms": [{"string": "XXX", "coeff": 1.0}]},
        {"n": 2, "terms": [{"string": "XX", "coeff": 1.0}, {"string": "XX", "coeff": 2.0}]},
        {"n": 2, "terms": [{"string": "XX", "coeff": "one"}]},
        {"n": 2, "terms": [{"string": "XX", "coeff": 1.0, "extra": 0}]},
        {"n": 0, "terms": []},
        {"terms": []},
        [1, 2, 3],
    ]
    for i, doc in enumerate(cases):
        path = write_json(tmp_path, f"op{i}.json", doc)
        assert main(["bound", path]) == 2, doc
        assert capsys.readouterr().err.startswith("error:")


def test_state_parse_errors_exit_two(tmp_path, capsys):
    cases = [
        {"catalog": "nope"},
        {"catalog": "ghz3", "params": {"R": 0.5}},
        {"catalog": "ghz3", "extra": 1},
        {"matrix": 1, "entries": [[1.0, 0.0]]},
        {"matrix": 1, "entries": [[1.0], [0.0], [0.0], [0.0]]},
        {"matrix": "two", "entries": []},
        {},
    ]
    for i, doc in enumerate(cases):
        path = write_json(tmp_path, f"st{i}.json", doc)
        assert main(["decompose", path]) == 2, doc
        assert capsys.readouterr().err.startswith("error:")


def test_semantic_errors_exit_one(tmp_path, capsys):
    cases = [
        {"catalog": "w3", "params": {"p": 1.5}},
        {"catalog": "mds", "params": {"R": 0.9}},
        {"matrix": 1, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
        {"matrix": 1, "entries": [[1.5, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.5, 0.0]]},
        {"matrix": 1, "entries": [[float("nan"), 0.0]] * 4},
        {"catalog": "ghz3", "params": {"p": 10**400}},
    ]
    for i, doc in enumerate(cases):
        path = write_json(tmp_path, f"bad{i}.json", doc)
        assert main(["decompose", path]) == 1, doc
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="int400")]
)
@pytest.mark.parametrize("command", ["bound", "alpha"])
def test_non_finite_coefficients_exit_one(tmp_path, capsys, command, value):
    doc = {"n": 2, "terms": [{"string": "XX", "coeff": value}, {"string": "ZZ", "coeff": 1.0}]}
    path = write_json(tmp_path, "nonfinite.json", doc)
    assert main([command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "finite" in captured.err


@pytest.mark.parametrize(
    "terms", [{"X": 1e308, "Y": 1e308, "Z": 1e308}, {"XX": 1e308, "ZZ": 1e308}], ids=["XYZ", "XX_ZZ"]
)
@pytest.mark.parametrize("command", ["bound", "alpha"])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_values_past_the_float_range_exit_one(tmp_path, capsys, command, terms, flags):
    doc = {"n": len(next(iter(terms))), "terms": [{"string": w, "coeff": c} for w, c in terms.items()]}
    path = write_json(tmp_path, "overflow.json", doc)
    assert main([command, path, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "overflow" in captured.err


def _python(args, stdout=subprocess.PIPE, unbuffered=True, run=subprocess.run, env=None):
    """``python ARGS`` in a fresh process that imports this checkout's hswit, with ``env`` added to the
    environment, started by ``run``."""
    src = str(Path(hswit.__file__).resolve().parents[1])
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=env, text=True)


def _hswit(argv, **kwargs):
    """``python -m hswit ARGV`` in a fresh process, as ``_python`` starts it."""
    return _python(["-m", "hswit", *argv], **kwargs)


_ASCENT_OVERFLOWS = "the ascent overflows the float range; scale the coefficients down"


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("bound", [], "an assignment's value overflows the float range; no finite classical bound"),
        ("alpha", [], _ASCENT_OVERFLOWS),
        ("alpha", ["--grid-check", "4"], _ASCENT_OVERFLOWS),
    ],
    ids=["bound", "alpha", "alpha_grid"],
)
@pytest.mark.parametrize(
    "terms", [{"X": 1e308, "Y": 1e308, "Z": 1e308}, {"XX": 1e308, "ZZ": 1e308}], ids=["XYZ", "XX_ZZ"]
)
def test_bound_past_the_float_range_prints_one_error_line(tmp_path, command, flags, message, terms):
    # a fresh process shows numpy's RuntimeWarnings, which pytest would turn into errors
    doc = {"n": len(next(iter(terms))), "terms": [{"string": w, "coeff": c} for w, c in terms.items()]}
    proc = _hswit([command, write_json(tmp_path, "overflow.json", doc), *flags])
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "entries,message",
    [
        ("[[0.5, 0], [1e308, 0], [-1e308, 0], [0.5, 0]]", "matrix is not Hermitian"),  # the residual overflows
        ("[[1e308, 0], [0, 0], [0, 0], [1e308, 0]]", "trace must be 1, got (inf+0j)"),  # the trace overflows
        ("[[NaN, 0], [0, 0], [0, 0], [0.5, 0]]", "matrix has non-finite entries"),
        ("[[0.5, 0], [0, Infinity], [0, 0], [0.5, 0]]", "matrix has non-finite entries"),
    ],
    ids=["residual_overflow", "trace_overflow", "nan", "infinity"],
)
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_bad_matrix_state_prints_one_error_line(tmp_path, entries, message, flags):
    # a fresh process shows numpy's RuntimeWarnings, which pytest would turn into errors; json.load reads
    # the literals NaN and Infinity as non-finite floats
    path = tmp_path / "state.json"
    path.write_text(f'{{"matrix": 1, "entries": {entries}}}')
    proc = _hswit(["decompose", str(path), *flags])
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_141_and_writes_no_stderr(unbuffered):
    # unbuffered, the first print meets the closed pipe; buffered, main's flush does
    read, write = os.pipe()
    os.close(read)  # no reader left: every write to the pipe fails with EPIPE
    try:
        proc = _hswit(["verify"], stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_that_leaves_after_one_line_sees_no_stderr(unbuffered):
    # as `hswit verify | head -n 1`: exit 141, or 0 if every line reached the pipe before the reader left
    with _hswit(["verify"], unbuffered=unbuffered, run=subprocess.Popen) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert first and proc.returncode in (0, 141) and err == ""


def _generated_files(directory, *kinds):
    return [str(p) for kind in kinds for p in sorted(directory.glob(f"{kind}_*.json"))]


def _invariant_commands(directory):
    """The commands whose stdout may depend on neither the BLAS thread count nor the block size: bound on
    every Bell, kernel and operator file, the six reports, alpha on every kernel and operator file
    (without the grid oracle, whose grouping of products follows the block and BLAS), and decompose on
    every state file, whose per-qubit matrix products are the HS transforms."""
    return (
        [["bound", f, "--json"] for f in _generated_files(directory, "bell", "kernel", "op")]
        + [["report", name, "--json"] for name in ENTRY_NAMES]
        + [["alpha", f, "--json"] for f in _generated_files(directory, "kernel", "op")]
        + [["decompose", f, "--json"] for f in _generated_files(directory, "state")]
    )


def test_bounds_and_maxima_do_not_depend_on_the_block_size(generated, monkeypatch, capsys):
    # every blocked loop sizes its blocks from BLOCK_ELEMENTS, and the block size may not change a byte:
    # the invariant commands, and alpha on the Bell files too, at the default and at 4,096 entries
    argvs = _invariant_commands(generated) + [["alpha", f, "--json"] for f in _generated_files(generated, "bell")]
    assert Counter(argv[0] for argv in argvs) == {"bound": 19, "report": 6, "alpha": 19, "decompose": 4}
    default = [_run(capsys, argv)[:2] for argv in argvs]
    monkeypatch.setattr(lhv_bound, "BLOCK_ELEMENTS", 4096)
    monkeypatch.setattr(product_max, "BLOCK_ELEMENTS", 4096)
    small = [_run(capsys, argv)[:2] for argv in argvs]
    assert all(rc == 0 for rc, _ in default)
    assert small == default


# runs each command of the JSON list in argv[1] in-process, then prints one JSON document: each command's
# [exit code, stdout], and the process's thread count from /proc/self/status after the runs (null without /proc)
_RUN_COMMANDS = """
import contextlib, io, json, os, sys
from hswit.cli import main

runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runs.append([main(argv), out.getvalue()])
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
print(json.dumps({"runs": runs, "threads": threads}))
"""


def test_bounds_reports_and_maxima_do_not_depend_on_the_blas_thread_count(generated):
    # the screen's letter sums, the ascent's products and the HS transforms' matrix products round
    # differently with each thread count, and the output may not change by a byte; OPENBLAS_NUM_THREADS is
    # read only when numpy loads, so each count runs every command in a process of its own
    argvs = _invariant_commands(generated)
    assert Counter(argv[0] for argv in argvs) == {"bound": 19, "report": 6, "alpha": 14, "decompose": 4}
    runs = {}
    for threads in (1, 2):
        proc = _python(["-c", _RUN_COMMANDS, json.dumps(argvs)], env={"OPENBLAS_NUM_THREADS": str(threads)})
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = json.loads(proc.stdout)
        if doc["threads"] is not None:  # the setting took effect: BLAS started its threads, up to one a CPU
            assert doc["threads"] == min(threads, len(os.sched_getaffinity(0)))
        runs[threads] = doc["runs"]
    assert all(rc == 0 for rc, _ in runs[1])
    assert runs[2] == runs[1]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_grid_value_is_below_alpha_and_changes_no_other_field(generated_by_seed, capsys, seed):
    directory = generated_by_seed(seed)
    cases = [(f, 6) for f in _generated_files(directory, "op_n4")]
    cases += [(str(directory / f"kernel_{name}.json"), 8) for name in ("ghz3", "w3", "mds")]
    assert len(cases) == 5
    for f, divisions in cases:
        rc, out, _ = _run(capsys, ["alpha", f, "--json"])
        rc_grid, out_grid, _ = _run(capsys, ["alpha", f, "--json", "--grid-check", str(divisions)])
        assert (rc, rc_grid) == (0, 0)
        plain, grid = json.loads(out), json.loads(out_grid)
        value = grid.pop("grid_value")
        assert value <= plain["alpha"] + 1e-9, f
        assert grid == plain, f


def test_generated_states_decompose_and_the_non_positive_one_is_refused(generated, capsys):
    states = _generated_files(generated, "state")
    assert len(states) == 4
    for flags in ([], ["--json"]):
        for f in states:
            assert _run(capsys, ["decompose", f, *flags])[0] == 0
        rc, out, err = _run(capsys, ["decompose", str(generated / "non_psd_n4.json"), *flags])
        assert (rc, out) == (1, "") and err.startswith("error:")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eigvalsh_runs_only_on_the_refused_generated_state(generated_by_seed, monkeypatch, capsys, seed):
    # the Cholesky test accepts every generated state; eigvalsh runs once, for the non-positive one's message
    calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
    directory = generated_by_seed(seed)
    for f in _generated_files(directory, "state", "catalog"):
        assert _run(capsys, ["decompose", f, "--json"])[0] == 0
    assert len(calls) == 0
    assert _run(capsys, ["decompose", str(directory / "non_psd_n4.json"), "--json"])[0] == 1
    assert [matrix.shape for matrix, in calls] == [(16, 16)]


@pytest.mark.parametrize("n", [40, 10**7])
def test_matrix_state_is_checked_against_the_cap_before_its_size(tmp_path, monkeypatch, capsys, n):
    monkeypatch.delenv("WITNESS_QUBIT_CAP", raising=False)
    path = write_json(tmp_path, "wide.json", {"matrix": n, "entries": []})
    assert main(["decompose", path]) == 1
    assert capsys.readouterr().err == f"error: {n} qubits exceeds the cap of 10 (set WITNESS_QUBIT_CAP to raise it)\n"


def test_qubit_cap_applies_to_loaded_operators(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WITNESS_QUBIT_CAP", "2")
    doc = {"n": 3, "terms": [{"string": "XXX", "coeff": 1.0}]}
    path = write_json(tmp_path, "wide.json", doc)
    assert main(["alpha", path]) == 1
    assert "cap" in capsys.readouterr().err


def test_argparse_usage_exits_two(capsys):
    assert main(["bound"]) == 2
    capsys.readouterr()
    assert main(["report", "unknown"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "decompose" in capsys.readouterr().out


def _run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_a_reused_parser_carries_nothing_between_calls(capsys):
    again = (["report", "mds"], ["verify"])
    first = []
    for argv in again:
        build_parser.cache_clear()
        first.append(_run(capsys, argv))
    built = build_parser.cache_info().misses
    assert _run(capsys, ["report", "mds", "--mds-r", "0.4", "--json"])[0] == 0
    assert _run(capsys, ["bound"])[0] == 2
    assert _run(capsys, ["--help"])[0] == 0
    assert [_run(capsys, argv) for argv in again] == first
    assert build_parser.cache_info().misses == built  # one parser served every call
