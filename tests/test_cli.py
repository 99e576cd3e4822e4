"""End-to-end command tests: formats, exit codes, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from hswit.cli import load_operator, main, operator_document, verify_entries
from hswit.hs import hs_reconstruct
from hswit.states import catalog, ghz, mix_white_noise, w_state


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


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_decompose_rejects_a_non_finite_threshold(ghz3_file, capsys, threshold):
    assert main(["decompose", ghz3_file, "--threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--threshold" in captured.err


def test_decompose_matrix_state(tmp_path, capsys):
    entries = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    state_file = write_json(tmp_path, "diag.json", {"matrix": 1, "entries": entries})
    assert main(["decompose", state_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"n": 1, "terms": [{"string": "I", "coeff": 1.0}]}


def test_decompose_mds_r_zero_is_identity_only(tmp_path, capsys):
    state_file = write_json(
        tmp_path, "mds0.json", {"catalog": "mds", "params": {"R": 1e-15}}
    )
    assert main(["decompose", state_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "terms 1"
    assert lines[2] == "III 1"


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


def test_report_mds_with_ineffective_scale(capsys):
    assert main(["report", "mds", "--mds-r", "0.2"]) == 1
    assert "witness" in capsys.readouterr().err


def test_verify_passes_and_is_byte_identical(capsys):
    assert main(["verify"]) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[-1].startswith("RESULT PASS")
    assert "mds threshold_r" in first
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == first


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


def test_verify_entries_reports_rows(cat):
    rows, all_pass = verify_entries([cat["w3"]])
    assert all_pass
    assert [r[1] for r in rows][:3] == ["beta_cl", "beta_qu", "pcrit_bell"]
    assert all(len(r) == 5 for r in rows)


# ---------------------------------------------------------------------------
# parsing and exit codes


def test_operator_document_round_trip(cat):
    op = cat["w4"].bell
    assert load_operator(operator_document(op)).is_close(op, atol=0.0)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
