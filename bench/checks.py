"""Checks of hswit's outputs against the paper and the independent oracles.

Each check takes the record of one operation and returns a list of
problems (empty when the output is right).  Only ``oracle`` and
``paper`` are consulted; nothing here imports hswit.
"""

from __future__ import annotations

import numpy as np

import oracle
import paper

ATOL = 1e-9
SAMPLED_ASSIGNMENTS = 4096
SAMPLED_PRODUCTS = 2048
SAMPLED_WORDS = 200  # Tr(rho sigma_s) strings checked above FULL_CHECK_N
FULL_CHECK_N = 5


def _close(problems: list, label: str, got, want, atol: float = ATOL) -> None:
    if not abs(float(got) - float(want)) <= atol:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def _rc(problems: list, label: str, record: dict, want: int) -> bool:
    if record.get("rc") != want:
        problems.append(f"{label}: exit {record.get('rc')}, want {want}")
        return False
    return True


def sample_words(n: int, seed: int) -> list[str]:
    """Every word for n <= FULL_CHECK_N, else a seeded sample that includes I^n."""
    if n <= FULL_CHECK_N:
        return oracle.all_words(n)
    rng = np.random.default_rng([seed, n])
    words = {"I" * n}
    while len(words) < SAMPLED_WORDS:
        words.add("".join(rng.choice(list("IXYZ"), size=n)))
    return sorted(words)


def check_verify(record: dict) -> list[str]:
    problems: list[str] = []
    if not _rc(problems, "verify", record, 0):
        return problems
    want = {
        f"{name} {field}": value
        for name in paper.ENTRIES
        for field, value in paper.expected(name).items()
    }
    if set(record["rows"]) != set(want):
        problems.append(f"verify rows {sorted(record['rows'])} differ from the paper's fields")
    for key, value in want.items():
        if key in record["rows"]:
            _close(problems, f"verify {key}", record["rows"][key], value)
    if record.get("result", "PASS") != "PASS":
        problems.append(f"verify verdict {record['result']}")
    return problems


def check_report(record: dict, name: str, mds_r: float | None) -> list[str]:
    problems: list[str] = []
    label = f"report {name}" + (f" --mds-r {mds_r}" if mds_r is not None else "")
    if not _rc(problems, label, record, 0):
        return problems
    want = paper.expected(name, paper.DEFAULT_MDS_R if mds_r is None else mds_r)
    if set(record["rows"]) != set(want):
        problems.append(f"{label}: fields {sorted(record['rows'])}, want {sorted(want)}")
    for field, value in want.items():
        if field in record["rows"]:
            _close(problems, f"{label} {field}", record["rows"][field], value)
    if not record.get("all_ok", True):
        problems.append(f"{label}: all_ok false")
    return problems


class WitnessOracle:
    """Dense G matrices and reference states of the catalog, built once."""

    def __init__(self) -> None:
        self.g = {name: oracle.operator_matrix(paper.witness_kernel(name)) for name in paper.ENTRIES}
        self.states = {name: paper.state_matrix(name) for name in paper.ENTRIES}

    def check(self, record: dict, ev) -> list[str]:
        problems: list[str] = []
        label = f"eval {ev.entry} {ev.kind} {ev.payload}"
        _close(problems, f"{label} alpha", record["alpha"], paper.expected(ev.entry)["alpha"])
        if ev.kind == "product":
            rho = oracle.product_density(ev.payload)
            if record["value"] < -ATOL:
                problems.append(f"{label}: negative on a product state ({record['value']})")
        else:
            rho = oracle.white_noise(self.states[ev.entry], ev.payload)
        want = paper.expected(ev.entry)["alpha"] - oracle.trace_product(self.g[ev.entry], rho)
        _close(problems, label, record["value"], want)
        return problems

    @staticmethod
    def check_affine(points: dict[str, list[tuple[float, float]]]) -> list[str]:
        """Witness value against noise weight p lies on one line per entry."""
        problems = []
        for name, pts in points.items():
            if len(pts) < 3:
                continue
            (p0, v0), (p1, v1) = pts[0], pts[1]
            slope = (v1 - v0) / (p1 - p0)
            for p, v in pts[2:]:
                _close(problems, f"{name} affine in p at {p}", v, v0 + slope * (p - p0))
        return problems


def check_decompose(record: dict, state_file, seed: int) -> list[str]:
    problems: list[str] = []
    label = f"decompose {state_file.path}"
    if state_file.rejected:
        if _rc(problems, label, record, 1) and record.get("stdout"):
            problems.append(f"{label}: printed output for a rejected state")
        return problems
    if not _rc(problems, label, record, 0):
        return problems
    return _check_coeffs(record["coeffs"], state_file.matrix, state_file.n, seed, label)


def _check_coeffs(coeffs: dict, rho: np.ndarray, n: int, seed: int, label: str) -> list[str]:
    problems: list[str] = []
    for word in sample_words(n, seed):
        want = oracle.pauli_expectation(rho, word)
        got = coeffs.get(word)
        if got is None:
            if abs(want) >= 1e-12 + ATOL:
                problems.append(f"{label}: {word} missing, oracle gives {want}")
        else:
            _close(problems, f"{label} {word}", got, want)
    return problems[:5]


def check_decompose_memory(record: dict, n: int, matrix: np.ndarray, seed: int) -> list[str]:
    problems = _check_coeffs(record["coeffs"], matrix, n, seed, f"hs_decompose n{n}")
    if not 0 < record["terms"] <= 4**n:
        problems.append(f"hs_decompose n{n}: {record['terms']} terms")
    return problems


def check_round_trip(record: dict, label: str) -> list[str]:
    problems: list[str] = []
    _close(problems, f"round trip {label} max error", record["err"], 0.0)
    return problems


def check_bound(record: dict, op_file, seed: int) -> list[str]:
    problems: list[str] = []
    label = f"bound {op_file.path}"
    if not _rc(problems, label, record, 0):
        return problems
    beta = record["beta_cl"]
    if record["evaluations"] != 2**op_file.m:
        problems.append(f"{label}: {record['evaluations']} evaluations, want 2^{op_file.m}")
    _close(problems, f"{label} maximizer value", oracle.assignment_value(op_file.terms, record["maximizer"]), beta)
    if op_file.paper_value is not None:
        _close(problems, f"{label} paper beta_cl", beta, op_file.paper_value)
    elif op_file.planted:
        _close(problems, f"{label} planted sum |c|", beta, op_file.abs_sum)
    else:
        _close(problems, f"{label} brute force", beta, oracle.brute_force_bound(op_file.terms))
    rng = np.random.default_rng([seed, op_file.m, len(op_file.terms)])
    sampled = oracle.best_sampled_assignment(op_file.terms, rng, SAMPLED_ASSIGNMENTS)
    if sampled > beta + ATOL:
        problems.append(f"{label}: sampled assignment {sampled} exceeds beta_cl {beta}")
    return problems


def check_alpha(record: dict, op_file, seed: int) -> list[str]:
    problems: list[str] = []
    label = f"alpha {op_file.path}"
    if not _rc(problems, label, record, 0):
        return problems
    alpha = record["alpha"]
    at_argmax = oracle.product_value(op_file.terms, oracle.bloch_vectors(record["argmax"]))
    _close(problems, f"{label} value at argmax", at_argmax, alpha)
    if op_file.paper_value is not None:
        _close(problems, f"{label} paper alpha", alpha, op_file.paper_value)
    rng = np.random.default_rng([seed, op_file.n, len(op_file.terms)])
    sampled = oracle.best_sampled_product(op_file.terms, op_file.n, rng, SAMPLED_PRODUCTS)
    if not sampled <= alpha + ATOL <= op_file.abs_sum + 2 * ATOL:
        problems.append(f"{label}: alpha {alpha} outside [{sampled}, {op_file.abs_sum}]")
    if record["starts_used"] != 64 or record["iterations"] < 1:
        problems.append(f"{label}: starts {record['starts_used']}, iterations {record['iterations']}")
    if op_file.grid:
        if "grid_value" not in record:
            problems.append(f"{label}: no grid_value")
        elif record["grid_value"] > alpha + ATOL:
            problems.append(f"{label}: grid value {record['grid_value']} above alpha {alpha}")
    return problems


def same(a, b, atol: float = ATOL) -> bool:
    """Records agree on every key both hold, numbers within atol (relative above 1)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return all(same(a[k], b[k], atol) for k in a.keys() & b.keys())
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y, atol) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(float(a) - float(b)) <= atol * max(1.0, abs(float(a)))
