"""Command-line surface: serialization formats and the catalog report and grading.

Commands
--------
decompose   Pauli coefficients of a state read from a state file.
bound       Exhaustive classical bound of an operator file.
alpha       Product-state maximum of an operator file.
report      Benchmark table for one catalog entry.
verify      Re-derive every reference number in the catalog and grade it.

File formats (JSON):

* operator file: ``{"n": 3, "terms": [{"string": "XXI", "coeff": 0.5}, ...]}``
  with unique length-``n`` words over I/X/Y/Z and finite real coefficients.
* state file: either ``{"catalog": "ghz3", "params": {"p": 0.8}}``
  (``params`` optional; ``R``, with |R| <= 1/sqrt(3), selects the
  operator scale of the ``mds`` family, ``p`` mixes in white noise) or
  ``{"matrix": 2, "entries": [[re, im], ...]}`` with ``4**n`` row-major
  entries of a valid density matrix.

Exit status: 0 on success / all checks pass, 1 on a failed check or an
invalid-but-well-formed input (bad density matrix, out-of-range
parameter, exceeded capacity, ineffective witness), 2 on usage or parse
errors, 141 with nothing on stderr when stdout closes early.  Output is
deterministic for fixed flags; numbers have 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterable, Mapping
from itertools import chain, repeat
from operator import itemgetter
from typing import Any

import numpy as np

from .hs import PRUNE_TOL, HSOperator, hs_decompose
from .lhv_bound import classical_bound
from .pauli_core import (
    AXIS_LABELS,
    Array,
    CapacityError,
    DensityMatrix,
    InvalidStateError,
    check_qubit_count,
)
from .product_max import alpha_grid_oracle, alpha_max
from .states import ENTRY_NAMES, CatalogEntry, catalog, catalog_entry, mds, mix_white_noise
from .witness import WitnessIneffectiveError, analyze, mds_entanglement_threshold

REPORT_ATOL = 1e-9  # a graded field is ok when |computed - expected| <= REPORT_ATOL


class UsageError(Exception):
    """Malformed input: bad file structure, words, or names."""


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


# ---------------------------------------------------------------------------
# file loading


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long for int()
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _require_mapping(doc: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(doc, dict):
        raise UsageError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _real_number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ValueError(f"{what} must be finite, got an integer too large for a float") from exc


_TERM_KEYS = frozenset(("string", "coeff"))


def load_operator(doc: Any) -> HSOperator:
    """Parse an operator document into an HSOperator.

    One pass checks the terms' structure: each an object with exactly the
    keys 'string' and 'coeff', each word a string, no word twice.  The
    terms then go to the ``HSOperator`` constructor, which checks the
    words and coefficients.  Only when either refuses does the per-term
    loop run: it names the first offender in file order, or ends in the
    same constructor and raises its error.
    """
    doc = _require_mapping(doc, "operator file")
    if set(doc) != {"n", "terms"}:
        raise UsageError("operator file must have exactly the keys 'n' and 'terms'")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise UsageError(f"'n' must be a positive integer, got {n!r}")
    items = doc["terms"]
    if not isinstance(items, list):
        raise UsageError("'terms' must be a list")
    if set(map(type, items)) <= {dict} and set(map(frozenset, items)) <= {_TERM_KEYS}:
        words = list(map(itemgetter("string"), items))
        if set(map(type, words)) <= {str} and len(set(words)) == len(words):
            try:
                return HSOperator(n, dict(zip(words, map(itemgetter("coeff"), items))))
            except (ValueError, OverflowError, CapacityError):  # OverflowError: an integer past the float range
                pass
    terms = {}
    for item in items:
        item = _require_mapping(item, "operator term")
        if set(item) != _TERM_KEYS:
            raise UsageError("each term must have exactly the keys 'string' and 'coeff'")
        word = item["string"]
        if not isinstance(word, str) or len(word) != n:
            raise UsageError(f"term string must be a length-{n} word, got {word!r}")
        if any(ch not in AXIS_LABELS for ch in word):
            raise UsageError(f"term string {word!r} has letters outside I/X/Y/Z")
        if word in terms:
            raise UsageError(f"duplicate term string {word!r}")
        terms[word] = _real_number(item["coeff"], f"coefficient of {word!r}")
    return HSOperator(n, terms)


def _operator_file(path: str) -> HSOperator:
    """``load_operator`` on a file, refusing a nonzero coefficient below PRUNE_TOL.

    The term table drops such a term, so ``bound`` and ``alpha`` would
    print the number of another operator; the first one in file order is
    named instead.
    """
    doc = _load_json(path)
    op = load_operator(doc)
    for item in doc["terms"]:
        if 0 < abs(float(item["coeff"])) < PRUNE_TOL:
            raise ValueError(
                f"coefficient of {item['string']!r} is {item['coeff']!r}, below the tolerance {PRUNE_TOL:g}"
                " under which terms are dropped; scale the operator up"
            )
    return op


def operator_json(n: int, words: list[str], values: list[float]) -> str:
    """Operator-file text, byte for byte what ``json.dumps`` writes: the values are finite floats, each its repr.

    The terms are one join over the (word, repr) pairs, each pair itself
    joined around the text between a word and its coefficient.
    """
    if not words:
        return f'{{"n": {n}, "terms": []}}'
    terms = '}, {"string": "'.join(map('", "coeff": '.join, zip(words, map(float.__repr__, values))))
    return f'{{"n": {n}, "terms": [{{"string": "{terms}}}]}}'


def decompose_text(n: int, words: list[str], values: list[float]) -> str:
    """``decompose``'s text form: the qubit and term counts, then one ``WORD VALUE`` line a term, each
    value formatted as ``_fmt`` does."""
    lines = map(" ".join, zip(words, map(format, values, repeat(".12g"))))
    return "\n".join([f"n {n}", f"terms {len(words)}", *lines])


def _entries_matrix(entries: list[Any]) -> Array:
    """The ``[re, im]`` pairs of a matrix state file as one complex row, each pair checked.

    When every entry is a two-item list of ints and floats, one numpy
    conversion reads them all.  Otherwise, or when an integer is past the
    float range, the per-entry loop runs and names the first offender in
    file order.
    """
    if set(map(type, entries)) == {list} and set(map(len, entries)) == {2}:
        values = list(chain.from_iterable(entries))
        if set(map(type, values)) <= {int, float}:
            try:
                return np.array(values, dtype=float).view(complex)
            except OverflowError:
                pass
    flat = []
    for pair in entries:
        if not isinstance(pair, list) or len(pair) != 2:
            raise UsageError(f"each entry must be an [re, im] pair, got {pair!r}")
        flat.append(complex(_real_number(pair[0], "re"), _real_number(pair[1], "im")))
    return np.array(flat, dtype=complex)


def load_state(doc: Any) -> DensityMatrix:
    """Parse a state document into a validated DensityMatrix."""
    doc = _require_mapping(doc, "state file")
    if "catalog" in doc:
        if not set(doc) <= {"catalog", "params"}:
            raise UsageError("catalog state file allows only 'catalog' and 'params'")
        name = doc["catalog"]
        if name not in ENTRY_NAMES:
            raise UsageError(
                f"unknown catalog name {name!r}; choose from {', '.join(ENTRY_NAMES)}"
            )
        params = _require_mapping(doc.get("params", {}), "'params'")
        allowed = {"R", "p"} if name == "mds" else {"p"}
        if not set(params) <= allowed:
            raise UsageError(
                f"unknown params {sorted(set(params) - allowed)} for {name!r}"
            )
        state = mds(_real_number(params["R"], "'R'")) if "R" in params else catalog_entry(name).state
        if "p" in params:
            state = mix_white_noise(state, _real_number(params["p"], "'p'"))
        return state
    if "matrix" in doc:
        if set(doc) != {"matrix", "entries"}:
            raise UsageError(
                "matrix state file must have exactly the keys 'matrix' and 'entries'"
            )
        n = doc["matrix"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise UsageError(f"'matrix' must be a positive qubit count, got {n!r}")
        entries = doc["entries"]
        dim = 2 ** check_qubit_count(n)
        if not isinstance(entries, list) or len(entries) != dim * dim:
            raise UsageError(
                f"'entries' must list {dim * dim} [re, im] pairs (row-major)"
            )
        return DensityMatrix.from_matrix(_entries_matrix(entries).reshape(dim, dim))
    raise UsageError("state file needs either a 'catalog' or a 'matrix' key")


# ---------------------------------------------------------------------------
# commands


def cmd_decompose(args: argparse.Namespace) -> int:
    if not math.isfinite(args.threshold):
        raise UsageError(f"--threshold must be a finite number, got {args.threshold}")
    if args.threshold < PRUNE_TOL:  # hs_decompose has already dropped everything below it
        raise UsageError(f"--threshold must be at least {PRUNE_TOL:g}, got {args.threshold}")
    state = load_state(_load_json(args.state))
    coeffs = hs_decompose(state)
    keep = np.abs(coeffs.coeffs) >= args.threshold
    words = coeffs.labels(keep)
    values = coeffs.coeffs[keep].tolist()
    if args.json:
        print(operator_json(coeffs.n, words, values))
        return 0
    print(decompose_text(coeffs.n, words, values))
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    op = _operator_file(args.operator)
    result = classical_bound(op)
    if args.json:
        doc = {
            "beta_cl": result.beta_cl,
            "evaluations": result.evaluations,
            "maximizer": [list(triple) for triple in result.maximizer.values],
        }
        print(json.dumps(doc))
        return 0
    print(f"beta_cl {_fmt(result.beta_cl)}")
    print(f"evaluations {result.evaluations}")
    for line in result.maximizer.lines(frozenset(result.pairs)):
        print(line)
    return 0


def cmd_alpha(args: argparse.Namespace) -> int:
    if args.grid_check and args.grid_check < 4:
        raise UsageError("--grid-check needs at least 4 divisions")
    if args.starts < 1:
        raise UsageError("--starts needs at least 1 start")
    if not 0 <= args.seed < 2**64:
        raise UsageError("--seed must lie in [0, 2**64)")
    op = _operator_file(args.operator)
    # the grid first, so one past its point budget is refused before the ascent runs
    grid_value = alpha_grid_oracle(op, args.grid_check) if args.grid_check else None
    result = alpha_max(op, starts=args.starts, seed=args.seed)
    if args.json:
        doc: dict[str, Any] = {
            "alpha": result.alpha,
            "converged": result.converged,
            "iterations": result.iterations,
            "starts_used": result.starts_used,
            "argmax": [list(pair) for pair in result.argmax.angles],
        }
        if grid_value is not None:
            doc["grid_value"] = grid_value
        print(json.dumps(doc))
        return 0
    print(f"alpha {_fmt(result.alpha)}")
    print(f"converged {_fmt_bool(result.converged)}")
    print(f"iterations {result.iterations}")
    print(f"starts_used {result.starts_used}")
    for k, (theta, phi) in enumerate(result.argmax.angles):
        print(f"qubit {k}: theta {_fmt(theta)} phi {_fmt(phi)}")
    if grid_value is not None:
        print(f"grid_value {_fmt(grid_value)}")
    return 0


def entry_rows(entry: CatalogEntry) -> list[tuple[str, float, float, bool]]:
    """(field, computed, expected, ok) for every expected field of one entry, in the entry's order; ok is
    within REPORT_ATOL."""
    computed = analyze(entry).computed()
    if "threshold_r" in entry.expected:
        computed["threshold_r"] = mds_entanglement_threshold()
    rows = []
    for field, want in entry.expected.items():
        got, want = float(computed[field]), float(want)
        rows.append((field, got, want, abs(got - want) <= REPORT_ATOL))
    return rows


def cmd_report(args: argparse.Namespace) -> int:
    entry = catalog_entry(args.name, mds_r=args.mds_r)
    rows = entry_rows(entry)
    all_ok = all(ok for _, _, _, ok in rows)
    if args.json:
        doc = {
            "name": entry.name,
            "n": entry.n,
            "fields": {
                field: {"computed": got, "expected": want, "ok": ok}
                for field, got, want, ok in rows
            },
            "all_ok": all_ok,
        }
        print(json.dumps(doc))
        return 0 if all_ok else 1
    print(f"name {entry.name}")
    print(f"n {entry.n}")
    for field, got, want, ok in rows:
        print(f"{field} {_fmt(got)} expected {_fmt(want)} {'ok' if ok else 'FAIL'}")
    print(f"all_ok {_fmt_bool(all_ok)}")
    return 0 if all_ok else 1


def verify_entries(
    entries: Iterable[CatalogEntry],
) -> tuple[list[tuple[str, str, float, float, bool]], bool]:
    """(entry, field, computed, expected, ok) rows over all given entries."""
    rows = []
    for entry in entries:
        for field, got, want, ok in entry_rows(entry):
            rows.append((entry.name, field, got, want, ok))
    all_pass = bool(rows) and all(ok for _, _, _, _, ok in rows)
    return rows, all_pass


def cmd_verify(args: argparse.Namespace) -> int:
    rows, all_pass = verify_entries(catalog().values())
    if args.json:
        results: dict[str, dict[str, bool]] = {}
        for name, field, _got, _want, ok in rows:
            results.setdefault(name, {})[field] = ok
        print(json.dumps({"results": results, "all_pass": all_pass}))
        return 0 if all_pass else 1
    for name, field, got, want, ok in rows:
        status = "PASS" if ok else "FAIL"
        print(f"{name} {field} {_fmt(got)} expected {_fmt(want)} {status}")
    verdict = "PASS" if all_pass else "FAIL"
    print(f"RESULT {verdict} ({len(rows)} checks at {_fmt(REPORT_ATOL)})")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="hswit",
        description="Entanglement witnesses and Bell operators via Pauli coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="Pauli coefficients of a state file")
    p.add_argument("state", help="path to a JSON state file")
    p.add_argument(
        "--threshold",
        type=float,
        default=PRUNE_TOL,
        help=f"drop coefficients below this magnitude (default {PRUNE_TOL:g})",
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bound", help="exhaustive classical bound of an operator file")
    p.add_argument("operator", help="path to a JSON operator file")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("alpha", help="product-state maximum of an operator file")
    p.add_argument("operator", help="path to a JSON operator file")
    p.add_argument("--starts", type=int, default=64, help="ascent starts (default 64)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--grid-check",
        type=int,
        default=0,
        metavar="DIVISIONS",
        help="also report the exhaustive grid value at this resolution (>= 4; 0 skips)",
    )
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("report", help="benchmark table for one catalog entry")
    p.add_argument("name", choices=ENTRY_NAMES, help="catalog entry")
    p.add_argument(
        "--mds-r",
        type=float,
        default=0.5,
        help="operator scale R of the mds family (default 0.5)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="re-derive and grade every catalog number")
    p.set_defaults(func=cmd_verify)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status; a closed stdout ends it with 141 and no output."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a reader that closed stdout early fails this flush, not the one at exit
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        InvalidStateError,
        CapacityError,
        WitnessIneffectiveError,
        ValueError,
        MemoryError,  # as numpy raises for an array past the address space
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # as under `hswit verify | head -1`
        with open(os.devnull, "w") as devnull:  # the flush at exit writes nowhere
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the status a shell gives a command that SIGPIPE ended
    return status


if __name__ == "__main__":
    sys.exit(main())
