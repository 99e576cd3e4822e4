"""The operations a workload issues, each run untraced or replayed under spans.

An untraced CLI operation calls ``hswit.cli.main(argv)`` in-process with
stdout captured.  Its traced replay makes the same sequence of public
calls (``load_state``/``load_operator``, then the library call, then
formatting) with a span around each call into hswit, so a layer's time
can be read apart from the rest.  Library operations (witness
evaluations, round trips, in-memory decompositions) are the same calls in
both modes, with spans opened only when traced.

Each operation returns a raw result; ``record()`` turns it into a plain
record outside the timed region, so parsing costs nothing measured.
Records from both modes have the same shape and are checked alike.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

CLI_STARTS = 64  # hswit alpha defaults, repeated by the replay
CLI_SEED = 0
DECOMPOSE_THRESHOLD = 1e-12


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def run_cli(env, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = env.cli.main(argv)
    return rc, out.getvalue()


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Op:
    task = ""
    expected_rc = 0

    def run(self, env, tracer, traced: bool):
        raise NotImplementedError

    def record(self, raw) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# catalog commands


def _parse_rows(text: str) -> dict[str, float]:
    """'<key...> <got> expected <want> <status>' lines -> {key: got}."""
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 5 and parts[-3] == "expected":
            rows[" ".join(parts[:-4])] = float(parts[-4])
    return rows


class Verify(Op):
    task = "verify"
    key = "verify"

    def run(self, env, tracer, traced):
        if not traced:
            return run_cli(env, ["verify"])
        h = env.hswit
        with tracer.span("states.catalog_s"):
            cat = h.catalog()
        rows = {}
        for entry in cat.values():
            with tracer.span("witness.analyze_s"):
                computed = h.analyze(entry).computed()
            if entry.name == "mds":
                with tracer.span("witness.mds_threshold_s"):
                    computed["threshold_r"] = h.mds_entanglement_threshold()
            for field, value in computed.items():
                rows[f"{entry.name} {field}"] = _fmt(value)
        return 0, rows

    def record(self, raw):
        rc, out = raw
        if isinstance(out, dict):
            return {"rc": rc, "rows": {k: float(v) for k, v in out.items()}}
        lines = out.splitlines()
        return {"rc": rc, "rows": _parse_rows(out), "result": lines[-1].split()[1] if lines else ""}


class Report(Op):
    task = "report"

    def __init__(self, name: str, mds_r: float | None = None, task: str = "report"):
        self.name = name
        self.mds_r = mds_r
        self.task = task
        self.key = f"report {name} {mds_r}"

    def run(self, env, tracer, traced):
        if not traced:
            argv = ["report", self.name]
            if self.mds_r is not None:
                argv += ["--mds-r", repr(self.mds_r)]
            return run_cli(env, argv)
        h = env.hswit
        with tracer.span("states.catalog_s"):
            entry = h.catalog(mds_r=0.5 if self.mds_r is None else self.mds_r)[self.name]
        with tracer.span("witness.analyze_s"):
            computed = h.analyze(entry).computed()
        if self.name == "mds":
            with tracer.span("witness.mds_threshold_s"):
                computed["threshold_r"] = h.mds_entanglement_threshold()
        return 0, {field: _fmt(value) for field, value in computed.items()}

    def record(self, raw):
        rc, out = raw
        if isinstance(out, dict):
            return {"rc": rc, "rows": {k: float(v) for k, v in out.items()}}
        return {"rc": rc, "rows": _parse_rows(out), "all_ok": "all_ok true" in out}


# ---------------------------------------------------------------------------
# witness evaluations


class EvalWitness(Op):
    task = "witness"

    def __init__(self, index: int, ev, n: int):
        self.key = f"eval {index}"
        self.ev = ev
        self.n = n

    def run(self, env, tracer, traced):
        h = env.hswit
        ev = self.ev
        if ev.kind == "product":
            with tracer.span("states.product_state_us"):
                rho = h.product_state(h.ProductState(ev.payload))
        else:
            with tracer.span("states.mix_white_noise_us"):
                rho = h.mix_white_noise(env.catalog[ev.entry].state, ev.payload)
        with tracer.span(f"witness.eval_witness_us.n{self.n}"):
            return h.eval_witness(env.witnesses[ev.entry], rho), env.witnesses[ev.entry].alpha

    def record(self, raw):
        value, alpha = raw
        return {"value": float(value), "alpha": float(alpha)}


# ---------------------------------------------------------------------------
# dense states


class DecomposeFile(Op):
    task = "decompose"

    def __init__(self, state_file):
        self.file = state_file
        self.key = f"decompose {state_file.path}"
        self.expected_rc = 1 if state_file.rejected else 0

    def run(self, env, tracer, traced):
        if not traced:
            return run_cli(env, ["decompose", self.file.path, "--json"])
        h = env.hswit
        doc = _load(self.file.path)
        try:
            with tracer.span("cli.load_state_s"):
                state = env.cli.load_state(doc)
        except h.InvalidStateError:
            return 1, ""
        with tracer.span(f"hs.decompose_s.n{state.n}"):
            op = h.hs_decompose(state)
        terms = []
        for label in op.labels():
            c = op.coefficient(label)
            if abs(c) >= DECOMPOSE_THRESHOLD:
                terms.append({"string": label, "coeff": c})
        return 0, json.dumps({"n": state.n, "terms": terms})

    def record(self, raw):
        rc, out = raw
        if rc != 0:
            return {"rc": rc, "stdout": out}
        doc = json.loads(out)
        return {"rc": rc, "coeffs": {t["string"]: t["coeff"] for t in doc["terms"]},
                "terms": len(doc["terms"])}


class DecomposeMemory(Op):
    """hs_decompose on a state built with the validating DensityMatrix constructor."""

    task = "decompose"

    def __init__(self, n: int, matrix: np.ndarray, sample: list[str]):
        self.n = n
        self.matrix = matrix
        self.sample = sample
        self.key = f"decompose memory n{n}"

    def run(self, env, tracer, traced):
        h = env.hswit
        state = h.DensityMatrix(self.matrix, self.n)
        with tracer.span(f"hs.decompose_s.n{self.n}"):
            return h.hs_decompose(state)

    def record(self, raw):
        return {"rc": 0, "coeffs": {w: raw.coefficient(w) for w in self.sample},
                "terms": len(raw.labels())}


class RoundTrip(Op):
    task = "reconstruct"

    def __init__(self, n: int, matrix: np.ndarray, label: str):
        self.n = n
        self.matrix = matrix
        self.key = f"round trip {label}"

    def run(self, env, tracer, traced):
        h = env.hswit
        state = h.DensityMatrix(self.matrix, self.n)
        with tracer.span(f"hs.decompose_s.n{self.n}"):
            coeffs = h.hs_decompose(state)
        with tracer.span(f"hs.reconstruct_s.n{self.n}"):
            return h.hs_reconstruct(coeffs) / 2**self.n

    def record(self, raw):
        return {"err": float(np.max(np.abs(raw - self.matrix)))}


# ---------------------------------------------------------------------------
# operators


class Bound(Op):
    task = "bound"

    def __init__(self, op_file):
        self.file = op_file
        self.key = f"bound {op_file.path}"

    def run(self, env, tracer, traced):
        if not traced:
            return run_cli(env, ["bound", self.file.path, "--json"])
        doc = _load(self.file.path)
        with tracer.span("cli.load_operator_s"):
            op = env.cli.load_operator(doc)
        with tracer.span(f"lhv_bound.classical_bound_s.m{self.file.m}"):
            result = env.hswit.classical_bound(op)
        return 0, json.dumps(
            {
                "beta_cl": result.beta_cl,
                "evaluations": result.evaluations,
                "maximizer": [list(t) for t in result.maximizer.values],
            }
        )

    def record(self, raw):
        rc, out = raw
        return {"rc": rc, **(json.loads(out) if rc == 0 else {})}


class Alpha(Op):
    task = "alpha"

    def __init__(self, op_file):
        self.file = op_file
        self.key = f"alpha {op_file.path}"
        self.span_name = (
            f"product_max.alpha_max_s.{op_file.name}"
            if op_file.paper_value is not None
            else f"product_max.alpha_max_s.n{op_file.n}"
        )

    def run(self, env, tracer, traced):
        if not traced:
            argv = ["alpha", self.file.path, "--json"]
            if self.file.grid:
                argv += ["--grid-check", str(self.file.grid)]
            return run_cli(env, argv)
        h = env.hswit
        doc = _load(self.file.path)
        with tracer.span("cli.load_operator_s"):
            op = env.cli.load_operator(doc)
        with tracer.span(self.span_name):
            result = h.alpha_max(op, starts=CLI_STARTS, seed=CLI_SEED)
        out = {
            "alpha": result.alpha,
            "converged": result.converged,
            "iterations": result.iterations,
            "starts_used": result.starts_used,
            "argmax": [list(pair) for pair in result.argmax.angles],
        }
        if self.file.grid:
            with tracer.span("product_max.grid_oracle_s"):
                out["grid_value"] = h.alpha_grid_oracle(op, self.file.grid)
        return 0, json.dumps(out)

    def record(self, raw):
        rc, out = raw
        return {"rc": rc, **(json.loads(out) if rc == 0 else {})}
