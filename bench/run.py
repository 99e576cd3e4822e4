"""Benchmark of hswit, the paper pipeline from catalog numbers to operator bounds.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload catalog_verify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One process, closed loop: each operation is issued after the previous one
returns.  Inputs are generated from ``--seed``; hswit is imported from
``src/`` of the checkout and driven through ``hswit.cli.main(argv)`` and
its public functions.  With ``--trace 0`` the last line of stdout is one
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  See bench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one BLAS thread: steadier runs on a shared host

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import gen
import hostspeed
import ops
import paper
from spans import NullTracer, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"

WORKLOADS = ("catalog_verify", "witness_scan", "dense_states", "operator_bounds")
SETUP_REPEATS = 5
MIN_ROUNDS = 2
VERIFY_REPEATS = 2  # verify calls per round: one a round gives too few samples for a steady median
SEGMENT_S = 0.1  # operation time between two host-speed probes
CHEAP_TASKS = ("witness", "decompose", "reconstruct", "bound")  # 7 to 30 ms a pass on catalog inputs
CHEAP_PASSES = 3
ROUND_TRIP_MAX_N = 5  # dense_states round trip; n = 6 (0.5-0.9 s) left too few rounds for a steady median
SWEEP_REPEATS = 20  # calls per per-call microsecond layer metric in the layer sweep

TASKS = ("verify", "report", "mds_scan", "witness", "decompose", "reconstruct", "bound", "alpha")
END_TO_END = {  # metric: (task, unit)
    "setup_s": (None, "s"),
    "verify_s": ("verify", "s"),
    "report_s": ("report", "s"),
    "witness_evals_per_s": ("witness", "1/s"),
    "decompose_pass_s": ("decompose", "s"),
    "reconstruct_pass_s": ("reconstruct", "s"),
    "bound_pass_s": ("bound", "s"),
    "alpha_pass_s": ("alpha", "s"),
    "peak_rss_mib": (None, "MiB"),
}
CLASSICAL_BOUND_MS = (6, 8, 10, 12, 14, 16, 18, 20, 22)
PER_CALL = (  # median over every span of that name, in seconds or microseconds
    [f"pauli_core.from_matrix_s.n{n}" for n in (3, 4, 5, 6)]
    + [f"hs.decompose_s.n{n}" for n in (3, 4, 5, 6, 7, 8)]
    + [f"hs.reconstruct_s.n{n}" for n in (3, 4, 5, 6)]
    + ["hs.overlap_us"]
    + [f"lhv_bound.classical_bound_s.m{m}" for m in CLASSICAL_BOUND_MS]
    + [f"product_max.alpha_max_s.{e}" for e in paper.ENTRIES]
    + [f"product_max.alpha_max_s.n{n}" for n in (4, 6, 8)]
    + [f"product_max.sweep_us.n{n}" for n in (3, 4, 8)]
    + ["states.catalog_s", "states.product_state_us", "states.mix_white_noise_us"]
    + ["witness.eval_witness_us.n3", "witness.eval_witness_us.n4", "witness.mds_threshold_s"]
)
PER_PASS_SUM = {  # (task, calls per pass): summed over one call's spans, median over passes
    "witness.analyze_s": ("verify", VERIFY_REPEATS),
    "product_max.grid_oracle_s": ("alpha", 1),
    "cli.load_state_s": ("decompose", 1),
    "cli.load_operator_s": ("bound", 1),
}
COUNTS = ("lhv_bound.assignments", "product_max.sweeps", "product_max.starts", "hs.decompose_terms")


@dataclass
class Env:
    hswit: object
    cli: object
    catalog: dict
    witnesses: dict


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_hswit():
    """Import hswit afresh from src/ of the checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "hswit" or m.startswith("hswit.")]:
        del sys.modules[name]
    hswit = importlib.import_module("hswit")
    if not Path(hswit.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"hswit was imported from {hswit.__file__}, not from {SRC}")
    return hswit, importlib.import_module("hswit.cli")


def set_up() -> tuple[Env, float]:
    """Import hswit, build catalog() and the six catalog witnesses; timed."""
    t0 = time.perf_counter()
    hswit, cli = import_hswit()
    cat = hswit.catalog()
    witnesses = {name: hswit.build_witness(entry.g_witness) for name, entry in cat.items()}
    return Env(hswit, cli, cat, witnesses), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# workloads


def build_tasks(workload: str, inputs: gen.Inputs) -> list[tuple[str, list[ops.Op]]]:
    """Passes of one round, in order, as (task, operations).

    Every workload runs every task, so every end-to-end metric exists on
    every workload.  Tasks outside a workload's focus run on the paper's
    catalog inputs, which are small; the focus tasks run on seeded inputs.
    The small catalog passes of CHEAP_TASKS run CHEAP_PASSES times a round,
    which costs little and gives their medians enough samples.
    """
    def evals(items):
        return [ops.EvalWitness(i, ev, inputs.catalog_files[paper.ENTRIES.index(ev.entry)].n)
                for i, ev in enumerate(items)]

    tasks = {
        "verify": [ops.Verify() for _ in range(VERIFY_REPEATS)],
        "report": [ops.Report(name) for name in paper.ENTRIES],
        "witness": evals(inputs.small_evals),
        "decompose": [ops.DecomposeFile(f) for f in inputs.catalog_files],
        "reconstruct": [ops.RoundTrip(f.n, f.matrix, f.path) for f in inputs.catalog_files],
        "bound": [ops.Bound(f) for f in inputs.bell_files],
        "alpha": [ops.Alpha(f) for f in inputs.kernel_files],
    }
    focus = set()
    if workload == "catalog_verify":
        tasks["mds_scan"] = [ops.Report("mds", r, task="mds_scan") for r in inputs.mds_rs]
    elif workload == "witness_scan":
        tasks["witness"] = evals(inputs.scan_evals)
        focus = {"witness"}
    elif workload == "dense_states":
        tasks["decompose"] = (
            [ops.DecomposeFile(f) for f in inputs.dense_files]
            + [ops.DecomposeFile(inputs.non_psd_file)]
            + [ops.DecomposeMemory(n, m, checks.sample_words(n, inputs.seed))
               for n, m in inputs.memory_states]
        )
        tasks["reconstruct"] = [ops.RoundTrip(f.n, f.matrix, f.path)
                                for f in inputs.dense_files if f.n <= ROUND_TRIP_MAX_N]
        focus = {"decompose", "reconstruct"}
    elif workload == "operator_bounds":
        tasks["bound"] = [ops.Bound(f) for f in inputs.operator_files]
        tasks["alpha"] = [ops.Alpha(f) for f in inputs.operator_files]
        focus = {"bound", "alpha"}
    passes = []
    for task in TASKS:
        if task in tasks:
            repeat = CHEAP_PASSES if task in CHEAP_TASKS and task not in focus else 1
            passes += [(task, tasks[task])] * repeat
    return passes


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Pass:
    task: str
    traced: bool
    op_times: list[float]  # raw seconds, one per operation, in task order
    scaled: float  # the pass in seconds of the reference host (see hostspeed.py)
    records: list  # (op, record) for operations that did not fail
    failed: int
    span_range: tuple[int, int] = (0, 0)

    @property
    def seconds(self) -> float:
        return sum(self.op_times)


class ScaledClock:
    """Scales measured times by the host-speed probes taken around them."""

    def __init__(self) -> None:
        self.last = hostspeed.probe()

    def close(self, elapsed: float) -> float:
        """Probe now; ``elapsed`` over the mean of this and the previous probe."""
        now = hostspeed.probe()
        scaled = elapsed / ((self.last + now) / 2) * hostspeed.REFERENCE_S
        self.last = now
        return scaled


def run_pass(env: Env, task: str, task_ops: list, tracer, traced: bool, clock: ScaledClock) -> Pass:
    """One pass over the task's operations.

    The probe runs whenever SEGMENT_S of operations have run since the
    last one, and at the end of the pass, so a long pass is scaled piece by
    piece and short operations share one probe.
    """
    first = len(tracer.spans) if traced else 0
    op_times = []
    raws = []
    failed = 0
    segment = scaled = 0.0
    for op in task_ops:
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span(f"op.{task}"):
                    raw = op.run(env, tracer, True)
            else:
                raw = op.run(env, tracer, False)
        except Exception as exc:  # a fault in hswit: count it and go on
            print(f"failed: {op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            raw = None
        op_times.append(time.perf_counter() - t0)
        segment += op_times[-1]
        if segment >= SEGMENT_S:
            scaled += clock.close(segment)
            segment = 0.0
        if raw is not None:
            raws.append((op, raw))
    if segment > 0.0:
        scaled += clock.close(segment)
    last = len(tracer.spans) if traced else 0
    records = []
    for op, raw in raws:
        record = op.record(raw)
        if "rc" in record and record["rc"] != op.expected_rc:
            print(f"failed: {op.key}: exit {record['rc']}", file=sys.stderr)
            failed += 1
        else:
            records.append((op, record))
    return Pass(task, traced, op_times, scaled, records, failed, (first, last))


def timed_set_up(clock: ScaledClock) -> tuple[Env, float]:
    """set_up() with its time scaled like a pass."""
    env, elapsed = set_up()
    return env, clock.close(elapsed)


def run_rounds(env: Env, tasks: list, seconds: float, tracer: Tracer | None, clock: ScaledClock):
    """Whole rounds until the next one would overrun ``seconds``.

    After
    every round the set-up is timed once more (its result dropped), so
    set-up samples spread over the run like the passes do.  With a
    tracer, rounds alternate untraced and traced, starting untraced, and
    the run ends on a traced round.  Returns the rounds and the scaled
    set-up times.
    """
    null = NullTracer()
    rounds: list[list[Pass]] = []
    setup_times: list[float] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        rounds.append(
            [run_pass(env, task, task_ops, tracer if traced else null, traced, clock)
             for task, task_ops in tasks]
        )
        last = time.perf_counter() - t0
        setup_times.append(timed_set_up(clock)[1])
        done = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and done + last > seconds:
            if tracer is None or len(rounds) % 2 == 0:
                return rounds, setup_times


# ---------------------------------------------------------------------------
# checks


def check_rounds(rounds: list[list[Pass]], inputs: gen.Inputs) -> list[str]:
    """Oracle checks on the first record of each operation; later records must match it."""
    witness_oracle = checks.WitnessOracle()
    first: dict[str, dict] = {}
    problems: list[str] = []
    noise_points: dict[str, list] = {}
    for passes in rounds:
        for p in passes:
            for op, record in p.records:
                if op.key in first:
                    if not checks.same(first[op.key], record):
                        problems.append(f"{op.key}: output differs between rounds")
                    continue
                first[op.key] = record
                problems += check_one(op, record, inputs, witness_oracle)
                if isinstance(op, ops.EvalWitness) and op.ev.kind == "noise":
                    noise_points.setdefault(op.ev.entry, []).append((op.ev.payload, record["value"]))
    problems += witness_oracle.check_affine(noise_points)
    return problems


def check_one(op, record, inputs, witness_oracle) -> list[str]:
    seed = inputs.seed
    if isinstance(op, ops.Verify):
        return checks.check_verify(record)
    if isinstance(op, ops.Report):
        return checks.check_report(record, op.name, op.mds_r)
    if isinstance(op, ops.EvalWitness):
        return witness_oracle.check(record, op.ev)
    if isinstance(op, ops.DecomposeFile):
        return checks.check_decompose(record, op.file, seed)
    if isinstance(op, ops.DecomposeMemory):
        return checks.check_decompose_memory(record, op.n, op.matrix, seed)
    if isinstance(op, ops.RoundTrip):
        return checks.check_round_trip(record, op.key)
    if isinstance(op, ops.Bound):
        return checks.check_bound(record, op.file, seed)
    if isinstance(op, ops.Alpha):
        return checks.check_alpha(record, op.file, seed)
    raise TypeError(op)


# ---------------------------------------------------------------------------
# metrics


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def pass_scaled(rounds, task: str) -> list[float]:
    return [p.scaled for passes in rounds for p in passes if p.task == task and not p.traced]


def end_to_end(rounds, setup_times: list[float], peak_rss_mib: float) -> dict:
    """Medians over the run of scaled times (see hostspeed.py)."""
    out = {}
    for metric, (task, unit) in END_TO_END.items():
        if metric == "setup_s":
            value = _median(setup_times)
        elif metric == "peak_rss_mib":
            value = peak_rss_mib
        elif metric == "witness_evals_per_s":
            value = _median([len(p.op_times) / p.scaled for passes in rounds for p in passes
                             if p.task == task and not p.traced])
        elif metric == "verify_s":
            value = _median([p.scaled / len(p.op_times) for passes in rounds for p in passes
                             if p.task == task and not p.traced])
        else:
            value = _median(pass_scaled(rounds, task))
        out[metric] = {"value": value, "unit": unit}
    return out


def layer_sweep(env: Env, inputs: gen.Inputs, tracer: Tracer) -> None:
    """One call per size for every sized layer metric, so each exists on every workload."""
    h, cli = env.hswit, env.cli
    for f in inputs.dense_files:
        with tracer.span(f"pauli_core.from_matrix_s.n{f.n}"):
            h.DensityMatrix.from_matrix(f.matrix)
    for n, matrix in [(f.n, f.matrix) for f in inputs.dense_files] + list(inputs.memory_states):
        state = h.DensityMatrix(matrix, n)
        with tracer.span(f"hs.decompose_s.n{n}"):
            coeffs = h.hs_decompose(state)
        if n <= 6:
            with tracer.span(f"hs.reconstruct_s.n{n}"):
                h.hs_reconstruct(coeffs)
    for name, entry in env.catalog.items():
        state_coeffs = h.hs_decompose(entry.state)
        for _ in range(SWEEP_REPEATS):
            with tracer.span("hs.overlap_us"):
                h.overlap(entry.g_witness, state_coeffs)
        with tracer.span(f"product_max.alpha_max_s.{name}"):
            h.alpha_max(entry.g_witness, starts=ops.CLI_STARTS, seed=ops.CLI_SEED)
    loaded = {}
    for f in inputs.bell_files + inputs.operator_files:
        with open(f.path, encoding="utf-8") as fh:
            loaded[f.name] = cli.load_operator(json.load(fh))
        with tracer.span(f"lhv_bound.classical_bound_s.m{f.m}"):
            h.classical_bound(loaded[f.name])
    for f in inputs.operator_files:
        if f.n in (4, 6, 8):
            with tracer.span(f"product_max.alpha_max_s.n{f.n}"):
                h.alpha_max(loaded[f.name], starts=ops.CLI_STARTS, seed=ops.CLI_SEED)
    rng = np.random.default_rng([inputs.seed, 99])
    sweep_ops = {3: env.catalog["ghz3"].g_witness, 4: loaded["op_n4_m12"], 8: loaded["op_n8_m16"]}
    for n, op in sweep_ops.items():
        for _ in range(SWEEP_REPEATS):
            v = rng.normal(size=(n, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            with tracer.span(f"product_max.sweep_us.n{n}"):
                h.ascend(op, v, max_iters=1)


def per_layer(rounds, tracer: Tracer) -> dict:
    traced = [p for passes in rounds for p in passes if p.traced]
    out = {}
    for name in PER_CALL:
        scale, unit = (1e6, "us") if name.endswith("_us") or "_us." in name else (1.0, "s")
        out[name] = {"value": _median(tracer.durations(name)) * scale, "unit": unit}
    for name, (task, calls) in PER_PASS_SUM.items():
        sums = [sum(tracer.durations(name, *p.span_range)) / calls for p in traced if p.task == task]
        out[name] = {"value": _median(sums), "unit": "s"}
    traced_rounds = [passes for passes in rounds if passes[0].traced]
    untraced_rounds = [passes for passes in rounds if not passes[0].traced]
    out["cli.self_s"] = {
        "value": _median([tracer.self_time(r[0].span_range[0], r[-1].span_range[1]) for r in traced_rounds]),
        "unit": "s",
    }
    traced_time = _median([sum(p.seconds for p in r) for r in traced_rounds])
    untraced_time = _median([sum(p.seconds for p in r) for r in untraced_rounds])
    out["trace.overhead_s"] = {"value": traced_time - untraced_time, "unit": "s"}
    first_untraced = untraced_rounds[0]
    records = {p.task: [r for _, r in p.records] for p in first_untraced}
    counts = {
        "lhv_bound.assignments": sum(r["evaluations"] for r in records["bound"]),
        "product_max.sweeps": sum(r["iterations"] for r in records["alpha"]),
        "product_max.starts": sum(r["starts_used"] for r in records["alpha"]),
        "hs.decompose_terms": sum(r.get("terms", 0) for r in records["decompose"]),
    }
    for name in COUNTS:
        out[name] = {"value": counts[name], "unit": "count"}
    return out


# ---------------------------------------------------------------------------
# one run


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    try:
        inputs = gen.generate(seed, work)
        tasks = build_tasks(workload, inputs)
        clock = ScaledClock()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            env, scaled = timed_set_up(clock)
            setup_times.append(scaled)
        tracer = Tracer() if trace else None
        rounds, more_setup_times = run_rounds(env, tasks, seconds, tracer, clock)
        setup_times += more_setup_times
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            layer_sweep(env, inputs, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = check_rounds(rounds, inputs)
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    attempted = sum(len(p.op_times) for passes in rounds for p in passes)
    failed = sum(p.failed for passes in rounds for p in passes)
    if trace:
        metrics = per_layer(rounds, tracer)
        tracer.write(OUT_DIR / f"trace-{workload}-{seed}.json")
    else:
        metrics = end_to_end(rounds, setup_times, peak_rss_mib)
    summarize(workload, rounds, metrics, attempted, failed)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def summarize(workload: str, rounds, metrics: dict, attempted: int, failed: int) -> None:
    print(f"# {workload}: {len(rounds)} rounds, {attempted} operations attempted, {failed} failed")
    for task in TASKS:
        passes = [p for r in rounds for p in r if p.task == task and not p.traced]
        if passes:
            times = [p.seconds for p in passes]
            print(f"#   {task:<12} {len(passes[0].op_times):5d} ops/pass  median pass {_median(times):.4f} s"
                  f"  scaled {_median(pass_scaled(rounds, task)):.4f} s  over {len(times)} passes")
    for name, m in metrics.items():
        print(f"#   {name} {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hswit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hswit" / "__init__.py").is_file():
        print(f"error: no hswit sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
            return 0
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for w, result in results.items():
        print(f"# {w} {json.dumps(result)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
