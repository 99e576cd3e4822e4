"""The package-level names: ``hswit.__all__`` and what the benchmark reads from it.

The benchmark drives the package as ``h.<name>`` on the imported module, so
a name dropped from the package shows up here rather than as a failed
benchmark round.
"""

import re
from pathlib import Path

import hswit

BENCH = Path(__file__).resolve().parents[1] / "bench"

BENCH_NAMES = (
    "DensityMatrix",
    "InvalidStateError",
    "ProductState",
    "alpha_grid_oracle",
    "alpha_max",
    "analyze",
    "ascend",
    "build_witness",
    "catalog",
    "classical_bound",
    "eval_witness",
    "hs_decompose",
    "hs_reconstruct",
    "mds_entanglement_threshold",
    "mix_white_noise",
    "overlap",
    "product_state",
)


def test_all_names_resolve_and_are_sorted():
    assert hswit.__all__ == sorted(set(hswit.__all__))
    for name in hswit.__all__:
        assert hasattr(hswit, name), name


def test_the_benchmark_names_are_exported():
    missing = [name for name in BENCH_NAMES if name not in hswit.__all__ or not hasattr(hswit, name)]
    assert not missing


def test_every_name_the_benchmark_reads_is_listed_and_exported():
    read = set()
    for script in ("run.py", "ops.py"):
        read |= set(re.findall(r"\bh\.([A-Za-z_]\w*)", (BENCH / script).read_text()))
    assert read and read <= set(BENCH_NAMES) <= set(hswit.__all__)


def test_the_result_and_entry_attributes_the_benchmark_reads_resolve():
    entry = hswit.catalog()["w3"]
    assert entry.name == "w3"
    assert isinstance(entry.state, hswit.DensityMatrix)
    assert len(entry.g_witness) > 0
    bound = hswit.classical_bound(entry.bell)
    assert (bound.beta_cl, bound.evaluations) == (2.0, 2 ** len(bound.pairs))
    assert len(bound.maximizer.values) == entry.n
    alpha = hswit.alpha_max(entry.g_witness, starts=4, seed=0)
    assert alpha.alpha > 0 and isinstance(alpha.converged, bool)
    assert alpha.iterations >= 1 and 1 <= alpha.starts_used <= 4
    assert len(alpha.argmax.angles) == entry.n
    assert set(hswit.analyze(entry).computed()) == set(entry.expected)
