"""Write ``tests/golden.json``: the exit code, stdout and stderr of every command whose bytes depend on
neither the BLAS thread count nor the BLAS kernel.

Run it from any directory, with this checkout's ``src`` on the path and no options::

    PYTHONPATH=src python tests/make_golden.py

The commands are ``verify`` in both forms, ``report NAME`` in text for every catalog entry and for three
mds scales and two refusals, and, on the files ``bench/gen.py`` writes for seeds 1 to 3, ``bound`` on
every Bell, kernel and operator file and ``decompose`` on every catalog state file and on the non-positive
one, each in text and with ``--json``.  Each entry is keyed by its argv, with a file written as
``seedS/FILE``.  An output longer than ``INLINE_LIMIT`` characters is stored as ``sha256:<hex>`` of its
UTF-8 bytes.

Left out, because their bytes follow the BLAS kernel numpy picks for the host's CPU:

* ``alpha`` and ``report --json``, which print alpha and the maximizer to the last bit;
* ``decompose`` on the random ``state_*`` files: ``bench/gen.py`` builds those matrices with BLAS
  products, so the files themselves differ in their last bits from kernel to kernel.  (The
  non-positive file does too, but ``decompose`` prints only its smallest eigenvalue, to 12 digits.)

A change that moves printed bytes on purpose reruns this script; the file's diff is then the list of
changed bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hswit.cli import main as hswit_main
from hswit.states import ENTRY_NAMES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
SEEDS = (1, 2, 3)
INLINE_LIMIT = 2048

REPORTS = [[name] for name in ENTRY_NAMES] + [["mds", "--mds-r", r] for r in ("0.34", "0.4", "0.5")]
REFUSALS = [["ghz3", "--mds-r", "0.9"], ["mds", "--mds-r", "0.2"]]  # an mds scale out of range, and one below 1/3


def write_inputs(seed: int, directory: Path) -> None:
    """Write the input files ``bench/gen.py --seed SEED`` makes into ``directory``."""
    gen = ROOT / "bench" / "gen.py"
    subprocess.run(
        [sys.executable, str(gen), "--seed", str(seed), "--out", str(directory)], check=True, stdout=subprocess.DEVNULL
    )


def commands(root: Path) -> list[list[str]]:
    """Every command the golden file holds, in its order; the seed-S files lie in ``root/seedS``, and a
    command names them relative to ``root``."""
    argvs = [["verify"], ["verify", "--json"]] + [["report", *args] for args in REPORTS + REFUSALS]
    for seed in SEEDS:
        files = sorted(p.name for p in (root / f"seed{seed}").glob("*.json"))
        for command, kinds in (("bound", ("bell_", "kernel_", "op_")), ("decompose", ("catalog_", "non_psd_"))):
            for name in (f for kind in kinds for f in files if f.startswith(kind)):
                argvs += [[command, f"seed{seed}/{name}"], [command, f"seed{seed}/{name}", "--json"]]
    return argvs


def _stored(text: str) -> str:
    if len(text) <= INLINE_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def outputs(root: Path) -> dict[str, dict]:
    """Run every command in-process from ``root``, each keyed by its argv: exit code, stdout and stderr as
    the golden file stores them."""
    runs = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in commands(root):
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
                code = hswit_main(argv)
            runs[" ".join(argv)] = {"exit": code, "stdout": _stored(out.getvalue()), "stderr": _stored(err.getvalue())}
    finally:
        os.chdir(cwd)
    return runs


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for seed in SEEDS:
            write_inputs(seed, root / f"seed{seed}")
        runs = outputs(root)
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"wrote {len(runs)} commands to {GOLDEN}")


if __name__ == "__main__":
    main()
