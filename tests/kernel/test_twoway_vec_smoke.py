"""CI smoke for the twoway bitset-vs-vec benchmark (E22).

Runs ``benchmarks/bench_twoway_vec.py --quick`` — the base row plus a
countermodel check — and fails if the two backends diverge on any
verdict, pipeline stat, survivor set, or synthesized countermodel, or if
the row's examined connector picks or survivors leave their pinned
figures.  Skips cleanly when numpy is not installed.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.kernel.backend import HAVE_NUMPY

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = REPO_ROOT / "benchmarks" / "bench_twoway_vec.py"


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed; vec backend unavailable")
def test_quick_twoway_vec_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--quick"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"twoway vec smoke failed (exit {proc.returncode}):\n"
        f"{proc.stdout}\n{proc.stderr}"
    )
    assert "E22 FAILURE" not in proc.stderr
