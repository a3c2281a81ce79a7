"""CI smoke for the vec-vs-bitset kernel benchmark (E21).

Runs ``benchmarks/bench_vec_kernel.py --quick`` — trimmed A/B rows — and
fails if the two backends diverge on any verdict, wave count, per-wave
work counter, survivor set, or synthesized countermodel, or if a row's
count of tested candidates moves off its pin.  Times are not asserted.
Skips cleanly when numpy is not installed.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.kernel.backend import HAVE_NUMPY

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = REPO_ROOT / "benchmarks" / "bench_vec_kernel.py"


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed; vec backend unavailable")
def test_quick_vec_kernel_smoke():
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
        f"vec kernel smoke failed (exit {proc.returncode}):\n"
        f"{proc.stdout}\n{proc.stderr}"
    )
    assert "E21 FAILURE" not in proc.stderr
