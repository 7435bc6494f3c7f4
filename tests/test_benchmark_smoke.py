"""The benchmark's smoke run: every workload at tiny sizes with all of its
checks, so a rename of anything the benchmark calls fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
