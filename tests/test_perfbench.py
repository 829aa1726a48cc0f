"""The benchmark's self-test as part of the suite: perfbench/run.py reads
library surface (codec.layout, the functions its tracer wraps) that only a
real benchmark run exercises."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr[-4000:]
