"""The benchmark's self-test runs against the library in ``src``.

A change that breaks a name the benchmark binds (a traced function, a
config field it sets) fails here, before the benchmark itself is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-test passed" in proc.stdout
