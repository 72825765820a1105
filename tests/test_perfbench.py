"""The benchmark's self-test runs against the library in ``src``.

A change that breaks a name the benchmark binds (a traced function, a
config field it sets) fails here, before the benchmark itself is run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-test passed" in proc.stdout


# A tiny traced ``transcripts`` pass, its per-layer figures printed as JSON.
_TRACED_TRANSCRIPTS = """
import json, sys
from pathlib import Path
root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import workloads
result, _ = workloads.run("transcripts", 1, 0.2, True, root, out, {"scale": 0.05})
print(json.dumps({name: m["value"] for name, m in result["metrics"].items()}))
"""


def test_tracer_times_normalize(tmp_path):
    # The tracer wraps ``pipeline.normalize_sentence``; what ``transcripts``
    # calls must be that function, or its self time reads 0.
    proc = subprocess.run([sys.executable, "-c", _TRACED_TRANSCRIPTS, str(ROOT), str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["pipeline.normalize_sentence.self_s"] > 0
    assert metrics["classify.classify.calls"] > 0
