"""The benchmark's self-test runs against the library in ``src``.

A change that breaks a name the benchmark binds (a traced function, a
config field it sets) fails here, before the benchmark itself is run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-test passed" in proc.stdout


# A tiny traced pass of one workload, its per-layer figures printed as JSON.
_TRACED_PASS = """
import json, sys
from pathlib import Path
root, out, workload, size = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3], sys.argv[4]
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import workloads
result, _ = workloads.run(workload, 1, 0.2, True, root, out, json.loads(size))
print(json.dumps({name: m["value"] for name, m in result["metrics"].items()}))
"""

# Each workload's tiny size, and the figures its traced pass must read above
# 0. The tracer wraps a function by name in the module namespaces that bind
# it; a workload that reaches the code by another name reads 0.
_TRACED = {
    "transcripts": ({"scale": 0.05},
                    ["pipeline.normalize_sentence.self_s", "classify.classify.calls"]),
    "written": ({"scale": 0.05},
                ["extract.extract_numeric_literals.calls", "extract.literals_found",
                 "verbalize.parse_literal.calls"]),
    "paragraphs": ({"count": 4, "short": 2}, ["wer.edit_distance.calls"]),
    "corpus": ({"per_type": 1, "plans": 1},
               ["datagen.validate_record.calls", "manifest.write_manifest.self_s",
                "evaluate.evaluate.self_s"]),
}


@pytest.mark.parametrize("workload", _TRACED)
def test_tracer_sees_what_the_workload_calls(workload, tmp_path):
    size, figures = _TRACED[workload]
    proc = subprocess.run([sys.executable, "-c", _TRACED_PASS, str(ROOT), str(tmp_path),
                           workload, json.dumps(size)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert {name: metrics[name] for name in figures if not metrics[name] > 0} == {}
