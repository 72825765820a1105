"""Self-test of the benchmark's own checks, on a tiny size.

    python3 perfbench/selftest.py

Runs every workload at a tiny size with tracing off and on, requires each
run to pass and to report every metric ``BENCHMARK.json`` names with its
unit, then feeds each oracle a deliberately corrupted output, and the
run's other gates (CLI parity, repeated counts, span nesting) a broken
replay, count or span, and requires each to object. Exits 0 when all of
that holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "transcripts": {"scale": 0.05},
    "written": {"scale": 0.05},
    "paragraphs": {"count": 6, "short": 4},
    "corpus": {"per_type": 1, "plans": 3},
}
SEED = 7


def check_runs(spec: dict, problems: list[str]) -> None:
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result, record = workloads.run(name, SEED, 0.2, trace, ROOT, HERE / "out",
                                           TINY[name], setup_repeats=1)
            where = f"{name} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct ({record.get('failures')}, "
                                f"parity={record.get('cli_parity')}, "
                                f"trace={record.get('problems')})")
            wanted = spec["per_layer" if trace else "end_to_end"]
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{where}: metric {metric['name']} missing or wrong unit")


def expect_reject(problems: list[str], label: str, verdict: bool) -> None:
    if verdict:
        problems.append(f"check accepted a corrupted output: {label}")


def check_oracles(problems: list[str]) -> None:
    def reject(label: str, verdict: bool) -> None:
        expect_reject(problems, label, verdict)

    spoken = workloads.Transcripts(SEED, **TINY["transcripts"])
    items = spoken.make_pass(1)
    outcomes = spoken.run_pass(items, 1, None)
    at = next(i for i, line in enumerate(items) if not line.probe and line.kind == "currency")
    line, out = items[at], outcomes[at].output
    if not spoken.ok(line, out, 1, at):
        problems.append("transcripts oracle rejected a correct line")
    reject("normalize output with a digit changed",
           spoken.ok(line, out.replace("0", "9", 1) if "0" in out else out + "1", 1, at))

    written = workloads.Written(SEED, **TINY["written"])
    items = written.make_pass(1)
    outcomes = written.run_pass(items, 1, None)
    at = next(i for i, line in enumerate(items) if not line.probe and line.kind == "currency")
    line, out = items[at], outcomes[at].output
    # Position 1 is among those whose round trip pass 1 checks.
    if not written.ok(line, out, 1, 1):
        problems.append("written oracle rejected a correct line")
    reject("verbalize output left in digits", written.ok(line, line.written, 1, 1))
    reject("verbalize output with a word inserted",
           written.ok(line, out.replace(" ", " und ", 1), 1, 1))
    reject("verbalize output with a word inserted, on pass 0",
           written.ok(line, out.replace(" ", " und ", 1), 0, at))

    paragraphs = workloads.Paragraphs(SEED, **TINY["paragraphs"])
    for index in (0, 1):
        items = paragraphs.make_pass(index)
        outcomes = paragraphs.run_pass(items, index, None)
        kept = [o.output.kept for o in outcomes]
        if not (any(kept) and not all(kept)):
            problems.append(f"paragraphs pass {index}: expected kept and reverted decisions")
        pair, decision = items[0], outcomes[0].output
        reject(f"guard decision flipped on pass {index}", paragraphs.ok(
            pair, dataclasses.replace(decision, kept=not decision.kept), index, 0))
        reject(f"guard WER off by one edit on pass {index}", paragraphs.ok(
            pair, dataclasses.replace(decision, wer=decision.wer + 1 / len(
                pair.source.split())), index, 0))
    items = paragraphs.make_pass(0)
    outcomes = paragraphs.run_pass(items, 0, None)
    paragraphs.reference[0] += 1
    reject("bit-vector oracle disagreeing with the textbook DP",
           paragraphs.ok(items[0], outcomes[0].output, 0, 0))

    from numitn.evaluate import EvalReport, TypeCount
    from numitn.types import ExpressionType
    reject("report with a missed year", oracles.report_ok(
        EvalReport(0, 10, {ExpressionType.YEAR: TypeCount(1, 2)})))
    reject("report with WER above 0", oracles.report_ok(
        EvalReport(1, 10, {ExpressionType.YEAR: TypeCount(2, 2)})))
    reject("splits sharing a surface", oracles.split_ok(
        [[("a", ("1945",))], [("b", ("1945",))], [("c", ("$5",))]], {"a", "b", "c"}))
    reject("split that lost a record", oracles.split_ok(
        [[("a", ("1",))], [("b", ("2",))], [("c", ("3",))]], {"a", "b", "c", "d"}))


def check_gates(problems: list[str]) -> None:
    """The gates on a run besides the oracles: CLI parity, count repeats, spans."""
    def reject(label: str, verdict: bool) -> None:
        expect_reject(problems, label, verdict)

    paragraphs = workloads.Paragraphs(SEED, **TINY["paragraphs"])
    items = paragraphs.make_pass(0)
    outcomes = paragraphs.run_pass(items, 0, None)
    paragraphs.cli_output = lambda items, workdir, config: b"a different replay\n"
    record = workloads.check_cli(paragraphs, items, outcomes, HERE / "out", HERE / "out")
    reject("CLI replay with a different digest", record["cli_parity"])
    reject("run whose CLI replay differs",
           workloads.result_line(workloads.Tally(attempted=1), record, True, {})["correct"])

    tracer = tr.Tracer()
    #           sid parent name          start end line info
    tracer.spans = [(1, 0, "wer.guard", 0, 100, 0, True),
                    (2, 1, "wer.edit_distance", 10, 90, 0, (3, 3))]
    layers = tr.layer_metrics(tracer)
    if workloads.trace_problems([layers, dict(layers)], [tracer]):
        problems.append("trace checks rejected a well-formed trace")
    bumped = dict(layers)
    bumped["wer.edit_distance.calls"] = (2, "count")
    reject("traced passes whose counts differ",
           not workloads.trace_problems([layers, bumped], [tracer]))
    escaped = tr.Tracer()
    escaped.spans = [(1, 0, "wer.guard", 0, 100, 0, None),
                     (2, 1, "wer.edit_distance", 50, 120, 0, None)]
    reject("child span ending after its parent", not tr.check_spans(escaped.spans))
    overlapping = [(1, 0, "wer.guard", 0, 100, 0, None),
                   (2, 1, "wer.edit_distance", 0, 80, 0, None),
                   (3, 1, "wer.edit_distance", 20, 100, 0, None)]
    reject("children covering more than their parent", not tr.check_spans(overlapping))
    reject("run with a bad span", workloads.result_line(
        workloads.Tally(attempted=1), {"cli_parity": True}, not workloads.trace_problems(
            [layers, layers], [escaped]), {})["correct"])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    check_runs(spec, problems)
    check_oracles(problems)
    check_gates(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
