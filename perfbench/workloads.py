"""The four workloads, each timed untraced, traced, and replayed through the CLI.

A run of a workload:

1. with ``trace`` off, runs passes until the time is up. Every pass gets
   inputs of its own, built from (seed, pass index) between passes, of the
   same size and mix each time, so a cache across calls gains nothing.
   Every call is timed on its own and followed by a sample of the speed
   control (``control.py``); a pass gives a throughput, a median and a
   tail over its items, scaled to the control's reference speed, and the
   result reports the median of each over the passes;
2. checks every pass against the oracles in ``oracles.py``;
3. with ``trace`` on, runs pass 0's inputs untraced and traced, twice, for
   the per-layer figures, the tracing overhead and the repeat check on
   counts;
4. feeds pass 0's inputs once through ``numitn.cli.main`` and requires
   its output digest to equal the library loop's ``output_sha256``.

Calls into numitn go through module attributes (``pipeline.normalize_text``)
so the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from numitn import cli, datagen, manifest, pipeline, verbalize, wer
from numitn.locales import DEFAULT_CONFIG
from numitn.types import ExpressionType

# The package re-exports the function ``evaluate`` under the module's name.
evaluate = importlib.import_module("numitn.evaluate")

import control
import inputs
import oracles
import tracer as tr

GUARD_THRESHOLD = 0.5
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
SETUP_REPEATS = 11
# Control samples a set-up child takes after it is done: the first ones
# run cold and are dropped.
CONTROL_WARMUP, CONTROL_SAMPLES = 50, 200
SPLITS = ("train", "dev", "test")
# After pass 0, the round trip through normalize (five times the cost of
# the verbalize call it checks) runs on every 16th line, a different
# sixteenth each pass; the digit check runs on every line.
ROUND_TRIP_EVERY = 16
clock = time.perf_counter_ns


@dataclass
class Outcome:
    """What a pass produced for one item, the nanoseconds its call took,
    and those of the control samples taken right after it."""

    output: Any
    ns: int
    control_ns: list[int]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    probe_attempted: int = 0
    probe_failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, ok: bool, probe: bool, where: str) -> None:
        if probe:
            self.probe_attempted += 1
            self.probe_failed += not ok
        else:
            self.attempted += 1
            self.failed += not ok
            if not ok and len(self.failures) < 20:
                self.failures.append(where)


def _call(fn: Any, *args: Any) -> tuple[Any, int]:
    start = clock()
    try:
        out = fn(*args)
    except Exception as err:  # a failing line is counted, not fatal
        out = err
    return out, clock() - start


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _lines(values: list[Any]) -> bytes:
    return "".join(f"{v}\n" for v in values).encode("utf-8")


class Workload:
    """Per-pass inputs, the measured call on one item, the oracle on its
    output, and the CLI replay of pass 0.

    ``op`` names the measured call and ``unit`` what ``work`` counts, for
    the run record's ``<op>.<unit>_per_s``; ``gauge`` is the speed control
    whose slowdown is nearest the call's (see ``control.py``)."""

    op = ""
    unit = ""
    gauge = control.LOOP

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cfg = DEFAULT_CONFIG

    def make_pass(self, index: int) -> list:
        raise NotImplementedError

    def begin(self, index: int) -> None:
        """Reset per-pass state before pass ``index``."""

    def call(self, item: Any) -> Any:
        raise NotImplementedError

    def settle(self, item: Any, result: Any) -> Any:
        """Turn a call's result into the output the oracle sees (untimed)."""
        return result

    def ok(self, item: Any, output: Any, index: int, at: int) -> bool:
        raise NotImplementedError

    def work(self, item: Any, output: Any) -> int:
        return 1

    def library_output(self, items: list, outcomes: list[Outcome]) -> bytes:
        raise NotImplementedError

    def cli_output(self, items: list, workdir: Path, config: Path) -> bytes:
        raise NotImplementedError

    def extra_record(self, items: list, outcomes: list[Outcome]) -> dict:
        """Workload-specific figures from pass 0."""
        return {}

    def run_pass(self, items: list, index: int, tracer: Optional[tr.Tracer]) -> list[Outcome]:
        self.begin(index)
        out: list[Outcome] = []
        for at, item in enumerate(items):
            if tracer is not None:
                tracer.line = at
            result, took = _call(self.call, item)
            out.append(Outcome(self.settle(item, result), took, control.after(self.gauge, took)))
        return out


# --- transcripts and written ---------------------------------------------------------


class Transcripts(Workload):
    """The spoken side of the transcript lines through ``pipeline.normalize_text``."""

    op, unit, gauge = "normalize", "lines", control.MIXED

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed)
        self.scale = scale
        self.locales = {code: self.cfg.locale(code) for code in inputs.LOCALES}

    def make_pass(self, index):
        return [line for line in inputs.transcript_lines(self.seed, index, self.scale)
                if line.spoken is not None]

    def text(self, line: inputs.TranscriptLine) -> str:
        return line.spoken

    def call(self, line):
        return pipeline.normalize_text(line.spoken, self.locales[line.locale],
                                       self.cfg.currencies)

    def ok(self, line, output, index, at):
        return output == line.written

    def library_output(self, items, outcomes):
        return b"".join(_lines([o.output for line, o in zip(items, outcomes)
                                if not line.probe and line.locale == code])
                        for code in inputs.LOCALES)

    def cli_argv(self) -> list[str]:
        return []

    def cli_output(self, items, workdir, config):
        chunks = []
        for code in inputs.LOCALES:
            path = workdir / f"{self.op}-{code}.txt"
            path.write_bytes(_lines([self.text(line) for line in items
                                     if not line.probe and line.locale == code]))
            argv = [self.op, "--locale", code, "--config", str(config), str(path)]
            status, stdout = _run_cli(argv + self.cli_argv())
            if status != 0:
                raise RuntimeError(f"numitn {self.op} --locale {code} exited {status}")
            chunks.append(stdout.encode("utf-8"))
        return b"".join(chunks)

    def extra_record(self, items, outcomes):
        defects: dict[inputs.TranscriptLine, dict] = {}
        for at, (line, outcome) in enumerate(zip(items, outcomes)):
            if line.probe and line not in defects:
                got = outcome.output
                defects[line] = {
                    "locale": line.locale, "op": self.op, "input": self.text(line),
                    "expected": line.written,
                    "got": repr(got) if isinstance(got, Exception) else got,
                    "ok": self.ok(line, got, 0, at)}
        return {"known_defects": list(defects.values())}


class Written(Transcripts):
    """The written side of the same lines through ``verbalize.verbalize_line``.

    A verbalize probe (``spoken`` is None) must give its input back; every
    other line must come out without digits and, where the round trip is
    checked, normalize back to the written line."""

    op, gauge = "verbalize", control.TEXT

    def make_pass(self, index):
        return [line for line in inputs.transcript_lines(self.seed, index, self.scale)
                if not (line.probe and line.spoken is not None)]

    def text(self, line):
        return line.written

    def begin(self, index):
        # One stream per locale, as one CLI call per locale file has.
        seed = inputs.verbalize_seed(self.seed, index)
        self.rngs = {code: random.Random(seed) for code in inputs.LOCALES}
        self.probe_rng = random.Random(seed)

    def call(self, line):
        rng = self.probe_rng if line.probe else self.rngs[line.locale]
        return verbalize.verbalize_line(line.written, self.locales[line.locale], rng,
                                        self.cfg.currencies)

    def ok(self, line, output, index, at):
        if line.probe:
            return output == line.written
        if not oracles.verbalize_ok(output):
            return False
        if index and at % ROUND_TRIP_EVERY != index % ROUND_TRIP_EVERY:
            return True
        back = pipeline.normalize_text(output, self.locales[line.locale], self.cfg.currencies)
        return oracles.round_trip_ok(back, line.written)

    def cli_argv(self):
        return ["--seed", str(inputs.verbalize_seed(self.seed, 0))]


# --- paragraphs ---------------------------------------------------------------------


class Paragraphs(Workload):
    op, unit = "guard", "tokens"

    def __init__(self, seed: int, count: int = inputs.PARAGRAPHS,
                 short: int = inputs.SHORT_PAIRS) -> None:
        super().__init__(seed)
        self.size = (count, short)
        started = time.perf_counter()
        self.reference = [oracles.reference_distance(p.source.split(), p.rewritten.split())
                          for p in self.make_pass(0)]
        self.reference_s = time.perf_counter() - started

    def make_pass(self, index):
        return inputs.paragraph_pairs(self.seed, index, *self.size)

    def call(self, pair):
        return wer.guard(pair.source, pair.rewritten)

    def ok(self, pair, output, index, at):
        fast = oracles.bit_vector_distance(pair.source.split(), pair.rewritten.split())
        # On pass 0 the textbook DP is the reference and the bit-vector
        # oracle must agree with it; later passes rely on the latter.
        if index == 0 and fast != self.reference[at]:
            return False
        return oracles.guard_ok(output, pair.source, pair.rewritten, fast, GUARD_THRESHOLD)

    def work(self, pair, output):
        return len(pair.source.split())

    def library_output(self, items, outcomes):
        return _lines([getattr(o.output, "text", repr(o.output)) for o in outcomes])

    def cli_output(self, items, workdir, config):
        source, rewritten = workdir / "source.txt", workdir / "rewritten.txt"
        source.write_bytes(_lines([p.source for p in items]))
        rewritten.write_bytes(_lines([p.rewritten for p in items]))
        status, stdout = _run_cli(["guard", str(source), str(rewritten),
                                   "--threshold", str(GUARD_THRESHOLD)])
        if status != 0:
            raise RuntimeError(f"numitn guard exited {status}")
        return stdout.encode("utf-8")

    def extra_record(self, items, outcomes):
        kept = sum(1 for o in outcomes if getattr(o.output, "kept", False))
        short = [o.ns for p, o in zip(items, outcomes)
                 if len(p.source.split()) <= inputs.SHORT_TOKENS[1]]
        return {"pairs": len(items), "kept": kept, "reverted": len(outcomes) - kept,
                "reference_dp_s": self.reference_s,
                "source_tokens": sum(self.work(p, None) for p in items),
                "short_pairs": len(short),
                "short_p50_ms": statistics.median(short) / 1e6 if short else None}


# --- corpus -------------------------------------------------------------------------


class Corpus(Workload):
    op, unit, gauge = "corpus", "records", control.TEXT

    def __init__(self, seed: int, per_type: int = inputs.CORPUS_PER_TYPE,
                 plans: int = inputs.CORPUS_PLANS) -> None:
        super().__init__(seed)
        self.size = (per_type, plans)
        self.workdir: Optional[Path] = None
        self.concurrency = min(4, os.cpu_count() or 1)

    def make_pass(self, index):
        return inputs.corpus_plans(self.seed, index, *self.size)

    def call(self, plan):
        assert self.workdir is not None
        workdir = self.workdir
        locale = self.cfg.locale(plan.locale)
        gen_plan = datagen.GenerationPlan(
            locale=locale, counts={t: plan.per_type for t in ExpressionType},
            sweep_timestamp_phrasings=plan.sweep, seed=plan.seed)
        records, _ = datagen.run_generation(
            gen_plan, datagen.RuleBasedTextGenerator(locale, plan.seed),
            datagen.MockSpeechSynthesizer(datagen.ClientConfig(max_concurrency=self.concurrency)))
        manifest.write_manifest(records, workdir / "all.jsonl")
        loaded = manifest.read_manifest(workdir / "all.jsonl")
        parts = datagen.split_disjoint(loaded, datagen.SplitSpec(0.7, 0.1, 0.2, plan.seed))
        for name, part in zip(SPLITS, parts):
            manifest.write_manifest(part, workdir / f"{name}.jsonl")
        test = manifest.read_manifest(workdir / "test.jsonl")
        report = evaluate.evaluate([
            evaluate.EvalItem(r.formatted,
                              pipeline.normalize_text(r.verbalized, self.cfg.locale(r.locale),
                                                      self.cfg.currencies),
                              tuple((s, ExpressionType(t)) for s, t in r.expressions))
            for r in test])
        return records, parts, report

    def settle(self, plan, result):
        """(bytes produced, record count, report verdict, split verdict)."""
        if isinstance(result, Exception):
            return result
        records, parts, report = result
        split_bytes = b"".join((self.workdir / f"{n}.jsonl").read_bytes() for n in SPLITS)
        produced = (_lines([r.to_json() for r in records]) + split_bytes
                    + _lines([evaluate.render_report(report, "table")]))
        return (produced, len(records), oracles.report_ok(report),
                oracles.split_ok([[(r.id, r.surfaces()) for r in part] for part in parts],
                                 {r.id for r in records}))

    def ok(self, plan, output, index, at):
        return not isinstance(output, Exception) and output[1] > 0 and output[2] and output[3]

    def work(self, plan, output):
        return 0 if isinstance(output, Exception) else output[1]

    def library_output(self, items, outcomes):
        return b"".join(b"" if isinstance(o.output, Exception) else o.output[0]
                        for o in outcomes)

    def cli_output(self, items, workdir, config):
        chunks = []
        for plan in items:
            n = str(plan.per_type)
            status, generated = _run_cli([
                "gen", "--locale", plan.locale, "--config", str(config), "--years", n,
                "--timestamps", n, "--currencies", n, "--quantities", n,
                "--seed", str(plan.seed)] + ["--sweep-timestamps"] * plan.sweep)
            gen_path = workdir / "cli-gen.jsonl"
            gen_path.write_text(generated, encoding="utf-8")
            split_dir = workdir / "cli-split"
            status |= _run_cli(["split", "--manifest", str(gen_path), "--out-dir", str(split_dir),
                                "--seed", str(plan.seed)])[0]
            split_bytes = b"".join((split_dir / f"{n}.jsonl").read_bytes() for n in SPLITS)
            test = [json.loads(line) for line in
                    (split_dir / "test.jsonl").read_text(encoding="utf-8").splitlines()]
            hypotheses = workdir / "cli-hyp.txt"
            hypotheses.write_bytes(_lines([record["verbalized"] for record in test]))
            code, report = _run_cli(["eval", "--manifest", str(split_dir / "test.jsonl"),
                                     "--hypotheses", str(hypotheses), "--normalize-before-wer",
                                     "--config", str(config)])
            if status | code:
                raise RuntimeError(f"numitn gen/split/eval failed for plan {plan}")
            chunks.append(generated.encode("utf-8") + split_bytes + report.encode("utf-8"))
        return b"".join(chunks)

    def extra_record(self, items, outcomes):
        return {"rounds": len(items),
                "records": sum(self.work(p, o.output) for p, o in zip(items, outcomes)),
                "synthesis_threads": self.concurrency}


WORKLOADS = {"transcripts": Transcripts, "written": Written, "paragraphs": Paragraphs,
             "corpus": Corpus}


# --- statistics ---------------------------------------------------------------------


def _quantile(ordered: list[float], p: float) -> float:
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _quantiles(values: list[float]) -> tuple[float, float, float, int]:
    """(median, tail percentile, tail value, samples beyond it).

    The tail is the highest ladder percentile with at least ten samples
    beyond it, or the median when there are too few samples for that."""
    ordered = sorted(values)
    n = len(ordered)
    tail_p = max((p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= 10), default=50)
    return (_quantile(ordered, 50), tail_p, _quantile(ordered, tail_p),
            n - math.ceil(tail_p / 100 * n))


# --- set-up time --------------------------------------------------------------------

_WARM = {
    "transcripts": (
        "from numitn import pipeline\n"
        "for code, spoken in (('en', 'It cost five dollars in nineteen ninety.'), "
        "('de', 'Es kostete fünf Euro um halb acht.')):\n"
        "    pipeline.normalize_text(spoken, cfg.locale(code), cfg.currencies)\n"),
    "written": (
        "import random\n"
        "from numitn import verbalize\n"
        "for code, written in (('en', 'It cost $5 in 1990.'), ('de', 'Es kostete 5€ um 7:30.')):\n"
        "    verbalize.verbalize_line(written, cfg.locale(code), random.Random(0), cfg.currencies)\n"),
    "paragraphs": (
        "from numitn import wer\n"
        "wer.guard('it cost five dollars', 'it cost $5')\n"),
    "corpus": (
        "from numitn import datagen\n"
        "from numitn.evaluate import EvalItem, evaluate\n"
        "from numitn.types import ExpressionType\n"
        "locale = cfg.locale('en')\n"
        "records, _ = datagen.run_generation(\n"
        "    datagen.GenerationPlan(locale=locale, counts={ExpressionType.YEAR: 1}),\n"
        "    datagen.RuleBasedTextGenerator(locale),\n"
        "    datagen.MockSpeechSynthesizer(datagen.ClientConfig(max_concurrency=1)))\n"
        "evaluate([EvalItem(r.formatted, r.formatted) for r in records])\n"),
}


def setup_seconds(root: Path, workload: str, config: Path, repeats: int = SETUP_REPEATS
                  ) -> list[tuple[float, float]]:
    """Time for a fresh interpreter (without site packages) to import
    numitn.cli, load the locale config and finish the workload's first
    call, ``repeats`` times, each with the speed of the text control
    (imports are mostly C and system calls) sampled in the same child
    right after.

    The child prints the monotonic clock when it is done, which every
    process on the machine shares; timing the wait from here instead would
    round up to the 50 ms polling step ``subprocess`` uses with a timeout."""
    code = (f"import sys, time\nsys.path.insert(0, {str(root / 'src')!r})\n"
            "import numitn.cli\nfrom numitn.locales import load_locale_config\n"
            f"cfg = load_locale_config({str(config)!r})\n" + _WARM[workload]
            + "print(time.perf_counter())\n"
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "import control\n"
            f"samples = [control.sample(control.TEXT) for _ in range({CONTROL_WARMUP + CONTROL_SAMPLES})]\n"
            f"print(control.speed(control.TEXT, samples[{CONTROL_WARMUP}:]))\n")
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-I", "-S", "-c", code], cwd=root, check=True,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=120)
        finished, speed = map(float, done.stdout.split()[-2:])
        times.append((finished - started, speed))
    return times


# --- a run --------------------------------------------------------------------------


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        out_dir: Path, size: Optional[dict] = None, setup_repeats: int = SETUP_REPEATS
        ) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        workdir = Path(scratch)
        config = workdir / "locales.json"
        config.write_text("{}\n", encoding="utf-8")
        work = WORKLOADS[workload](seed, **(size or {}))
        if isinstance(work, Corpus):
            work.workdir = workdir
        setup = None if trace else setup_seconds(root, workload, config, setup_repeats)
        # Freeze set-up garbage so the collector only walks what the
        # measured calls allocate.
        gc.collect()
        gc.freeze()
        try:
            if trace:
                measured = _traced(work, workdir, config)
            else:
                measured = _timed(work, seconds, workdir, config)
        finally:
            gc.unfreeze()
    result, record = measured
    record.update({"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                   "nproc": os.cpu_count(), "python": sys.version.split()[0],
                   "git_sha": git_sha(root)})
    if setup is not None:
        record["setup_s.unscaled"] = [seconds for seconds, _ in setup]
        record["setup_s.speed"] = [speed for _, speed in setup]
        result["metrics"]["setup_s"] = {
            "value": statistics.median(seconds * speed for seconds, speed in setup), "unit": "s"}
        result["metrics"]["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    return result, record


def judge(work: Workload, items: list, outcomes: list[Outcome], index: int,
          tally: Tally) -> None:
    """Count every output of pass ``index`` as passing or failing its oracle."""
    for at, (item, outcome) in enumerate(zip(items, outcomes)):
        tally.add(work.ok(item, outcome.output, index, at), getattr(item, "probe", False),
                  f"pass {index} item {at}")


def check_cli(work: Workload, items: list, outcomes: list[Outcome], workdir: Path,
              config: Path, cli_tracer: Optional[tr.Tracer] = None) -> dict:
    """The library's output digest for pass 0 and the CLI replay's."""
    library = work.library_output(items, outcomes)
    with cli_tracer or contextlib.nullcontext():
        replay = work.cli_output(items, workdir, config)
    record = {"output_sha256": hashlib.sha256(library).hexdigest(),
              "cli_sha256": hashlib.sha256(replay).hexdigest()}
    record["cli_parity"] = record["output_sha256"] == record["cli_sha256"]
    return record


def trace_problems(layers: list[dict], tracers: list[tr.Tracer]) -> list[str]:
    """Counts that differ between the two traced passes, and bad spans."""
    problems = []
    if tr.count_signature(layers[0]) != tr.count_signature(layers[1]):
        problems.append("counts differ between the two traced passes")
    for tracer in tracers:
        problems += tr.check_spans(tracer.spans)
    return problems


def result_line(tally: Tally, record: dict, ok: bool, metrics: dict) -> dict:
    total = tally.attempted + tally.probe_attempted
    record.update({
        "attempted": tally.attempted, "failed": tally.failed,
        "probe_attempted": tally.probe_attempted, "probe_failed": tally.probe_failed,
        "error_rate": (tally.failed + tally.probe_failed) / max(total, 1),
        "failures": tally.failures})
    return {"correct": ok and tally.failed == 0 and record["cli_parity"],
            "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def _pass_stats(work: Workload, items: list, outcomes: list[Outcome]) -> dict:
    """Throughput, median and tail of one pass at the control's reference speed."""
    speed = control.speed(work.gauge, [ns for o in outcomes for ns in o.control_ns])
    ns = [o.ns * speed for o in outcomes]
    done = sum(work.work(item, o.output) for item, o in zip(items, outcomes))
    p50, tail_p, tail_v, beyond = _quantiles(ns)
    return {"throughput": done / (sum(ns) / 1e9), "p50_ms": p50 / 1e6, "tail_ms": tail_v / 1e6,
            "tail_percentile": tail_p, "tail_beyond": beyond, "samples": len(ns),
            "speed": speed}


def _timed(work: Workload, seconds: float, workdir: Path, config: Path) -> tuple[dict, dict]:
    """Passes over fresh inputs until ``seconds`` are up; each metric is
    the median of its per-pass values, so the pass count does not bias it.

    Pass 0 warms up caches and lazy set-up: it is checked and replayed
    through the CLI like every pass, but left out of the metrics."""
    deadline = clock() + int(seconds * 1e9)
    tally = Tally()
    stats: list[dict] = []
    index = 0
    while index < 2 or clock() < deadline:
        items = work.make_pass(index)
        outcomes = work.run_pass(items, index, None)
        judge(work, items, outcomes, index, tally)
        if index == 0:
            first = items, outcomes
        else:
            stats.append(_pass_stats(work, items, outcomes))
        index += 1
    record = check_cli(work, *first, workdir, config)
    median = {key: statistics.median(s[key] for s in stats)
              for key in ("throughput", "p50_ms", "tail_ms", "speed")}
    speeds = [s["speed"] for s in stats]
    record.update({
        "passes": len(stats),
        "speed": {"min": min(speeds), "median": median["speed"], "max": max(speeds)},
        **{key: stats[0][key] for key in ("tail_percentile", "tail_beyond", "samples")},
        f"{work.op}.{work.unit}_per_s": median["throughput"],
        f"{work.op}.p50_ms": median["p50_ms"], f"{work.op}.tail_ms": median["tail_ms"],
        # The same medians unscaled, as the wall clock saw them.
        "unscaled": {key: statistics.median(s[key] * (s["speed"] if key == "throughput"
                                                      else 1 / s["speed"]) for s in stats)
                     for key in ("throughput", "p50_ms", "tail_ms")}})
    record.update(work.extra_record(*first))
    metrics = {name: {"value": median[name], "unit": unit}
               for name, unit in (("throughput", "1/s"), ("p50_ms", "ms"), ("tail_ms", "ms"))}
    return result_line(tally, record, True, metrics), record


def _traced(work: Workload, workdir: Path, config: Path) -> tuple[dict, dict]:
    """Pass 0's inputs, untraced and traced in turn, twice; overhead
    compares the faster pass of each kind."""
    items = work.make_pass(0)
    tracers, traced_ns, untraced_ns, passes = [], [], [], []
    for _ in range(2):
        started = clock()
        passes.append(work.run_pass(items, 0, None))
        untraced_ns.append(clock() - started)
        with tr.Tracer() as tracer:
            started = clock()
            passes.append(work.run_pass(items, 0, tracer))
            traced_ns.append(clock() - started)
        tracers.append(tracer)
    tally = Tally()
    for outcomes in passes:
        judge(work, items, outcomes, 0, tally)
    cli_tracer = tr.Tracer()
    record = check_cli(work, items, passes[0], workdir, config, cli_tracer)
    layers = [tr.layer_metrics(t, cli_tracer) for t in tracers]
    for metrics, tracer in zip(layers, tracers):
        metrics["trace.spans"] = (len(tracer.spans), "count")
    problems = trace_problems(layers, tracers)
    overhead = (min(traced_ns) - min(untraced_ns)) / 1e9
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers[0].items()}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    record.update({"untraced_s": [ns / 1e9 for ns in untraced_ns],
                   "traced_s": [ns / 1e9 for ns in traced_ns],
                   "trace.overhead_s": overhead, "problems": problems[:20]})
    return result_line(tally, record, not problems, metrics), record
