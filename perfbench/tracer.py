"""Outside-in tracing of numitn's layers.

Nothing inside ``src/`` is instrumented. A ``Tracer`` replaces each
public function named in ``TARGETS`` in every ``numitn`` module namespace
that binds it, which is where callers look it up: ``scan_tokens`` finds
the patched ``parse_cardinal`` in ``numitn.grammar``, ``normalize_sentence``
finds the patched ``scan_tokens`` in ``numitn.pipeline``. Each wrapper
records a span (id, parent, name, start, end, line id, info) or, for the
count-only targets, bumps a counter. Spans stay in memory until the pass
ends; ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Target:
    module: str
    name: str
    label: str
    info: Optional[Callable[[tuple, Any], Any]] = None
    count_only: bool = False


def _scan_info(args: tuple, result: Any) -> tuple[int, int]:
    # Positions the scan tried: every token except those a candidate
    # swallowed after its first one.
    covered = sum(len(c.span) - 1 for c in result)
    return len(args[0]) - covered, len(result)


def _found(args: tuple, result: Any) -> bool:
    return result is not None


TARGETS = (
    Target("numitn.tokenizer", "tokenize", "tokenizer.tokenize", lambda a, r: len(r)),
    Target("numitn.grammar", "scan_tokens", "grammar.scan_tokens", _scan_info),
    Target("numitn.grammar", "parse_cardinal", "grammar.parse_cardinal", _found),
    Target("numitn.grammar", "parse_clock_phrase", "grammar.parse_clock_phrase", _found),
    Target("numitn.grammar", "parse_currency_phrase", "grammar.parse_currency_phrase", _found),
    Target("numitn.lexicon", "fold_german", "lexicon.fold_german", count_only=True),
    Target("numitn.classify", "classify", "classify.classify"),
    Target("numitn.classify", "resolve_time", "classify.resolve_time", count_only=True),
    Target("numitn.formatting", "format_expression", "formatting.format_expression"),
    Target("numitn.pipeline", "normalize_sentence", "pipeline.normalize_sentence"),
    Target("numitn.extract", "extract_numeric_literals", "extract.extract_numeric_literals",
           lambda a, r: len(r)),
    Target("numitn.verbalize", "verbalize_line", "verbalize.verbalize_line"),
    Target("numitn.verbalize", "parse_literal", "verbalize.parse_literal"),
    Target("numitn.verbalize", "verbalize_value", "verbalize.verbalize_value"),
    Target("numitn.wer", "edit_distance", "wer.edit_distance",
           lambda a, r: (len(a[0]), len(a[1]))),
    Target("numitn.wer", "guard", "wer.guard", lambda a, r: r.kept),
    Target("numitn.evaluate", "evaluate", "evaluate.evaluate"),
    Target("numitn.evaluate", "literal_present", "evaluate.literal_present", count_only=True),
    Target("numitn.manifest", "write_manifest", "manifest.write_manifest"),
    Target("numitn.manifest", "read_manifest", "manifest.read_manifest"),
    Target("numitn.datagen", "run_generation", "datagen.run_generation",
           lambda a, r: r[1].prompts_issued),
    Target("numitn.datagen", "validate_record", "datagen.validate_record", lambda a, r: bool(r)),
    Target("numitn.datagen", "split_disjoint", "datagen.split_disjoint"),
    Target("numitn.locales", "load_locale_config", "locales.load_locale_config"),
    Target("numitn.cli", "main", "cli.main"),
)

# Span tuple fields.
SID, PARENT, NAME, START, END, LINE, INFO = range(7)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit.

    Only the thread that entered is traced; calls from other threads (the
    synthesis pool in ``run_generation``) go straight to the original.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self.line = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "numitn" or name.startswith("numitn.")]
        for target in TARGETS:
            original = getattr(sys.modules[target.module], target.name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc: object) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        label = target.label
        counts = self.counts
        if target.count_only:
            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[label] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, ids, info = self.spans, self._stack, self._ids, target.info
        owner = threading.get_ident()
        clock, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if ident() != owner:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, label, start, end, self.line,
                              info(args, result) if info and result is not None else None))
        return traced


# --- per-layer metrics ------------------------------------------------------------

EDIT_BUCKETS = (("short", 16), ("medium", 256), ("long", None))


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the time covered by its child spans."""
    child = defaultdict(int)
    for span in spans:
        child[span[PARENT]] += span[END] - span[START]
    return {span[SID]: span[END] - span[START] - child[span[SID]] for span in spans}


def check_spans(spans: list[tuple]) -> list[str]:
    """Every child inside its parent, on the parent's line; every self time >= 0."""
    problems: list[str] = []
    by_id = {span[SID]: span for span in spans}
    for span in spans:
        parent = by_id.get(span[PARENT])
        if span[PARENT] and parent is None:
            problems.append(f"span {span[SID]} ({span[NAME]}) has an unknown parent")
        elif parent is not None and not (parent[START] <= span[START] <= span[END] <= parent[END]
                                          and parent[LINE] == span[LINE]):
            problems.append(f"span {span[SID]} ({span[NAME]}) escapes parent {parent[NAME]}")
    for sid, ns in self_times(spans).items():
        if ns < 0:
            problems.append(f"span {sid} ({by_id[sid][NAME]}) has negative self time")
    return problems


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, cli: Optional[Tracer] = None) -> dict[str, tuple[float, str]]:
    """Counts, self times and ratios for every layer, as (value, unit)."""
    spans = tracer.spans
    own = self_times(spans)
    calls: Counter[str] = Counter(tracer.counts)
    self_s: dict[str, float] = defaultdict(float)
    hits: Counter[str] = Counter()
    by_id = {span[SID]: span for span in spans}
    tokens = positions = candidates = literals = 0
    scan_in_normalize = classify_in_normalize = 0
    cells = edit_ns = kept = accepted = prompts = 0
    edit_self = dict.fromkeys((name for name, _ in EDIT_BUCKETS), 0.0)
    for span in spans:
        name, info = span[NAME], span[INFO]
        calls[name] += 1
        self_s[name] += own[span[SID]] / 1e9
        parent = by_id.get(span[PARENT])
        under_normalize = parent is not None and parent[NAME] == "pipeline.normalize_sentence"
        if name == "classify.classify" and under_normalize:
            classify_in_normalize += 1
        if info is None:
            continue
        if name.startswith("grammar.parse_"):
            hits[name] += info
        elif name == "tokenizer.tokenize":
            tokens += info
        elif name == "grammar.scan_tokens":
            positions += info[0]
            candidates += info[1]
            if under_normalize:
                scan_in_normalize += info[1]
        elif name == "extract.extract_numeric_literals":
            literals += info
        elif name == "wer.edit_distance":
            longest = max(info)
            cells += info[0] * info[1]
            edit_ns += span[END] - span[START]
            bucket = next(b for b, top in EDIT_BUCKETS if top is None or longest <= top)
            edit_self[bucket] += own[span[SID]] / 1e9
        elif name == "wer.guard":
            kept += bool(info)
        elif name == "datagen.validate_record":
            accepted += bool(info)
        elif name == "datagen.run_generation":
            prompts += info

    out: dict[str, tuple[float, str]] = {
        "tokenizer.tokenize.calls": (calls["tokenizer.tokenize"], "count"),
        "tokenizer.tokenize.self_s": (self_s["tokenizer.tokenize"], "s"),
        "tokenizer.tokens": (tokens, "count"),
        "grammar.scan_tokens.calls": (calls["grammar.scan_tokens"], "count"),
        "grammar.scan_tokens.self_s": (self_s["grammar.scan_tokens"], "s"),
        "grammar.positions": (positions, "count"),
        "grammar.candidates": (candidates, "count"),
        "grammar.no_parse_share": (_ratio(positions - candidates, positions), "ratio"),
    }
    for parser in ("parse_cardinal", "parse_clock_phrase", "parse_currency_phrase"):
        label = f"grammar.{parser}"
        out[f"{label}.calls"] = (calls[label], "count")
        out[f"{label}.self_s"] = (self_s[label], "s")
        out[f"{label}.calls_per_position"] = (_ratio(calls[label], positions), "ratio")
        out[f"{label}.hit_ratio"] = (_ratio(hits[label], calls[label]), "ratio")
    out.update({
        "lexicon.fold_german.calls": (calls["lexicon.fold_german"], "count"),
        "lexicon.fold_german.calls_per_token": (_ratio(calls["lexicon.fold_german"], tokens), "ratio"),
        "classify.classify.calls": (calls["classify.classify"], "count"),
        "classify.classify.self_s": (self_s["classify.classify"], "s"),
        "classify.resolve_time.calls": (calls["classify.resolve_time"], "count"),
        "formatting.format_expression.calls": (calls["formatting.format_expression"], "count"),
        "formatting.format_expression.self_s": (self_s["formatting.format_expression"], "s"),
        "pipeline.normalize_sentence.self_s": (self_s["pipeline.normalize_sentence"], "s"),
        "pipeline.skipped_literal_overlaps": (scan_in_normalize - classify_in_normalize, "count"),
        "extract.extract_numeric_literals.calls": (calls["extract.extract_numeric_literals"], "count"),
        "extract.extract_numeric_literals.self_s": (self_s["extract.extract_numeric_literals"], "s"),
        "extract.literals_found": (literals, "count"),
        "verbalize.verbalize_line.self_s": (self_s["verbalize.verbalize_line"], "s"),
        "verbalize.parse_literal.calls": (calls["verbalize.parse_literal"], "count"),
        "verbalize.parse_literal.self_s": (self_s["verbalize.parse_literal"], "s"),
        "verbalize.verbalize_value.calls": (calls["verbalize.verbalize_value"], "count"),
        "verbalize.verbalize_value.self_s": (self_s["verbalize.verbalize_value"], "s"),
        "wer.edit_distance.calls": (calls["wer.edit_distance"], "count"),
        "wer.edit_distance.cells": (cells, "count"),
        "wer.edit_distance.ns_per_cell": (_ratio(edit_ns, cells), "ns"),
    })
    for bucket, _ in EDIT_BUCKETS:
        out[f"wer.edit_distance.self_s.{bucket}"] = (edit_self[bucket], "s")
    out.update({
        "wer.guard.kept_ratio": (_ratio(kept, calls["wer.guard"]), "ratio"),
        "evaluate.evaluate.self_s": (self_s["evaluate.evaluate"], "s"),
        "evaluate.literal_present.calls": (calls["evaluate.literal_present"], "count"),
        "manifest.write_manifest.self_s": (self_s["manifest.write_manifest"], "s"),
        "manifest.read_manifest.self_s": (self_s["manifest.read_manifest"], "s"),
        "datagen.run_generation.self_s": (self_s["datagen.run_generation"], "s"),
        "datagen.validate_record.calls": (calls["datagen.validate_record"], "count"),
        "datagen.validate_record.self_s": (self_s["datagen.validate_record"], "s"),
        "datagen.accept_ratio": (_ratio(accepted, calls["datagen.validate_record"]), "ratio"),
        "datagen.prompts": (prompts, "count"),
        "datagen.split_disjoint.self_s": (self_s["datagen.split_disjoint"], "s"),
    })
    config_ns = main_ns = 0
    if cli is not None:
        cli_own = self_times(cli.spans)
        config_ns = sum(cli_own[s[SID]] for s in cli.spans
                        if s[NAME] == "locales.load_locale_config")
        main_ns = sum(s[END] - s[START] for s in cli.spans if s[NAME] == "cli.main")
    out["locales.load_locale_config.self_s"] = (config_ns / 1e9, "s")
    out["cli.main.wall_s"] = (main_ns / 1e9, "s")
    return out


def count_signature(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    """The metrics that must repeat exactly when the same input is traced again."""
    return {name: value for name, (value, unit) in metrics.items()
            if unit in ("count", "ratio")}
