"""Acceptance suite: ten criteria, one reported verdict line each.

Each criterion prints "PASS criterion N: ..." (or FAIL) and the same lines
are repeated in the terminal summary via conftest. Expected values come
from independent oracles computed here, never from the code under test.
"""

import itertools
import random
import time
from collections import deque
from decimal import Decimal

import pytest

from conftest import record_acceptance
from numitn.datagen import (
    GenerationPlan,
    MockSpeechSynthesizer,
    RuleBasedTextGenerator,
    SplitSpec,
    run_generation,
    split_disjoint,
)
from numitn.evaluate import EvalItem, EvalReport, TypeCount, evaluate, render_report
from numitn.extract import extract_numeric_literals
from numitn.formatting import format_currency, format_quantity, format_time, format_year
from numitn.grammar import parse_cardinal
from numitn.lexicon import verbalize_cardinal
from numitn.locales import DEFAULT_CONFIG, DEFAULT_CURRENCIES
from numitn.manifest import ManifestRecord
from numitn.pipeline import normalize_text
from numitn.tokenizer import tokenize
from numitn.types import (
    ExpressionType,
    NumericValue,
    TimeOfDay,
)
from numitn.verbalize import applicable_time_styles, time_words
from numitn.wer import GuardConfig, edit_distance, guard, word_error_rate

EN = DEFAULT_CONFIG.locale("en")
DE = DEFAULT_CONFIG.locale("de")
LOCALES = {"en": EN, "de": DE}


def _report(n: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"{verdict} criterion {n}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    record_acceptance(line)
    assert ok, line


# --- criterion 1 ---------------------------------------------------------------

GOLDEN_PAIRS = [
    ("en", "in nineteen forty-five", "in 1945"),
    ("en", "at quarter to eight in the evening", "at 19:45 in the evening"),
    ("en", "one thousand dollars and fifty cents", "$1,000.50"),
    ("de", "eintausend Euro und fünfzig Cent", "1.000,50€"),
    ("en", "two thousand pieces", "2,000 pieces"),
    ("de", "zweitausend Teile", "2.000 Teile"),
    ("de", "fünfzehn Uhr fünfundvierzig", "15:45"),
    ("de", "um 15.45 Uhr", "um 15:45"),
    ("en", "4pm", "16:00"),
    ("en", "five past seven", "7:05"),
    ("en", "nine point one million dollars", "$9.1 million"),
]


def test_criterion_01_golden_pairs():
    started = time.monotonic()
    failures = []
    for code, spoken, written in GOLDEN_PAIRS:
        got = normalize_text(spoken, LOCALES[code])
        if got != written:
            failures.append(f"{spoken!r} -> {got!r}, want {written!r}")
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 1.0
    _report(1, "golden pairs normalize byte-identically in under 1 s", ok,
            failures[0] if failures else f"{len(GOLDEN_PAIRS)} pairs, {elapsed:.2f}s")


# --- criterion 2 ---------------------------------------------------------------


def test_criterion_02_cardinal_round_trip():
    started = time.monotonic()
    checked = 0
    mismatches = 0
    for code, locale in LOCALES.items():
        for n in range(100_000):
            tokens = tokenize(verbalize_cardinal(n, code))
            parsed = parse_cardinal(tokens, 0, locale)
            checked += 1
            if (parsed is None or parsed.span.end != len(tokens)
                    or parsed.magnitude_word is not None
                    or parsed.value != NumericValue(n)):
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = checked == 200_000 and mismatches == 0 and elapsed < 60.0
    _report(2, "200,000 cardinal round trips exact in under 60 s", ok,
            f"{checked} cases, {mismatches} mismatches, {elapsed:.1f}s")


# --- criterion 3 ---------------------------------------------------------------


def test_criterion_03_timestamp_round_trip():
    started = time.monotonic()
    cases = 0
    mismatches = 0
    for locale in (EN, DE):
        for hour in range(24):
            for minute in range(60):
                t = TimeOfDay(hour, minute)
                want = f"{hour}:{minute:02d}"
                for style in applicable_time_styles(t, locale):
                    phrase, period = time_words(t, locale, style)
                    cases += 1
                    # The whole phrase becomes the literal, and the period phrase stays.
                    if normalize_text(phrase + period, locale) != want + period:
                        mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 60.0
    _report(3, "every minute of the day round trips in every phrasing family",
            ok, f"{cases} cases, {mismatches} mismatches, {elapsed:.1f}s")


# --- criterion 4 ---------------------------------------------------------------


def _oracle_min_edits(a: tuple, b: tuple) -> int:
    """0-1 BFS over the edit graph; independent of the DP implementation."""
    la, lb = len(a), len(b)
    goal = (la, lb)
    dist = {(0, 0): 0}
    dq = deque([(0, 0)])
    while dq:
        i, j = dq.popleft()
        d = dist[(i, j)]
        if (i, j) == goal:
            return d
        if i < la and j < lb and a[i] == b[j]:
            step = (i + 1, j + 1)
            if step not in dist or d < dist[step]:
                dist[step] = d
                dq.appendleft(step)
        for step in ((i + 1, j), (i, j + 1), (i + 1, j + 1)):
            if step[0] <= la and step[1] <= lb and step not in dist:
                dist[step] = d + 1
                dq.append(step)
    raise AssertionError("edit graph search never reached the goal")


def test_criterion_04_wer_matches_exhaustive_search():
    sequences = [tuple(p) for k in range(7)
                 for p in itertools.product("abc", repeat=k)]
    assert len(sequences) == 1093
    pairs = 0
    mismatches = 0
    for ai, a in enumerate(sequences):
        la = list(a)
        for b in sequences[ai:]:
            want = _oracle_min_edits(a, b)
            lb = list(b)
            if edit_distance(la, lb) != want or edit_distance(lb, la) != want:
                mismatches += 1
            pairs += 1
    ok = mismatches == 0 and pairs == 597_871
    _report(4, "edit distance equals exhaustive minimal-edit search "
               "on all length-<=6 pairs over a 3-symbol alphabet", ok,
            f"{pairs} unordered pairs, {mismatches} mismatches")


# --- criterion 5 ---------------------------------------------------------------


def test_criterion_05_guard_law():
    rng = random.Random(20260814)
    vocab = ["alpha", "beta", "gamma", "delta", "count", "19:45", "$50"]

    def sentence(max_len):
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(0, max_len)))

    violations = 0
    kept_seen = reverted_seen = 0
    for _ in range(1_000):
        source = sentence(10)
        if rng.random() < 0.5:
            words = source.split()
            for _ in range(rng.randint(0, 3)):
                if words and rng.random() < 0.5:
                    words[rng.randrange(len(words))] = rng.choice(vocab)
                else:
                    words.insert(rng.randint(0, len(words)), rng.choice(vocab))
            rewritten = " ".join(words)
        else:
            rewritten = sentence(10)
        decision = guard(source, rewritten)
        wer = word_error_rate(source, rewritten)
        if decision.kept != (wer <= 0.5) or decision.wer != wer:
            violations += 1
        if decision.text != (rewritten if decision.kept else source):
            violations += 1
        kept_seen += decision.kept
        reverted_seen += not decision.kept

    # Exact boundary: k edits over 2k reference words is precisely 0.5.
    boundary_ok = True
    for k in (1, 2, 3):
        ref = " ".join(f"w{i}" for i in range(2 * k))
        hyp = " ".join(("x" if i < k else f"w{i}") for i in range(2 * k))
        decision = guard(ref, hyp)
        if decision.wer != 0.5 or not decision.kept:
            boundary_ok = False
    above = guard("a b", "x y c")
    ok = (violations == 0 and boundary_ok and not above.kept
          and kept_seen and reverted_seen
          and GuardConfig().threshold == 0.5)
    _report(5, "guard keeps a rewrite iff WER <= 0.5, boundary inclusive", ok,
            f"1000 fuzzed pairs, {kept_seen} kept, {reverted_seen} reverted")


# --- criterion 6 ---------------------------------------------------------------

_EN_FILLER = ("the report mentions", "please check", "we noted", "it shows")
_DE_FILLER = ("der Bericht nennt", "bitte prüfe", "wir sahen", "es zeigt")

_NUMBER_FREE = {
    "en": ("the quick brown fox jumps over the lazy dog",
           "nothing countable appears anywhere in this line",
           "plain words only, without any amounts or clocks",
           "she walked home while it rained softly"),
    "de": ("der schnelle braune Fuchs springt über den faulen Hund",
           "hier steht gar nichts Zählbares in dieser Zeile",
           "nur schlichte Wörter ohne Beträge oder Uhrzeiten",
           "sie ging nach Hause während es leise regnete"),
}


def _random_formatted(rng, locale):
    kind = rng.randrange(4)
    if kind == 0:
        return format_year(rng.randint(1000, 2100))
    if kind == 1:
        return format_time(TimeOfDay(rng.randint(0, 23), rng.randint(0, 59)))
    if kind == 2:
        unit = DEFAULT_CURRENCIES[
            rng.choice(("USD", "EUR", "GBP")) if locale is EN else "EUR"]
        shape = rng.randrange(3)
        if shape == 0:
            word = rng.choice(("million", "billion")) if locale is EN \
                else rng.choice(("Millionen", "Milliarden"))
            major = NumericValue(rng.randint(11, 999), rng.randrange(2))
            return format_currency(major, None, unit, word, locale)
        if shape == 1:
            return format_currency(NumericValue(rng.randint(0, 99_999)),
                                   NumericValue(rng.randint(0, 99)),
                                   unit, None, locale)
        return format_currency(NumericValue(rng.randint(0, 9_999_999)),
                               None, unit, None, locale)
    shape = rng.randrange(3)
    if shape == 0:
        value = NumericValue(rng.randint(0, 99_999_999))
    else:
        value = NumericValue(rng.randint(1, 9_999_999), rng.randint(1, 2))
    word = None
    if shape == 2:
        word = rng.choice(("million", "billion")) if locale is EN \
            else rng.choice(("Millionen", "Milliarden"))
    return format_quantity(value, "", word, locale)


def test_criterion_06_extractor_recall_and_precision():
    rng = random.Random(614)
    missed = 0
    for at in range(10_000):
        locale = EN if at % 2 == 0 else DE
        surface = _random_formatted(rng, locale)
        filler = _EN_FILLER if locale is EN else _DE_FILLER
        sentence = f"{rng.choice(filler)} {surface} {rng.choice(filler)}."
        found = [m.group() for _, m in extract_numeric_literals(sentence, locale)]
        if surface not in found:
            missed += 1
    false_positives = 0
    for at in range(1_000):
        code = "en" if at % 2 == 0 else "de"
        base = _NUMBER_FREE[code][at % 4]
        sentence = f"{base} and so on" if code == "en" else f"{base} und so weiter"
        if extract_numeric_literals(sentence, LOCALES[code]):
            false_positives += 1
    ok = missed == 0 and false_positives == 0
    _report(6, "extractor finds 10,000 embedded literals with zero false "
               "positives on number-free text", ok,
            f"missed {missed}, false positives {false_positives}")


# --- criterion 7 ---------------------------------------------------------------


def _synthetic_manifest(n: int) -> list[ManifestRecord]:
    # The pool is large enough that shared surfaces stay occasional;
    # otherwise transitive gluing collapses everything into one group.
    rng = random.Random(99)
    pool = [f"{i}:{i % 60:02d}" for i in range(10, 24)] \
        + [str(y) for y in range(1000, 2100)] \
        + [f"{q},{r:03d}" for q in range(1, 200) for r in range(0, 1000, 7)]
    records = []
    for i in range(n):
        surfaces = rng.sample(pool, rng.randint(1, 2))
        records.append(ManifestRecord(
            id=f"syn-{i:05d}", locale="en", type="quantity",
            verbalized="spoken stand-in",
            formatted=" ".join(surfaces),
            expressions=tuple((s, "quantity") for s in surfaces),
        ))
    return records


def test_criterion_07_split_disjointness():
    records = _synthetic_manifest(5_000)
    spec = SplitSpec(0.7, 0.1, 0.2, seed=42)
    first = split_disjoint(records, spec)
    second = split_disjoint(records, spec)
    reproducible = first == second
    train, dev, test = first
    ids = sorted(r.id for part in first for r in part)
    partitions = ids == sorted(r.id for r in records)
    surface_sets = [{s for r in part for s in r.surfaces()} for part in first]
    disjoint = (not surface_sets[0] & surface_sets[1]
                and not surface_sets[0] & surface_sets[2]
                and not surface_sets[1] & surface_sets[2])
    ok = reproducible and partitions and disjoint
    _report(7, "5,000-record split partitions the manifest with pairwise "
               "disjoint surfaces, reproducibly", ok,
            f"sizes {len(train)}/{len(dev)}/{len(test)}")


# --- criteria 8 and 10 share one generated corpus -------------------------------


@pytest.fixture(scope="module")
def generated_corpus():
    corpora = {}
    for code, locale in LOCALES.items():
        plan = GenerationPlan(
            locale=locale,
            counts={t: 125 for t in ExpressionType},
            sweep_timestamp_phrasings=True,
            seed=8,
        )
        records, stats = run_generation(
            plan, RuleBasedTextGenerator(locale, seed=8), MockSpeechSynthesizer())
        corpora[code] = (records, stats)
    return corpora


def test_criterion_08_pipeline_agreement(generated_corpus):
    total = 0
    disagreements = 0
    for code, (records, stats) in generated_corpus.items():
        locale = LOCALES[code]
        assert stats.accepted == len(records)
        for record in records:
            total += 1
            if normalize_text(record.verbalized, locale) != record.formatted:
                disagreements += 1
    ok = disagreements == 0 and total >= 1_000
    _report(8, "generated records all satisfy formatted = normalize(verbalized)",
            ok, f"{total} records, {disagreements} disagreements")


# --- criterion 9 ---------------------------------------------------------------


def test_criterion_09_eval_self_consistency(generated_corpus):
    records = [r for recs, _ in generated_corpus.values() for r in recs]
    items = [EvalItem(r.formatted, r.formatted,
                      tuple((s, ExpressionType(t)) for s, t in r.expressions))
             for r in records]
    report = evaluate(items)
    all_hundred = all(report.accuracy(t) == Decimal("100.0")
                      for t in ExpressionType if t in report.counts)
    types_present = len(report.counts) == 4
    wer_zero = report.wer_distance == 0

    table = render_report(report, "table")
    head = table.splitlines()[0].split("  ")
    layout = [h for h in head if h] == [
        "WER", "Years", "Timestamps", "Currency amounts", "Quantities", "Average"]

    spot = EvalReport(counts={
        ExpressionType.YEAR: TypeCount(1, 3),
        ExpressionType.TIMESTAMP: TypeCount(1, 2),
        ExpressionType.CURRENCY: TypeCount(2, 3),
        ExpressionType.QUANTITY: TypeCount(3, 4),
    })
    # Unweighted mean of 33.33.., 50, 66.66.., 75 is 56.25 -> 56.3 half-up.
    spot_ok = (spot.average_accuracy == Decimal("56.3")
               and str(spot.accuracy(ExpressionType.YEAR)) == "33.3"
               and "56.3" in render_report(spot, "table").splitlines()[1])
    ok = all_hundred and types_present and wer_zero and layout and spot_ok
    _report(9, "self-evaluation scores 100.0 per type at WER 0.0 and the "
               "report rounds averages to one decimal", ok,
            f"{len(records)} records")


# --- criterion 10 --------------------------------------------------------------


def test_criterion_10_idempotence(generated_corpus):
    lines = 0
    changed = 0
    for code, (records, _) in generated_corpus.items():
        locale = LOCALES[code]
        for record in records:
            lines += 1
            if normalize_text(record.formatted, locale) != record.formatted:
                changed += 1
    ok = changed == 0 and lines >= 1_000
    _report(10, "re-normalizing an already-normalized corpus is byte-identical",
            ok, f"{lines} sentences, {changed} changed")
