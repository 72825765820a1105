"""Three-step corpus generation: sentences, synthesis, conversions.

Each sentence prompt is finished before the next is asked: its sentences
are synthesized, its batch is converted and the replies are filtered into
records. All client calls run in that order on the calling thread, so a
stateful mock stays reproducible. Synthesis makes no audio and reports no
duration; a failed call is still recorded. The offline text client answers
the conversion step from the values it drew, so the normalizer does not run
here; ``validate_record`` still filters every reply, as it must for a real
LLM.
"""

from __future__ import annotations

import math
import random
import re
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence

from .extract import extract_numeric_literals
from .formatting import YEAR_MAX, YEAR_MIN, format_expression, format_time
from .grammar import scan_tokens
from .lexicon import MAGNITUDE_NAMES, has_digit
from .locales import DEFAULT_CURRENCIES, DEFAULT_LOCALES, CurrencyUnit, Locale
from .manifest import ManifestError, ManifestRecord
from .tokenizer import tokenize
from .types import (
    NO_COUNTS,
    NO_SPAN,
    ExpressionType,
    MoneyAmount,
    NumericValue,
    ParsedExpression,
    TimeOfDay,
    make_through_new,
)
from .verbalize import (
    applicable_time_styles,
    enumerate_timestamp_phrasings,
    time_words,
    verbalize_value,
)

PROMPT_NOUNS = {
    ExpressionType.YEAR: "year",
    ExpressionType.TIMESTAMP: "timestamp",
    ExpressionType.CURRENCY: "currency amount",
    ExpressionType.QUANTITY: "quantity",
}

ANTI_ENUMERATION = ("Write one sentence per line and do not number, "
                    "bullet or otherwise enumerate them.")

DEFAULT_VOICES = ("alloy", "echo", "nova", "onyx")


class GenerationError(RuntimeError):
    pass


class SplitSpec(namedtuple("SplitSpec", "train dev test seed")):
    __slots__ = ()
    _make = classmethod(make_through_new)

    def __new__(cls, train: float, dev: float, test: float, seed: int = 0) -> SplitSpec:
        ratios = (train, dev, test)
        if not all(map(math.isfinite, ratios)):
            raise ValueError("split ratios must be finite")
        if any(r <= 0 for r in ratios):
            raise ValueError("split ratios must be positive")
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1")
        return tuple.__new__(cls, (train, dev, test, seed))


def _marker(locale: Locale) -> str:
    return "German " if locale.language == "de" else ""


def build_sentence_prompt(n: int, expr_type: ExpressionType, locale: Locale) -> str:
    if n < 1:
        raise ValueError("a prompt must request at least one sentence")
    noun = PROMPT_NOUNS[expr_type]
    return (f"Generate {n} diverse {_marker(locale)}sentences "
            f"containing a {noun} written down using number words. "
            f"{ANTI_ENUMERATION}")


def build_conversion_prompt(expr_type: ExpressionType) -> str:
    return f"Convert the {PROMPT_NOUNS[expr_type]} in the sentences to numeric literals."


def build_timestamp_prompt(phrase: str, locale: Locale) -> str:
    if not phrase.strip():
        raise ValueError("empty timestamp phrase")
    return (f"Generate a {_marker(locale)}sentence containing the timestamp "
            f"{phrase} written down using number words. {ANTI_ENUMERATION}")


# --- validation ---------------------------------------------------------------


def validate_record(verbalized: str, converted: str, locale: Locale,
                    currencies: dict[str, CurrencyUnit] = DEFAULT_CURRENCIES
                    ) -> list[tuple[ExpressionType, re.Match[str]]]:
    """Filter rule: the conversion must add literals and change nothing else.

    Returns the literals of ``converted`` when the pair passes, else ``[]``.
    """
    if has_digit(verbalized):
        return []
    literals = extract_numeric_literals(converted, locale, currencies)
    if not literals:
        return []
    converted_tokens = tokenize(converted)
    offsets = converted_tokens.offsets()
    starts, ends = offsets[0::2], offsets[1::2]
    converted_rest = converted_tokens.surfaces[:]
    # Literals and readings are disjoint and in order, so cutting from the last keeps indices.
    for _, m in reversed(literals):
        # A literal contains the tokens from the first that starts in it to
        # the last that ends in it; a token it only overlaps stays.
        del converted_rest[bisect_left(starts, m.start()):bisect_right(ends, m.end())]
    verbalized_tokens = tokenize(verbalized)
    verbalized_rest = verbalized_tokens.surfaces[:]
    for reading in reversed(scan_tokens(verbalized_tokens, locale)):
        del verbalized_rest[reading.span.start:reading.span.end]
    return literals if verbalized_rest == converted_rest else []


# --- splitting ----------------------------------------------------------------


def split_disjoint(records: Sequence[ManifestRecord], spec: SplitSpec
                   ) -> tuple[list[ManifestRecord], list[ManifestRecord], list[ManifestRecord]]:
    """Partition records so no expression surface appears in two splits.

    Records sharing a surface are glued into one group (transitively) and a
    group always lands in a single split. Group order is first-occurrence,
    then a seeded shuffle; split sizes follow the ratios in whole groups.
    """
    parent: dict[str, str] = {}

    def find(key: str) -> str:
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for record in records:
        surfaces = record.surfaces()
        for surface in surfaces:
            parent.setdefault(surface, surface)
        for other in surfaces[1:]:
            union(surfaces[0], other)

    groups: dict[str, list[ManifestRecord]] = {}
    order: list[str] = []
    for record in records:
        root = find(record.expressions[0][0])
        if root not in groups:
            groups[root] = []
            order.append(root)
        groups[root].append(record)
    if len(order) < 3:
        raise ValueError(f"need at least 3 disjoint surface groups, got {len(order)}")

    rng = random.Random(spec.seed)
    rng.shuffle(order)
    n = len(order)
    first = int(spec.train * n + 0.5)
    second = int((spec.train + spec.dev) * n + 0.5)
    first = min(max(first, 1), n - 2)
    second = min(max(second, first + 1), n - 1)
    splits: tuple[list[ManifestRecord], ...] = ([], [], [])
    for at, root in enumerate(order):
        bucket = 0 if at < first else 1 if at < second else 2
        splits[bucket].extend(groups[root])
    return splits


# --- client interfaces --------------------------------------------------------


class ClientConfig(namedtuple("ClientConfig", "max_concurrency")):
    """Synthesis client settings. ``max_concurrency`` is validated but
    unused: every call runs on the calling thread. It is kept only because
    the benchmark's ``corpus`` workload passes it. Text calls are not
    retried: a failed call is recorded once in ``GenerationStats.failures``."""

    __slots__ = ()
    _make = classmethod(make_through_new)

    def __new__(cls, max_concurrency: int = 4) -> ClientConfig:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        return tuple.__new__(cls, (max_concurrency,))


class TextGenerator(ABC):
    @abstractmethod
    def complete(self, prompt: str) -> str:
        ...


class SpeechSynthesizer(ABC):
    def __init__(self, config: ClientConfig = ClientConfig()) -> None:
        self.config = config

    @abstractmethod
    def synthesize(self, text: str, voice: str) -> None:
        ...


class MockSpeechSynthesizer(SpeechSynthesizer):
    """Placeholder synthesis: makes no audio."""

    def synthesize(self, text: str, voice: str) -> None:
        pass


# --- rule-based text client -----------------------------------------------


_NOUNS = "|".join(map(re.escape, PROMPT_NOUNS.values()))
_SENTENCE_PROMPT_RE = re.compile(
    r"^Generate (\d+) diverse (German )?sentences containing a "
    rf"({_NOUNS}) written down using number words\.")
_TIMESTAMP_PROMPT_RE = re.compile(
    r"^Generate a (German )?sentence containing the timestamp (.+) "
    r"written down using number words\.")
_CONVERSION_PROMPT_RE = re.compile(
    rf"^Convert the ({_NOUNS}) in the sentences "
    r"to numeric literals\.\n(.*)$", re.DOTALL)

_CARRIERS = {
    ("en", ExpressionType.YEAR): (
        "The treaty was signed in {}.",
        "The family moved abroad in {}.",
        "Nothing much has changed since {}.",
        "The archive covers the year {}.",
    ),
    ("en", ExpressionType.TIMESTAMP): (
        "The meeting starts at {}.",
        "The train leaves at {}.",
        "She called me at {}.",
        "Doors open at {}.",
    ),
    ("en", ExpressionType.CURRENCY): (
        "The ticket costs {}.",
        "They paid {} for the repairs.",
        "The invoice came to {}.",
        "He donated {} last spring.",
    ),
    ("en", ExpressionType.QUANTITY): (
        "They ordered {} boxes for the fair.",
        "The village has {} residents.",
        "We walked {} kilometers together.",
        "The warehouse stores {} crates.",
    ),
    ("de", ExpressionType.YEAR): (
        "Der Vertrag wurde im Jahr {} unterzeichnet.",
        "Seit {} wohnt sie in der Stadt.",
        "Die Brücke stammt aus dem Jahr {}.",
        "Bis {} blieb alles beim Alten.",
    ),
    ("de", ExpressionType.TIMESTAMP): (
        "Das Treffen beginnt um {}.",
        "Der Zug fährt um {} ab.",
        "Sie rief mich um {} an.",
        "Die Türen öffnen um {}.",
    ),
    ("de", ExpressionType.CURRENCY): (
        "Die Karte kostet {}.",
        "Die Rechnung belief sich auf {}.",
        "Er spendete {} im Frühjahr.",
        "Sie zahlten {} für die Reparatur.",
    ),
    ("de", ExpressionType.QUANTITY): (
        "Das Lager fasst {} Kisten.",
        "Das Dorf hat {} Einwohner.",
        "Sie bestellten {} Schachteln für das Fest.",
        "Der Verein zählt {} Mitglieder.",
    ),
}

_PROMPT_NOUN_TYPES = {noun: t for t, noun in PROMPT_NOUNS.items()}

# Each sweep phrase's written time, by language, read from the one sweep table.
_SWEEP_GOLD = {locale.language: {phrase: format_time(t) for phrase, t
                                 in enumerate_timestamp_phrasings(locale)}
               for locale in DEFAULT_LOCALES.values()}


class RuleBasedTextGenerator(TextGenerator):
    """Offline stand-in for the LLM steps, built on the library itself.

    Understands the three prompt shapes this module produces. Step 1 draws
    a value and says it with the verbalizer; step 3 answers each sentence
    with its gold line, the carrier holding the drawn value's written form,
    so the normalizer never decides what a generated sentence means. A
    sentence this generator did not produce cannot be converted.
    """

    def __init__(self, locale: Locale, seed: int = 0,
                 currencies: dict[str, CurrencyUnit] = DEFAULT_CURRENCIES) -> None:
        self._locale = locale
        self._rng = random.Random(seed)
        self._currencies = currencies
        self._gold: dict[str, str] = {}

    def complete(self, prompt: str) -> str:
        m = _SENTENCE_PROMPT_RE.match(prompt)
        if m:
            expr_type = _PROMPT_NOUN_TYPES[m.group(3)]
            return "\n".join(self._sentence(expr_type)
                             for _ in range(int(m.group(1))))
        m = _TIMESTAMP_PROMPT_RE.match(prompt)
        if m:
            phrase = m.group(2)
            return self._sentence(ExpressionType.TIMESTAMP,
                                  (phrase, _SWEEP_GOLD[self._locale.language].get(phrase)))
        m = _CONVERSION_PROMPT_RE.match(prompt)
        if m:
            try:
                return "\n".join(self._gold[line] for line in m.group(2).splitlines())
            except KeyError as err:
                raise ValueError(
                    f"not a sentence this generator produced: {err.args[0]!r}") from None
        raise ValueError(f"unrecognized prompt: {prompt!r}")

    def _sentence(self, expr_type: ExpressionType,
                  said: tuple[str, str | None] | None = None) -> str:
        """A carrier filled with a (spoken, written) pair, drawn unless ``said``
        gives it; the carrier filled with the written side is kept as gold."""
        carrier = self._rng.choice(_CARRIERS[(self._locale.language, expr_type)])
        spoken, written = said or self._phrase(expr_type)
        sentence = carrier.format(spoken)
        if written is not None:
            self._gold[sentence] = carrier.format(written)
        return sentence

    def _phrase(self, expr_type: ExpressionType) -> tuple[str, str]:
        """A drawn value said in words, and written as the normalizer writes it."""
        rng = self._rng
        locale = self._locale
        if expr_type == ExpressionType.TIMESTAMP:
            t = TimeOfDay(rng.randint(0, 23), rng.randint(0, 59))
            phrase, period = time_words(t, locale, rng.choice(applicable_time_styles(t, locale)))
            # A spoken day period stays after the written time: "17:40 in the afternoon".
            return phrase + period, format_time(t) + period
        if expr_type == ExpressionType.YEAR:
            expr = ParsedExpression(NO_SPAN, expr_type,
                                    NumericValue(rng.randint(YEAR_MIN, YEAR_MAX)))
        else:
            expr = self._money() if expr_type == ExpressionType.CURRENCY else self._quantity()
        return (verbalize_value(expr, locale, rng),
                format_expression(expr, locale, self._currencies))

    def _money(self) -> ParsedExpression:
        rng = self._rng
        language = self._locale.language
        code = rng.choice(("USD", "EUR", "GBP")) if language == "en" else "EUR"
        shape = rng.randrange(3)
        word = None
        if shape == 0:
            major = rng.randint(1, 999)
            word = self._magnitude_word(major)
            money = MoneyAmount(NumericValue(major), None, code)
        elif shape == 1:
            money = MoneyAmount(NumericValue(rng.randint(1, 9999)),
                                NumericValue(rng.randint(1, 99)), code)
        else:
            money = MoneyAmount(NumericValue(rng.randint(1, 9999)), None, code)
        return ParsedExpression(NO_SPAN, ExpressionType.CURRENCY, money, word)

    def _quantity(self) -> ParsedExpression:
        rng = self._rng
        shape = rng.randrange(3)
        if shape == 0:
            value = NumericValue(rng.randint(2, 999999))
            word = None
        elif shape == 1:
            value = NumericValue(rng.randint(2, 9999), 1)
            word = None
        else:
            major = rng.randint(2, 999)
            value = NumericValue(major)
            word = self._magnitude_word(major)
        return ParsedExpression(NO_SPAN, ExpressionType.QUANTITY, value, word)

    def _magnitude_word(self, count: int) -> str:
        _, singular, plural = self._rng.choice(MAGNITUDE_NAMES[self._locale.language])
        return singular if count == 1 else plural


# --- the pipeline -------------------------------------------------------------


class GenerationPlan(namedtuple(
        "GenerationPlan", "locale counts sweep_timestamp_phrasings batch_size voices seed")):
    """What to generate: sentences per ``ExpressionType`` in ``counts`` and the sweep."""

    __slots__ = ()
    _make = classmethod(make_through_new)

    def __new__(cls, locale: Locale, counts: Mapping[ExpressionType, int] = NO_COUNTS,
                sweep_timestamp_phrasings: bool = False, batch_size: int = 5,
                voices: tuple[str, ...] = DEFAULT_VOICES, seed: int = 0) -> GenerationPlan:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not voices:
            raise ValueError("at least one voice is required")
        if any(c < 0 for c in counts.values()):
            raise ValueError("counts must be non-negative")
        return tuple.__new__(cls, (locale, counts, sweep_timestamp_phrasings, batch_size,
                                   voices, seed))


class GenerationStats(namedtuple(
        "GenerationStats",
        "prompts_issued sentences_generated accepted discarded failures")):
    __slots__ = ()


_ENUM_PREFIX_RE = re.compile(r"^\s*(?:\d+[.)]\s+|[-*•]\s+)")


def _sentence_requests(plan: GenerationPlan) -> Iterator[tuple[ExpressionType, str, int]]:
    """Each sentence prompt in order, with its type and how many sentences it asks for."""
    for expr_type, count in plan.counts.items():
        for done in range(0, count, plan.batch_size):
            take = min(plan.batch_size, count - done)
            yield expr_type, build_sentence_prompt(take, expr_type, plan.locale), take
    if plan.sweep_timestamp_phrasings:
        for phrase, _ in enumerate_timestamp_phrasings(plan.locale):
            yield ExpressionType.TIMESTAMP, build_timestamp_prompt(phrase, plan.locale), 1


def run_generation(plan: GenerationPlan, textgen: TextGenerator,
                   synthesizer: SpeechSynthesizer,
                   currencies: dict[str, CurrencyUnit] = DEFAULT_CURRENCIES
                   ) -> tuple[list[ManifestRecord], GenerationStats]:
    """One pass: per sentence prompt, ask, synthesize, convert the batch, filter.

    Literals are found with ``currencies`` and typed as their prompt asked."""
    locale = plan.locale
    language = locale.language
    rng = random.Random(plan.seed)
    failures: list[str] = []
    prompts_issued = 0
    records: list[ManifestRecord] = []
    generated = 0
    discarded = 0
    for expr_type, prompt, expected in _sentence_requests(plan):
        # Step 1: the batch's sentences.
        prompts_issued += 1
        try:
            reply = textgen.complete(prompt)
        except Exception as err:
            failures.append(f"sentence prompt failed: {err}")
            continue
        sentences = [_ENUM_PREFIX_RE.sub("", line).strip()
                     for line in reply.splitlines() if line.strip()][:expected]
        if not sentences:
            continue
        # Ids count every generated sentence, converted or not.
        first, generated = generated, generated + len(sentences)

        # Step 2: one synthesis call per sentence.
        voices: list[str] = []
        for sentence in sentences:
            voice = rng.choice(plan.voices)
            try:
                synthesizer.synthesize(sentence, voice)
            except Exception as err:
                failures.append(f"synthesis failed for {sentence!r}: {err}")
            voices.append(voice)

        # Step 3: one conversion call for the batch.
        type_value = expr_type.value
        prompt = build_conversion_prompt(expr_type) + "\n" + "\n".join(sentences)
        prompts_issued += 1
        try:
            reply = textgen.complete(prompt)
            lines = reply.splitlines()
            if len(lines) != len(sentences):
                raise ValueError(
                    f"conversion returned {len(lines)} lines for {len(sentences)} sentences")
        except Exception as err:
            failures.append(f"conversion failed: {err}")
            continue

        for at, (sentence, line, voice) in enumerate(
                zip(sentences, lines, voices), start=first):
            formatted = line.strip()
            literals = validate_record(sentence, formatted, locale, currencies)
            if not literals:
                discarded += 1
                continue
            try:
                records.append(ManifestRecord(
                    f"{language}-{type_value}-{at:05d}", language, type_value, sentence,
                    formatted, tuple([(m.group(), type_value) for _, m in literals]),
                    None, voice))
            except ManifestError as err:
                failures.append(str(err))

    stats = GenerationStats(
        prompts_issued=prompts_issued,
        sentences_generated=generated,
        accepted=len(records),
        discarded=discarded,
        failures=tuple(failures),
    )
    if prompts_issued and not records and failures and not discarded:
        raise GenerationError(
            f"all records failed ({len(failures)} errors); first: {failures[0]}")
    return records, stats


def corpus_statistics(splits: Mapping[str, Sequence[ManifestRecord]]) -> str:
    """Utterance counts per subset, one row each."""
    rows = [("Subset", "Utterances")]
    for name, records in splits.items():
        rows.append((name, str(len(records))))
    widths = [max(len(row[col]) for row in rows) for col in range(2)]
    return "\n".join("  ".join(cell.ljust(width) for cell, width
                               in zip(row, widths)).rstrip() for row in rows)
