"""Context-driven typing of parsed spans and day-period resolution."""

from __future__ import annotations

from .formatting import YEAR_MAX, YEAR_MIN
from .lexicon import CLOCK_STYLES, HOUR_NOUNS, MINUTE_NOUNS, is_number_word, phrase_keys
from .locales import CURRENCY_WORDS, DEFAULT_CURRENCY_CODE, Locale, MINOR_UNIT_WORDS
from .tokenizer import Token
from .types import (
    CandidateParse,
    ExpressionType,
    MoneyAmount,
    MoneyParse,
    ParsedExpression,
    ParseKind,
    PeriodHint,
    QuantityAmount,
    Span,
    TimeOfDay,
)

# Words immediately left of a cardinal that signal a calendar year.
YEAR_CUES = {
    "en": {"in", "since", "year", "by", "from", "until"},
    "de": {"seit", "jahr", "bis"},
}

_FUNCTION_WORDS = {
    "en": {"a", "an", "and", "are", "as", "at", "be", "been", "but", "by",
           "for", "from", "if", "in", "is", "it", "of", "oh", "on", "or",
           "per", "point", "so", "than", "that", "the", "then", "this",
           "until", "was", "were", "when", "while", "with"},
    "de": {"aber", "als", "am", "an", "auf", "bei", "bis", "das", "dem",
           "den", "der", "des", "die", "doch", "eine", "einem", "einen",
           "einer", "fuer", "im", "in", "ist", "komma", "mit", "oder", "pro",
           "seit", "sind", "so", "um", "und", "von", "war", "waren", "wenn",
           "zu"},
}
# Function words and the words of clock phrases ("quarter past", "Uhr")
# cannot serve as a quantity unit.
_UNIT_STOPWORDS = {
    language: words | {key for phrase in (HOUR_NOUNS[language], *MINUTE_NOUNS[language],
                                          *(style.words for style in CLOCK_STYLES[language]))
                       for key in phrase_keys(phrase)}
    for language, words in _FUNCTION_WORDS.items()}

_AM_HINTS = (PeriodHint.EXPLICIT_AM, PeriodHint.MORNING)
_PM_HINTS = (PeriodHint.EXPLICIT_PM, PeriodHint.AFTERNOON, PeriodHint.EVENING,
             PeriodHint.NIGHT)


def resolve_time(t: TimeOfDay) -> TimeOfDay:
    """Map a spoken 12-hour reading onto the 24-hour clock. Idempotent."""
    if t.hour >= 13 or t.period_hint == PeriodHint.UNSPECIFIED:
        return t
    hour = t.hour
    if t.period_hint in _PM_HINTS and 1 <= hour <= 11:
        hour += 12
    elif t.period_hint in _AM_HINTS and hour == 12:
        hour = 0
    if hour == t.hour:
        return t
    return TimeOfDay(hour, t.minute, t.period_hint)


def _currency_code(money: MoneyParse, locale: Locale) -> str:
    if money.unit_word in MINOR_UNIT_WORDS:
        return DEFAULT_CURRENCY_CODE[locale.language]
    return CURRENCY_WORDS[locale.language][money.unit_word]


def _unit_word_after(candidate: CandidateParse, tokens: list[Token], locale: Locale) -> str:
    i = candidate.span.end
    if i >= len(tokens) or not tokens[i].is_word:
        return ""
    key = tokens[i].folded
    if any(ch.isdigit() for ch in key):
        return ""
    if key in _UNIT_STOPWORDS[locale.language] or is_number_word(key, locale.language):
        return ""
    return tokens[i].surface


def classify(candidate: CandidateParse, tokens: list[Token], locale: Locale) -> ParsedExpression:
    """Assign an expression type to a candidate using its sentence context."""
    if candidate.kind == ParseKind.CURRENCY:
        money = candidate.value
        payload = MoneyAmount(money.major, money.minor,
                              _currency_code(money, locale),
                              candidate.magnitude_word)
        return ParsedExpression(candidate.span, ExpressionType.CURRENCY, payload)

    if candidate.kind == ParseKind.CLOCK:
        return ParsedExpression(candidate.span, ExpressionType.TIMESTAMP,
                                candidate.value)

    value = candidate.value
    if (value.is_integer and candidate.magnitude_word is None
            and YEAR_MIN <= value.mantissa <= YEAR_MAX):
        cued = False
        before = candidate.span.start - 1
        if before >= 0:
            cued = tokens[before].folded in YEAR_CUES[locale.language]
        if cued or candidate.pair_reading:
            return ParsedExpression(candidate.span, ExpressionType.YEAR,
                                    value.mantissa)

    unit_word = _unit_word_after(candidate, tokens, locale)
    span = candidate.span
    if unit_word:
        span = Span(span.start, span.end + 1)
    payload = QuantityAmount(value, unit_word, candidate.magnitude_word)
    return ParsedExpression(span, ExpressionType.QUANTITY, payload)
