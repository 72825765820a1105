"""Choosing one reading per position, and finishing the chosen reading."""

from __future__ import annotations

from .formatting import YEAR_MAX, YEAR_MIN
from .lexicon import UNIT_STOPWORDS, YEAR_CUES, is_number_word
from .locales import Locale
from .tokenizer import Tokens
from .types import ExpressionType, ParsedExpression, PeriodHint, Span, TimeOfDay

# Rule 3 of ``choose``: among readings of one length, the higher rank wins.
_TIE_RANK = {ExpressionType.CURRENCY: 3, ExpressionType.TIMESTAMP: 2,
             ExpressionType.YEAR: 1, ExpressionType.QUANTITY: 0}

_AM_HINTS = (PeriodHint.EXPLICIT_AM, PeriodHint.MORNING)
_PM_HINTS = (PeriodHint.EXPLICIT_PM, PeriodHint.AFTERNOON, PeriodHint.EVENING,
             PeriodHint.NIGHT)


def choose(readings: list[ParsedExpression], tokens: Tokens,
           language: str) -> ParsedExpression | None:
    """Pick one of the readings the parsers built at one position, or None.

    The rules apply in this order:
    1. A bare hour-minute reading counts only when am/pm or a period phrase follows it.
    2. The longest span wins.
    3. On a tie, currency beats clock, clock beats year pair and a year pair
       beats cardinal. Among readings of one kind, the first in parser order wins.
    4. A cardinal in ``YEAR_MIN..YEAR_MAX`` is a year when a year cue comes
       right before it. Otherwise it is a quantity.
    """
    best = None
    best_key = None
    for reading in readings:
        if reading.bare and reading.value.period_hint is PeriodHint.UNSPECIFIED:
            continue
        # The readings share their first token, so the longest ends last.
        key = (reading.span.end, _TIE_RANK[reading.expr_type])
        if best_key is None or key > best_key:
            best, best_key = reading, key
    if best is None or best.expr_type is not ExpressionType.QUANTITY:
        return best
    value, before = best.value, best.span.start - 1
    if (value.is_integer and best.magnitude_word is None
            and YEAR_MIN <= value.mantissa <= YEAR_MAX
            and before >= 0 and tokens.keys[before] in YEAR_CUES[language]):
        return ParsedExpression(best.span, ExpressionType.YEAR, value)
    return best


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


def _unit_word_after(reading: ParsedExpression, tokens: Tokens, locale: Locale) -> str:
    i = reading.span.end
    if i >= len(tokens) or not any(map(str.isalnum, tokens.surfaces[i])):
        return ""
    key = tokens.keys[i]
    if any(map(str.isdigit, key)) or key in UNIT_STOPWORDS[locale.language] \
            or is_number_word(key, locale.language):
        return ""
    return tokens.surfaces[i]


def classify(reading: ParsedExpression, tokens: Tokens, locale: Locale) -> ParsedExpression:
    """Finish a chosen reading: attach a quantity's unit word, put a time on the 24-hour clock.

    A reading that needs neither is returned as it is.
    """
    span, value = reading.span, reading.value
    if reading.expr_type is ExpressionType.QUANTITY:
        unit_word = _unit_word_after(reading, tokens, locale)
        if unit_word:
            return ParsedExpression(Span(span.start, span.end + 1), ExpressionType.QUANTITY,
                                    value, reading.magnitude_word, unit_word)
    elif reading.expr_type is ExpressionType.TIMESTAMP:
        time = resolve_time(value)
        if time is not value:
            return ParsedExpression(span, ExpressionType.TIMESTAMP, time, bare=reading.bare)
    return reading
