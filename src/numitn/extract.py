"""Finding already-formatted numeric literals in plain text."""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from .formatting import YEAR_MAX, YEAR_MIN
from .lexicon import MAGNITUDE_NAMES
from .locales import DEFAULT_CURRENCIES, CurrencyUnit, Locale
from .types import ExpressionType, Span

_YEAR_GUESS_RE = re.compile(r"^[12]\d{3}$")
# Every literal pattern needs a digit of this class, so a line without one
# holds no literal.
_DIGIT_RE = re.compile(r"\d")

# Overlapping matches are resolved in this order.
_PRIORITY = {ExpressionType.CURRENCY: 0, ExpressionType.TIMESTAMP: 1,
             ExpressionType.QUANTITY: 2}
# Start, priority, then the longer match first.
_SORT_KEY = itemgetter(0, 1, 2)


class LiteralMatch(namedtuple("LiteralMatch", "span text guessed_type")):
    """A formatted literal: its char ``Span``, its text and the ``ExpressionType`` guessed."""

    __slots__ = ()


# "\b" before a digit, written after that first digit: the lookbehind fails
# exactly when a word character comes before it (every "\d" is a "\w"). A
# pattern that starts with a character class, not "\b", lets the regex
# engine skip ahead to a digit in C instead of trying every position.
_WORD_START = r"(?<!\w\d)"


def _number_pattern(separator: str, decimal_mark: str, edge: str) -> str:
    """A grouped or plain number, with ``edge`` written after its first digit.

    Group ``int`` holds the integer part after its first digit, so it also
    marks where the number starts, and ``frac`` the fraction digits.
    """
    sep = re.escape(separator)
    mark = re.escape(decimal_mark)
    return rf"\d{edge}(?P<int>\d{{0,2}}(?:{sep}\d{{3}})+|\d*)(?:{mark}(?P<frac>\d+))?"


def _magnitude_pattern(language: str) -> str:
    # Each form once, in table order before the stable sort.
    words = dict.fromkeys(form for _, *forms in MAGNITUDE_NAMES[language] for form in forms)
    # Longest first, so "Millionen" is tried before "Million".
    alternation = "|".join(re.escape(w) for w in sorted(words, key=len, reverse=True))
    return rf"(?:\s(?i:(?P<mag>{alternation})))?"


# An hour of 0-23 then ":MM"; the branches after the first digit read it.
_TIMESTAMP_RE = re.compile(rf"\d{_WORD_START}(?:(?<=[01])\d|(?<=2)[0-3])?:[0-5]\d\b")


@lru_cache(maxsize=64)
def _build_patterns(language: str, separator: str, decimal_mark: str, placement: str,
                    symbols: tuple[str, ...]
                    ) -> tuple[tuple[int, ExpressionType, re.Pattern[str]], ...]:
    """(priority, type, pattern) for a locale's conventions and currency ``symbols``.

    Keyed on strings, so a key holds exactly what the patterns are built
    from: the locale's four fields and the currency symbols (the currency
    dict itself cannot be hashed).
    """
    number = _number_pattern(separator, decimal_mark, "")
    word_number = _number_pattern(separator, decimal_mark, _WORD_START)
    magnitude = _magnitude_pattern(language)
    patterns: list[tuple[ExpressionType, re.Pattern[str]]] = []
    # Escaped before sorting, so the longest escaped symbol is tried first.
    escaped = sorted((re.escape(s) for s in symbols if s), key=len, reverse=True)
    if escaped:
        # An alternation, not a character class, so "US$" matches whole
        # and its letters do not match on their own. A prefix symbol ends
        # where group ``int`` starts, less the first digit.
        symbol = "|".join(escaped)
        if placement == "prefix":
            money = rf"(?:{symbol}){number}{magnitude}\b"
        else:
            money = rf"{word_number}{magnitude}(?P<sym>{symbol})"
        patterns.append((ExpressionType.CURRENCY, re.compile(money)))
    patterns.append((ExpressionType.TIMESTAMP, _TIMESTAMP_RE))
    patterns.append((ExpressionType.QUANTITY, re.compile(rf"{word_number}{magnitude}\b")))
    return tuple((_PRIORITY[t], t, pattern) for t, pattern in patterns)


def _locale_patterns(locale: Locale, currencies: dict[str, CurrencyUnit]
                     ) -> tuple[tuple[int, ExpressionType, re.Pattern[str]], ...]:
    return _build_patterns(locale.language, locale.thousands_separator,
                           locale.decimal_mark, locale.currency_placement,
                           tuple([u.symbol for u in currencies.values()]))


def scan_literals(text: str, locale: Locale,
                  currencies: dict[str, CurrencyUnit]
                  ) -> list[tuple[ExpressionType, re.Match[str]]]:
    """(type, match) of every formatted literal, left to right, non-overlapping.

    A match's named groups are the parts of its literal: ``int`` and
    ``frac`` of the number, ``mag`` the magnitude word and ``sym`` a
    suffix currency symbol.
    """
    if not _DIGIT_RE.search(text):
        return []
    raw: list[tuple[int, int, int, ExpressionType, re.Match[str]]] = []
    for priority, expr_type, pattern in _locale_patterns(locale, currencies):
        for m in pattern.finditer(text):
            raw.append((m.start(), priority, -m.end(), expr_type, m))
    raw.sort(key=_SORT_KEY)
    kept: list[tuple[ExpressionType, re.Match[str]]] = []
    last_end = -1
    for start, _, neg_end, expr_type, m in raw:
        end = -neg_end
        if start < last_end:
            continue
        if expr_type is ExpressionType.QUANTITY and _YEAR_GUESS_RE.match(surface := m.group()) \
                and YEAR_MIN <= int(surface) <= YEAR_MAX:
            expr_type = ExpressionType.YEAR
        kept.append((expr_type, m))
        last_end = end
    return kept


def match_literal(text: str, expr_type: ExpressionType, locale: Locale,
                  currencies: dict[str, CurrencyUnit]
                  ) -> re.Match[str] | None:
    """``text`` matched whole as a literal of ``expr_type`` (a year as a quantity)."""
    if expr_type is ExpressionType.YEAR:
        expr_type = ExpressionType.QUANTITY
    for _, pattern_type, pattern in _locale_patterns(locale, currencies):
        if pattern_type is expr_type:
            return pattern.fullmatch(text)
    return None


def extract_numeric_literals(text: str, locale: Locale,
                             currencies: dict[str, CurrencyUnit] = DEFAULT_CURRENCIES
                             ) -> list[LiteralMatch]:
    """All formatted numeric literals, left to right, non-overlapping."""
    return [LiteralMatch(Span(m.start(), m.end()), m.group(), expr_type)
            for expr_type, m in scan_literals(text, locale, currencies)]


def literal_present(hypothesis: str, surface: str) -> bool:
    """Whether ``surface`` stands whole in ``hypothesis``.

    A match fails when a neighbour continues it: a letter or digit, or a
    ``.``, ``,`` or ``:`` with a digit on its far side, so "1,000" is not
    in "$1,000,000" nor "5" in "5.5". Sentence punctuation after the
    literal still ends it, as in "in 1945." and "In 1945, the war".
    """
    at = hypothesis.find(surface)
    while at != -1:
        end = at + len(surface)
        if not (_continues(hypothesis, at - 1, -1) or _continues(hypothesis, end, 1)):
            return True
        at = hypothesis.find(surface, at + 1)
    return False


def _continues(text: str, i: int, step: int) -> bool:
    """Whether ``text[i]``, beside a match, joins it to a longer word or number."""
    if not 0 <= i < len(text):
        return False
    if text[i].isalnum():
        return True
    far = i + step
    return text[i] in ".,:" and 0 <= far < len(text) and text[far].isdigit()
