"""Finding already-formatted numeric literals in plain text."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .formatting import YEAR_MAX, YEAR_MIN
from .lexicon import DE_EIN, DE_EINE, DE_MAGNITUDE_NAMES, EN_MAGNITUDE_WORDS, is_number_word
from .locales import DEFAULT_CURRENCIES, CurrencyUnit, Locale
from .tokenizer import tokenize
from .types import ExpressionType, Span

_YEAR_GUESS_RE = re.compile(r"^[12]\d{3}$")
# Every literal pattern needs a digit of this class, so a line without one
# holds no literal.
_DIGIT_RE = re.compile(r"\d")

# Overlapping matches are resolved in this order.
_PRIORITY = {ExpressionType.CURRENCY: 0, ExpressionType.TIMESTAMP: 1,
             ExpressionType.QUANTITY: 2}


@dataclass(frozen=True)
class LiteralMatch:
    span: Span
    text: str
    guessed_type: ExpressionType


def _number_pattern(locale: Locale) -> str:
    sep = re.escape(locale.thousands_separator)
    mark = re.escape(locale.decimal_mark)
    return rf"(?:\d{{1,3}}(?:{sep}\d{{3}})+|\d+)(?:{mark}\d+)?"


def _magnitude_pattern(locale: Locale) -> str:
    if locale.language == "de":
        words = [form for _, *forms in DE_MAGNITUDE_NAMES for form in forms]
    else:
        words = EN_MAGNITUDE_WORDS
    # Longest first, so "Millionen" is tried before "Million".
    alternation = "|".join(re.escape(w) for w in sorted(words, key=len, reverse=True))
    return rf"(?:\s(?i:{alternation}))?"


@lru_cache(maxsize=64)
def _build_patterns(locale: Locale,
                    symbols: tuple[str, ...]) -> tuple[tuple[ExpressionType, re.Pattern[str]], ...]:
    """Compiled literal patterns for a registry's currency ``symbols``."""
    number = _number_pattern(locale)
    magnitude = _magnitude_pattern(locale)
    patterns: list[tuple[ExpressionType, re.Pattern[str]]] = []
    # Escaped before sorting, so the longest escaped symbol is tried first.
    escaped = sorted((re.escape(s) for s in symbols if s), key=len, reverse=True)
    if escaped:
        # An alternation, not a character class, so "US$" matches whole
        # and its letters do not match on their own.
        symbol = "(?:" + "|".join(escaped) + ")"
        if locale.currency_placement == "prefix":
            money = rf"{symbol}{number}{magnitude}\b"
        else:
            money = rf"\b{number}{magnitude}{symbol}"
        patterns.append((ExpressionType.CURRENCY, re.compile(money)))
    patterns.append((ExpressionType.TIMESTAMP,
                     re.compile(r"\b(?:[01]?\d|2[0-3]):[0-5]\d\b")))
    patterns.append((ExpressionType.QUANTITY,
                     re.compile(rf"\b{number}{magnitude}\b")))
    return tuple(patterns)


def extract_numeric_literals(text: str, locale: Locale,
                             currencies: Optional[dict[str, CurrencyUnit]] = None
                             ) -> list[LiteralMatch]:
    """All formatted numeric literals, left to right, non-overlapping."""
    if not _DIGIT_RE.search(text):
        return []
    registry = currencies if currencies is not None else DEFAULT_CURRENCIES
    symbols = tuple(u.symbol for u in registry.values())
    raw: list[tuple[int, int, int, ExpressionType, str]] = []
    for expr_type, pattern in _build_patterns(locale, symbols):
        for m in pattern.finditer(text):
            raw.append((m.start(), _PRIORITY[expr_type], -m.end(),
                        expr_type, m.group()))
    raw.sort(key=lambda r: r[:3])
    kept: list[LiteralMatch] = []
    last_end = -1
    for start, _, neg_end, expr_type, surface in raw:
        end = -neg_end
        if start < last_end:
            continue
        if expr_type == ExpressionType.QUANTITY and _YEAR_GUESS_RE.match(surface) \
                and YEAR_MIN <= int(surface) <= YEAR_MAX:
            expr_type = ExpressionType.YEAR
        kept.append(LiteralMatch(Span(start, end), surface, expr_type))
        last_end = end
    return kept


def contains_numeric_expression(text: str, locale: Locale,
                                currencies: Optional[dict[str, CurrencyUnit]] = None) -> bool:
    """True when the text holds a digit literal or a spoken number word."""
    if extract_numeric_literals(text, locale, currencies):
        return True
    # Bare German articles are not treated as numerals here; "eins" is.
    return any(token.folded not in (DE_EIN, DE_EINE)
               and is_number_word(token.folded, locale.language) for token in tokenize(text))
