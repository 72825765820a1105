"""End-to-end sentence normalization: spoken numbers in, digits out."""

from __future__ import annotations

from collections.abc import Iterator

from .classify import classify
from .extract import extract_numeric_literals
from .formatting import format_expression
from .grammar import scan_tokens
from .locales import DEFAULT_CURRENCIES, CurrencyUnit, Locale
from .tokenizer import Tokens, tokenize
from .types import ParsedExpression, Span


def _char_range(tokens: Tokens, span: Span) -> tuple[int, int]:
    return tokens.spans[span.start][0], tokens.spans[span.end - 1][1]


def _rewrites(sentence: str, locale: Locale, currencies: dict[str, CurrencyUnit]
              ) -> Iterator[tuple[int, int, ParsedExpression, str]]:
    """(start, end, expression, formatted) for each replacement, left to right.

    ``start`` and ``end`` are character offsets into ``sentence``.
    """
    tokens = tokenize(sentence)
    readings = scan_tokens(tokens, locale)
    if not readings:
        return
    literals = extract_numeric_literals(sentence, locale, currencies)
    for reading in readings:
        start, end = _char_range(tokens, reading.span)
        # Already-formatted literals stay untouched; a reading only
        # proceeds when it covers more text than the digit match itself
        # ("15.45 Uhr", "4:30 pm").
        if any(m.start() <= start and end <= m.end() for _, m in literals):
            continue
        expr = classify(reading, tokens, locale)
        start, end = _char_range(tokens, expr.span)
        yield start, end, expr, format_expression(expr, locale, currencies)


def normalize_text(sentence: str, locale: Locale,
                   currencies: dict[str, CurrencyUnit] = DEFAULT_CURRENCIES) -> str:
    parts: list[str] = []
    cursor = 0
    for start, end, _, formatted in _rewrites(sentence, locale, currencies):
        parts += sentence[cursor:start], formatted
        cursor = end
    parts.append(sentence[cursor:])
    return "".join(parts)


# perfbench's tracer patches this name; drop it once the tracer targets normalize_text.
normalize_sentence = normalize_text
