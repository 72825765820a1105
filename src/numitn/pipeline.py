"""End-to-end sentence normalization: spoken numbers in, digits out."""

from __future__ import annotations

from dataclasses import dataclass

from .classify import classify
from .extract import extract_numeric_literals
from .formatting import format_expression
from .grammar import scan_tokens
from .locales import DEFAULT_CURRENCIES, CurrencyUnit, Locale
from .tokenizer import Tokens, tokenize
from .types import ParsedExpression, Span


@dataclass(frozen=True)
class NormalizedExpression:
    """One replacement made while normalizing a sentence."""

    expression: ParsedExpression
    source_span: Span
    source_text: str
    formatted: str
    output_span: Span


@dataclass(frozen=True)
class NormalizationOutcome:
    text: str
    replacements: tuple[NormalizedExpression, ...]


def _char_range(tokens: Tokens, span: Span) -> tuple[int, int]:
    return tokens.spans[span.start][0], tokens.spans[span.end - 1][1]


def normalize_sentence(sentence: str, locale: Locale,
                       currencies: dict[str, CurrencyUnit] = DEFAULT_CURRENCIES
                       ) -> NormalizationOutcome:
    tokens = tokenize(sentence)
    literals = extract_numeric_literals(sentence, locale, currencies)
    parts: list[str] = []
    produced: list[NormalizedExpression] = []
    cursor = 0
    out_len = 0
    for reading in scan_tokens(tokens, locale):
        start, end = _char_range(tokens, reading.span)
        # Already-formatted literals stay untouched; a reading only
        # proceeds when it covers more text than the digit match itself
        # ("15.45 Uhr", "4:30 pm").
        if any(lit.span.start <= start and end <= lit.span.end for lit in literals):
            continue
        expr = classify(reading, tokens, locale)
        start, end = _char_range(tokens, expr.span)
        formatted = format_expression(expr, locale, currencies)
        parts.append(sentence[cursor:start])
        out_len += start - cursor
        parts.append(formatted)
        produced.append(NormalizedExpression(
            expression=expr,
            source_span=Span(start, end),
            source_text=sentence[start:end],
            formatted=formatted,
            output_span=Span(out_len, out_len + len(formatted)),
        ))
        out_len += len(formatted)
        cursor = end
    parts.append(sentence[cursor:])
    return NormalizationOutcome("".join(parts), tuple(produced))


def normalize_text(sentence: str, locale: Locale,
                   currencies: dict[str, CurrencyUnit] = DEFAULT_CURRENCIES) -> str:
    return normalize_sentence(sentence, locale, currencies).text
