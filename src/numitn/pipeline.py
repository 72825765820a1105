"""End-to-end sentence normalization: spoken numbers in, digits out."""

from __future__ import annotations

from collections.abc import Iterator

from .classify import classify
from .extract import extract_numeric_literals
from .formatting import format_expression
from .grammar import scan_tokens
from .locales import DEFAULT_CURRENCIES, CurrencyUnit, Locale
from .tokenizer import Tokens, tokenize
from .types import ParsedExpression


def _rewrites(sentence: str, tokens: Tokens, locale: Locale,
              currencies: dict[str, CurrencyUnit]
              ) -> Iterator[tuple[int, int, ParsedExpression, str]]:
    """(first, end, expression, formatted) for each replacement, left to right.

    ``tokens.parts[first:end]`` is the text replaced: tokens ``i..j-1`` are
    parts ``2i+1..2j-1``, so ``first`` is odd and ``end`` even.
    """
    readings = scan_tokens(tokens, locale)
    if not readings:
        return
    literals = extract_numeric_literals(sentence, locale, currencies)
    # Char offsets are summed only when there is a literal to compare with.
    offsets = tokens.offsets() if literals else []
    for reading in readings:
        first, end = 2 * reading.span.start + 1, 2 * reading.span.end
        # Already-formatted literals stay untouched; a reading only
        # proceeds when it covers more text than the digit match itself
        # ("15.45 Uhr", "4:30 pm").
        if any(m.start() <= offsets[first - 1] and offsets[end - 1] <= m.end()
               for _, m in literals):
            continue
        expr = classify(reading, tokens, locale)
        yield (2 * expr.span.start + 1, 2 * expr.span.end, expr,
               format_expression(expr, locale, currencies))


def normalize_text(sentence: str, locale: Locale,
                   currencies: dict[str, CurrencyUnit] = DEFAULT_CURRENCIES) -> str:
    tokens = tokenize(sentence)
    out: list[str] = []
    cursor = 0
    for first, end, _, formatted in _rewrites(sentence, tokens, locale, currencies):
        out += tokens.parts[cursor:first]
        out.append(formatted)
        cursor = end
    if not cursor:
        return sentence
    out += tokens.parts[cursor:]
    return "".join(out)


# perfbench's tracer patches this name; drop it once the tracer targets normalize_text.
normalize_sentence = normalize_text
