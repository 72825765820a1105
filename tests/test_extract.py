import pytest
from hypothesis import example, given, settings, strategies as st

from numitn import extract
from numitn.extract import (
    LiteralMatch,
    _build_patterns,
    contains_numeric_expression,
    extract_numeric_literals,
)
from numitn.locales import DEFAULT_CURRENCIES, CurrencyUnit, get_locale
from numitn.types import ExpressionType, Span

EN = get_locale("en")
DE = get_locale("de")


def spans(text, locale):
    return [(m.text, m.guessed_type) for m in extract_numeric_literals(text, locale)]


class TestExtraction:
    def test_grouped_number(self):
        assert spans("We made 1,234,567 units.", EN) == \
            [("1,234,567", ExpressionType.QUANTITY)]

    def test_decimal(self):
        assert spans("about 3.5 hours", EN) == [("3.5", ExpressionType.QUANTITY)]

    def test_german_decimal(self):
        assert spans("etwa 3,5 Stunden", DE) == [("3,5", ExpressionType.QUANTITY)]

    def test_currency_prefix(self):
        assert spans("Pay $1,000.50 today.", EN) == \
            [("$1,000.50", ExpressionType.CURRENCY)]

    def test_currency_suffix(self):
        assert spans("Es kostet 1.000,50€ heute.", DE) == \
            [("1.000,50€", ExpressionType.CURRENCY)]

    def test_currency_magnitude(self):
        assert spans("They raised $9.1 million already.", EN) == \
            [("$9.1 million", ExpressionType.CURRENCY)]

    def test_german_currency_magnitude(self):
        assert spans("Sie sammelten 9,1 Millionen€.", DE) == \
            [("9,1 Millionen€", ExpressionType.CURRENCY)]

    def test_quantity_magnitude(self):
        assert spans("about 9.1 million users", EN) == \
            [("9.1 million", ExpressionType.QUANTITY)]

    @pytest.mark.parametrize("text,locale", [
        ("5 Millionen", DE), ("5 Milliarde", DE), ("2 billion", EN), ("9.1 million", EN),
    ])
    def test_magnitude_word_joins_the_literal(self, text, locale):
        assert spans(f"rund {text} hier", locale) == [(text, ExpressionType.QUANTITY)]

    def test_magnitude_prefix_of_a_longer_word_is_left_out(self):
        assert spans("eine 5 Millionenstadt", DE) == [("5", ExpressionType.QUANTITY)]

    def test_time(self):
        assert spans("at 19:45 sharp", EN) == [("19:45", ExpressionType.TIMESTAMP)]

    @pytest.mark.parametrize("text", ["24:00", "19:60", "125:30"])
    def test_invalid_clock_is_a_plain_number(self, text):
        got = spans(f"value {text} here", EN)
        assert all(t != ExpressionType.TIMESTAMP for _, t in got)

    def test_year_guess(self):
        assert spans("back in 1945", EN) == [("1945", ExpressionType.YEAR)]
        assert spans("um 2100", DE) == [("2100", ExpressionType.YEAR)]

    @pytest.mark.parametrize("number", ["999", "2101", "3000", "12345"])
    def test_out_of_range_is_not_a_year(self, number):
        got = spans(f"code {number} here", EN)
        assert got == [(number, ExpressionType.QUANTITY)]

    def test_currency_wins_overlap(self):
        # "$1,000" and "1,000" overlap; the currency match absorbs it.
        got = spans("$1,000", EN)
        assert got == [("$1,000", ExpressionType.CURRENCY)]

    def test_timestamp_beats_contained_numbers(self):
        got = spans("19:45", EN)
        assert got == [("19:45", ExpressionType.TIMESTAMP)]

    def test_multiple_left_to_right(self):
        got = spans("Pay $50 at 19:45 for 2,000 pieces in 1999.", EN)
        assert got == [
            ("$50", ExpressionType.CURRENCY),
            ("19:45", ExpressionType.TIMESTAMP),
            ("2,000", ExpressionType.QUANTITY),
            ("1999", ExpressionType.YEAR),
        ]

    def test_no_literals(self):
        assert spans("no digits at all", EN) == []

    def test_offsets_point_into_source(self):
        text = "Pay $50 at 19:45."
        for m in extract_numeric_literals(text, EN):
            assert text[m.span.start:m.span.end] == m.text

    def test_multi_char_symbol_matches_whole(self):
        # The README's example config: "US$" for USD. Its letters alone
        # ("S5") are not a currency, and "US$9" is not cut to "$9".
        registry = {**DEFAULT_CURRENCIES, "USD": CurrencyUnit("USD", "US$")}
        got = extract_numeric_literals("It cost US$9 and S5 here", EN, registry)
        assert [(m.text, m.guessed_type) for m in got] == \
            [("US$9", ExpressionType.CURRENCY)]

    def test_longest_symbol_first(self):
        registry = {**DEFAULT_CURRENCIES, "AUD": CurrencyUnit("AUD", "A$")}
        got = extract_numeric_literals("A$5 or $3", EN, registry)
        assert [m.text for m in got] == ["A$5", "$3"]


class TestContainsNumericExpression:
    @pytest.mark.parametrize("text,code,expected", [
        ("We shipped 2,000 pieces.", "en", True),
        ("We shipped two thousand pieces.", "en", True),
        ("nineteen forty-five", "en", True),
        ("No numbers here.", "en", False),
        ("Wir liefern zweitausend Teile.", "de", True),
        ("Es ist viertel vor acht.", "de", True),
        ("Keine Zahlen hier.", "de", False),
        # Articles alone never count as number words.
        ("Ein Hund lief über eine Wiese.", "de", False),
        ("Eine Frage noch.", "de", False),
        ("Nur eins zählt.", "de", True),
        ("A single word.", "en", False),
        ("One single word.", "en", True),
    ])
    def test_detection(self, text, code, expected):
        locale = EN if code == "en" else DE
        assert contains_numeric_expression(text, locale) == expected


def ungated_extract(text, locale, currencies=None):
    """``extract_numeric_literals`` without its digit gate, as a reference."""
    registry = currencies if currencies is not None else DEFAULT_CURRENCIES
    patterns = _build_patterns(locale, tuple(u.symbol for u in registry.values()))
    raw = sorted(((m.start(), extract._PRIORITY[t], -m.end(), t, m.group())
                  for t, pattern in patterns for m in pattern.finditer(text)),
                 key=lambda r: r[:3])
    kept = []
    last_end = -1
    for start, _, neg_end, expr_type, surface in raw:
        if start < last_end:
            continue
        if expr_type == ExpressionType.QUANTITY and extract._YEAR_GUESS_RE.match(surface) \
                and 1000 <= int(surface) <= 2100:
            expr_type = ExpressionType.YEAR
        kept.append(LiteralMatch(Span(start, -neg_end), surface, expr_type))
        last_end = -neg_end
    return kept


# Digits of every script ``\d`` matches ("٣", "０", "७"), "²" (a digit to
# ``str.isdigit`` but not to ``\d``), separators, symbols and magnitude words.
_LITERAL_PIECES = ["0", "1", "7", "19", "2024", "٣", "０", "७", "²", ",", ".", ":", " ",
                   "$", "€", "£", "US$", "A$", "a", "x", "million", "Millionen", "Uhr"]
_REGISTRIES = [DEFAULT_CURRENCIES,
               {**DEFAULT_CURRENCIES, "USD": CurrencyUnit("USD", "US$"),
                "AUD": CurrencyUnit("AUD", "A$"), "XXX": CurrencyUnit("XXX", "")}]


@settings(max_examples=1000)
@given(text=st.lists(st.sampled_from(_LITERAL_PIECES), max_size=12).map("".join),
       locale=st.sampled_from([EN, DE]), currencies=st.sampled_from(_REGISTRIES))
@example(text="٣", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="$０", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="²", locale=DE, currencies=DEFAULT_CURRENCIES)
def test_digit_gate_skips_only_lines_without_literals(text, locale, currencies):
    assert extract_numeric_literals(text, locale, currencies) == \
        ungated_extract(text, locale, currencies)


def test_symbols_are_escaped_before_they_are_sorted():
    # "$$" escapes to four characters and so goes before "abc"; the empty
    # symbol of a currency without one is left out.
    patterns = dict(_build_patterns(EN, ("abc", "", "$$")))
    assert patterns[ExpressionType.CURRENCY].pattern.startswith(r"(?:\$\$|abc)")
