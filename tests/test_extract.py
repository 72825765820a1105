import re

import pytest
from hypothesis import example, given, settings, strategies as st

from numitn.extract import _build_pattern, extract_numeric_literals
from numitn.lexicon import DE_EIN, DE_EINE, MAGNITUDE_NAMES, is_number_word
from numitn.locales import DEFAULT_CONFIG, DEFAULT_CURRENCIES, CurrencyUnit
from numitn.tokenizer import tokenize
from numitn.types import ExpressionType

EN = DEFAULT_CONFIG.locale("en")
DE = DEFAULT_CONFIG.locale("de")


def triples(literals):
    """(type, span, surface) of each (type, match) pair: matches compare by identity."""
    return [(expr_type, m.span(), m.group()) for expr_type, m in literals]


def spans(text, locale, currencies=DEFAULT_CURRENCIES):
    return [(surface, expr_type) for expr_type, _, surface
            in triples(extract_numeric_literals(text, locale, currencies))]


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

    # One space, a no-break space or a narrow no-break space may stand
    # before a suffix symbol; two spaces leave a bare number.
    @pytest.mark.parametrize("text,expected", [
        ("Es kostet 5 €.", [("5 €", ExpressionType.CURRENCY)]),
        ("Sie sammelten 9,1 Millionen €.", [("9,1 Millionen €", ExpressionType.CURRENCY)]),
        ("Es kostet 1.000,50\u00a0€.", [("1.000,50\u00a0€", ExpressionType.CURRENCY)]),
        ("Es kostet 5\u202f€.", [("5\u202f€", ExpressionType.CURRENCY)]),
        ("Es kostet 5  €.", [("5", ExpressionType.QUANTITY)]),
    ])
    def test_german_currency_spaced_symbol(self, text, expected):
        assert spans(text, DE) == expected

    # One whitespace character may stand after a prefix symbol that starts
    # a word; two spaces or a word character before it leave a bare number.
    @pytest.mark.parametrize("text,expected", [
        ("It cost $ 5.", [("$ 5", ExpressionType.CURRENCY)]),
        ("It cost € 5.", [("€ 5", ExpressionType.CURRENCY)]),
        ("It cost $ 9.1 million.", [("$ 9.1 million", ExpressionType.CURRENCY)]),
        ("It cost $\u00a05.", [("$\u00a05", ExpressionType.CURRENCY)]),
        ("It cost $  5.", [("5", ExpressionType.QUANTITY)]),
        ("It cost x$ 5.", [("5", ExpressionType.QUANTITY)]),
        ("It cost $5.", [("$5", ExpressionType.CURRENCY)]),
    ])
    def test_english_currency_spaced_symbol(self, text, expected):
        assert spans(text, EN) == expected

    def test_spaced_prefix_symbol_starts_a_word(self):
        registry = {"ZAR": CurrencyUnit("R"), "AUD": CurrencyUnit("A$")}
        assert spans("FOR 5, R 5, xA$ 5, A$ 5", EN, registry) == [
            ("5", ExpressionType.QUANTITY), ("R 5", ExpressionType.CURRENCY),
            ("5", ExpressionType.QUANTITY), ("A$ 5", ExpressionType.CURRENCY)]

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
        assert triples(extract_numeric_literals(text, EN)) == [
            (ExpressionType.CURRENCY, (4, 7), "$50"), (ExpressionType.TIMESTAMP, (11, 16), "19:45")]

    def test_multi_char_symbol_matches_whole(self):
        # The README's example config: "US$" for USD. Its letters alone
        # ("S5") are not a currency, and "US$9" is not cut to "$9".
        registry = {**DEFAULT_CURRENCIES, "USD": CurrencyUnit("US$")}
        assert spans("It cost US$9 and S5 here", EN, registry) == \
            [("US$9", ExpressionType.CURRENCY)]

    def test_longest_symbol_first(self):
        registry = {**DEFAULT_CURRENCIES, "AUD": CurrencyUnit("A$")}
        assert spans("A$5 or $3", EN, registry) == \
            [("A$5", ExpressionType.CURRENCY), ("$3", ExpressionType.CURRENCY)]

    # A whole literal is one literal of one type: "$5" is no quantity, "19:45"
    # no currency or quantity, "1945" no time, "9,1 Millionen" no currency.
    @pytest.mark.parametrize("text,locale,expected", [
        ("$5", EN, ExpressionType.CURRENCY),
        ("19:45", EN, ExpressionType.TIMESTAMP),
        ("1945", EN, ExpressionType.YEAR),
        ("5€", DE, ExpressionType.CURRENCY),
        ("9,1 Millionen", DE, ExpressionType.QUANTITY),
    ])
    def test_a_whole_literal_has_one_type(self, text, locale, expected):
        assert spans(text, locale) == [(text, expected)]


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
        # A digit literal, or a number word other than a bare German article.
        found = bool(extract_numeric_literals(text, locale)) or any(
            key not in (DE_EIN, DE_EINE) and is_number_word(key, code)
            for key in tokenize(text).keys)
        assert found == expected


# The literal patterns spelled the plain way, one per type, each starting
# with "\b" (or the prefix symbol): a reference that shares no code with
# ``extract._build_pattern``, its one alternation and its digit-first spelling.
_REF_NUMBER = r"(?:\d{{1,3}}(?:{sep}\d{{3}})+|\d+)(?:{mark}\d+)?"
_REF_TIMESTAMP = r"\b(?:[01]?\d|2[0-3]):[0-5]\d\b"


def _reference_patterns(locale, symbols):
    number = _REF_NUMBER.format(sep=re.escape(locale.thousands_separator),
                                mark=re.escape(locale.decimal_mark))
    words = {form for _, *forms in MAGNITUDE_NAMES[locale.language] for form in forms}
    alternation = "|".join(re.escape(w) for w in sorted(words, key=lambda w: (-len(w), w)))
    magnitude = rf"(?:\s(?i:{alternation}))?"
    patterns = []
    escaped = sorted((re.escape(s) for s in symbols if s), key=len, reverse=True)
    if escaped:
        symbol = "(?:" + "|".join(escaped) + ")"
        if locale.currency_placement == "prefix":
            money = rf"(?:{symbol}|(?<!\w){symbol}\s){number}{magnitude}\b"
        else:
            money = rf"\b{number}{magnitude}(?:{symbol}|\s{symbol}(?!\w))"
        patterns.append((ExpressionType.CURRENCY, re.compile(money)))
    patterns.append((ExpressionType.TIMESTAMP, re.compile(_REF_TIMESTAMP)))
    patterns.append((ExpressionType.QUANTITY, re.compile(rf"\b{number}{magnitude}\b")))
    return patterns


def reference_extract(text, locale, currencies=None):
    """``extract_numeric_literals`` with no digit gate, on the reference patterns.

    Start at position 0, and after each literal start again at its end.
    Take the leftmost position where some pattern matches
    (``pattern.match(text, pos)``); at that position the first pattern that
    matches wins, in the order currency, time, quantity.
    """
    registry = currencies if currencies is not None else DEFAULT_CURRENCIES
    patterns = _reference_patterns(locale, [u.symbol for u in registry.values()])
    kept = []
    pos = 0
    while pos < len(text):
        found = next(((t, m) for t, pattern in patterns if (m := pattern.match(text, pos))), None)
        if found is None:
            pos += 1
            continue
        expr_type, m = found
        surface = m.group()
        if expr_type == ExpressionType.QUANTITY and re.match(r"^[12]\d{3}$", surface) \
                and 1000 <= int(surface) <= 2100:
            expr_type = ExpressionType.YEAR
        kept.append((expr_type, m))
        pos = m.end()
    return kept


@pytest.mark.parametrize("text,locale,expected", [
    # A literal glued by a separator to the one before it is looked for
    # where that one ended, not inside it.
    ("9,1,0€", DE, [("9,1", ExpressionType.QUANTITY), ("0€", ExpressionType.CURRENCY)]),
    ("19:45,5", DE, [("19:45", ExpressionType.TIMESTAMP), ("5", ExpressionType.QUANTITY)]),
    ("12:30.5", EN, [("12:30", ExpressionType.TIMESTAMP), ("5", ExpressionType.QUANTITY)]),
    ("$1,5", EN, [("$1", ExpressionType.CURRENCY), ("5", ExpressionType.QUANTITY)]),
])
def test_a_literal_is_looked_for_where_the_one_before_it_ended(text, locale, expected):
    assert spans(text, locale) == expected
    assert [(surface, expr_type) for expr_type, _, surface
            in triples(reference_extract(text, locale))] == expected


# Digits of every script ``\d`` matches ("٣", "０", "७"), "²" (a digit to
# ``str.isdigit`` but not to ``\d``), the hour digits the timestamp branches
# read ("2", "24", "9"), letters and "_" before a digit, separators, ":",
# "-", symbols and magnitude words.
_LITERAL_PIECES = ["0", "1", "2", "7", "9", "19", "24", "2024", "٣", "０", "७", "²",
                   ",", ".", ":", "-", " ", "_", "$", "€", "£", "US$", "A$", "a", "x",
                   "million", "Millionen", "Uhr"]
_REGISTRIES = [DEFAULT_CURRENCIES,
               {**DEFAULT_CURRENCIES, "USD": CurrencyUnit("US$"),
                "AUD": CurrencyUnit("A$"), "XXX": CurrencyUnit("")}]


@settings(max_examples=1000)
@given(text=st.lists(st.sampled_from(_LITERAL_PIECES), max_size=12).map("".join),
       locale=st.sampled_from([EN, DE]), currencies=st.sampled_from(_REGISTRIES))
@example(text="٣", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="$０", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="²", locale=DE, currencies=DEFAULT_CURRENCIES)
@example(text="1:30", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="01:30", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="19:30", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="20:30", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="23:59", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="24:00", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="29:30", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="x1:30", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="_1:30", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="٣:٣٠", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="1:3", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="a5€", locale=DE, currencies=DEFAULT_CURRENCIES)
@example(text="1234,567", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="5 €", locale=DE, currencies=DEFAULT_CURRENCIES)
@example(text="5 US$x", locale=DE, currencies=_REGISTRIES[1])
@example(text="$ 5", locale=EN, currencies=DEFAULT_CURRENCIES)
def test_digit_gate_skips_only_lines_without_literals(text, locale, currencies):
    assert triples(extract_numeric_literals(text, locale, currencies)) == \
        triples(reference_extract(text, locale, currencies))


_BEFORE = ["", " ", "x", "_", "$", "٣"]
_AFTER = ["", " ", "x", "€", "0"]


@settings(max_examples=300)
@given(before=st.sampled_from(_BEFORE), hour=st.integers(0, 30), minute=st.integers(0, 60),
       widths=st.tuples(st.integers(1, 2), st.integers(1, 3)), after=st.sampled_from(_AFTER),
       locale=st.sampled_from([EN, DE]))
def test_clock_digits_match_the_reference(before, hour, minute, widths, after, locale):
    # Every hour branch ("0"/"1" then any digit, "2" then "0"-"3", one
    # digit) and what comes before and after it.
    text = f"{before}{hour:0{widths[0]}d}:{minute:0{widths[1]}d}{after}"
    assert triples(extract_numeric_literals(text, locale)) == \
        triples(reference_extract(text, locale))


@settings(max_examples=300)
@given(before=st.sampled_from(_BEFORE), head=st.integers(0, 99999),
       sep=st.sampled_from([",", "."]), tail=st.integers(0, 9999), width=st.integers(1, 4),
       after=st.sampled_from(_AFTER), locale=st.sampled_from([EN, DE]))
def test_number_groups_match_the_reference(before, head, sep, tail, width, after, locale):
    # One to five leading digits, then a group of one to four.
    text = f"{before}{head}{sep}{tail:0{width}d}{after}"
    assert triples(extract_numeric_literals(text, locale)) == \
        triples(reference_extract(text, locale))


def _pattern(locale, placement, symbols):
    return _build_pattern(locale.language, locale.thousands_separator,
                          locale.decimal_mark, placement, symbols).pattern


@pytest.mark.parametrize("placement", ["prefix", "suffix"])
@pytest.mark.parametrize("locale", [EN, DE])
def test_the_pattern_starts_with_one_character_class(locale, placement):
    # The regex engine skips ahead in C only to a first literal or character
    # class; a leading "\b" or lookbehind would try a match at every character.
    # Under prefix placement the class holds each symbol's escaped first
    # character once, longest escaped symbol first ("$$" before "abc"); the
    # empty symbol of a currency without one is left out.
    pattern = _pattern(locale, placement, ("abc", "", "$$", "$", "€"))
    first = r"[\d\$a€]" if placement == "prefix" else r"\d(?<!\w\d)"
    assert pattern.startswith(first + "(?:"), pattern
    # Without symbols there is no currency alternative and no class to widen.
    for symbols in [(), ("",)]:
        assert _pattern(locale, placement, symbols).startswith(r"\d(?<!\w\d)(?:")
