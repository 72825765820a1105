import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from numitn.classify import choose, resolve_time
from numitn.extract import extract_numeric_literals
from numitn.grammar import parse_cardinal, parse_clock_phrase
from numitn.lexicon import MAGNITUDE_NAMES
from numitn.locales import DEFAULT_CONFIG, DEFAULT_CURRENCIES, CurrencyUnit
from numitn.pipeline import normalize_text
from numitn.tokenizer import tokenize
from numitn.types import (
    ExpressionType,
    MoneyAmount,
    NumericValue,
    ParsedExpression,
    Span,
    TimeOfDay,
)
from numitn.verbalize import (
    applicable_time_styles,
    enumerate_timestamp_phrasings,
    parse_literal,
    verbalize_line,
    verbalize_time,
    verbalize_value,
    verbalize_year,
    year_styles,
)

from test_extract import _REGISTRIES

EN = DEFAULT_CONFIG.locale("en")
DE = DEFAULT_CONFIG.locale("de")


def expr(expr_type, value, *fields):
    return ParsedExpression(Span(0, 1), expr_type, value, *fields)


class TestYears:
    def test_style_menus(self):
        assert year_styles(1945, "en") == ("pair", "cardinal")
        assert year_styles(2100, "en") == ("cardinal",)
        assert year_styles(1050, "en") == ("cardinal",)
        assert year_styles(1945, "de") == ("compound", "cardinal")
        assert year_styles(2005, "de") == ("cardinal",)

    @pytest.mark.parametrize("year,style,words", [
        (1945, "pair", "nineteen forty-five"),
        (1900, "pair", "nineteen hundred"),
        (1905, "pair", "nineteen oh five"),
        (2025, "pair", "twenty twenty-five"),
        (2005, "pair", "two thousand five"),
        (1945, "cardinal", "one thousand nine hundred forty-five"),
        (2100, "cardinal", "two thousand one hundred"),
    ])
    def test_english(self, year, style, words):
        assert verbalize_year(year, "en", style) == words

    @pytest.mark.parametrize("year,style,words", [
        (1945, "compound", "neunzehnhundertfünfundvierzig"),
        (1100, "compound", "elfhundert"),
        (2005, "cardinal", "zweitausendfünf"),
    ])
    def test_german(self, year, style, words):
        assert verbalize_year(year, "de", style) == words

    def test_inapplicable_style_rejected(self):
        with pytest.raises(ValueError):
            verbalize_year(2100, "en", "pair")
        with pytest.raises(ValueError):
            verbalize_year(2025, "de", "compound")

    @given(st.integers(min_value=1000, max_value=2100),
           st.sampled_from(["en", "de"]))
    @settings(max_examples=200)
    def test_all_styles_round_trip_as_sentences(self, year, language):
        locale = EN if language == "en" else DE
        cue = "in" if language == "en" else "seit"
        for style in year_styles(year, language):
            words = verbalize_year(year, language, style)
            assert normalize_text(f"{cue} {words}", locale) == f"{cue} {year}"


class TestTimeStyles:
    def test_applicability_en(self):
        assert applicable_time_styles(TimeOfDay(9, 0), EN) == ("oclock", "hour_minute")
        assert applicable_time_styles(TimeOfDay(9, 15), EN) == (
            "quarter_past", "minutes_past", "hour_minute")
        assert applicable_time_styles(TimeOfDay(9, 45), EN) == (
            "quarter_to", "minutes_to", "hour_minute")
        assert "half_past" in applicable_time_styles(TimeOfDay(12, 30), EN)

    def test_applicability_de_excludes_wraps_at_twelve(self):
        # 12:30 and 12:45 have no next-hour German idiom that parses back.
        assert applicable_time_styles(TimeOfDay(12, 30), DE) == ("uhr_minute",)
        styles_1245 = applicable_time_styles(TimeOfDay(12, 45), DE)
        assert "viertel_vor" not in styles_1245
        assert "minuten_vor" not in styles_1245
        assert applicable_time_styles(TimeOfDay(11, 30), DE) == ("halb", "uhr_minute")

    @pytest.mark.parametrize("h,m,style,words", [
        (19, 45, "quarter_to", "quarter to eight in the evening"),
        (19, 45, "hour_minute", "seven forty-five pm"),
        (7, 5, "minutes_past", "five minutes past seven"),
        (10, 0, "oclock", "ten o'clock"),
        (0, 30, "half_past", "half past twelve in the morning"),
        (13, 1, "minutes_past", "one minute past one in the afternoon"),
        (9, 59, "minutes_to", "one minute to ten"),
        (23, 0, "oclock", "eleven o'clock in the evening"),
        (9, 5, "hour_minute", "nine oh five am"),
        (12, 0, "hour_minute", "twelve pm"),
        (0, 15, "hour_minute", "twelve fifteen am"),
    ])
    def test_english_phrases(self, h, m, style, words):
        assert verbalize_time(TimeOfDay(h, m), EN, style) == words

    @pytest.mark.parametrize("h,m,style,words", [
        (15, 45, "uhr_minute", "fünfzehn Uhr fünfundvierzig"),
        (15, 45, "viertel_vor", "viertel vor vier nachmittags"),
        (1, 30, "halb", "halb zwei"),
        (1, 0, "uhr", "ein Uhr"),
        (0, 0, "uhr", "null Uhr"),
        (19, 45, "viertel_vor", "viertel vor acht abends"),
        (7, 5, "minuten_nach", "fünf Minuten nach sieben"),
        (13, 15, "viertel_nach", "viertel nach eins nachmittags"),
        (11, 59, "minuten_vor", "eine Minute vor zwölf"),
    ])
    def test_german_phrases(self, h, m, style, words):
        assert verbalize_time(TimeOfDay(h, m), DE, style) == words

    def test_inapplicable_style_rejected(self):
        with pytest.raises(ValueError):
            verbalize_time(TimeOfDay(9, 10), EN, "oclock")
        with pytest.raises(ValueError):
            verbalize_time(TimeOfDay(12, 30), DE, "halb")

    def test_rng_draws_an_applicable_style(self):
        rng = random.Random(7)
        seen = {verbalize_time(TimeOfDay(19, 45), EN, rng=rng) for _ in range(40)}
        assert len(seen) == 3

    @given(st.integers(min_value=0, max_value=23),
           st.integers(min_value=0, max_value=59),
           st.sampled_from(["en", "de"]))
    @settings(max_examples=400)
    def test_every_style_round_trips(self, h, m, code):
        locale = EN if code == "en" else DE
        t = TimeOfDay(h, m)
        for style in applicable_time_styles(t, locale):
            words = verbalize_time(t, locale, style)
            tokens = tokenize(words)
            c = choose(parse_clock_phrase(tokens, 0, locale, parse_cardinal(tokens, 0, locale))
                       or [], tokens, locale.language)
            assert c is not None, (words, style)
            back = resolve_time(c.value)
            assert (back.hour, back.minute) == (h, m), (words, style)


class TestEnumeration:
    @pytest.mark.parametrize("locale", [EN, DE], ids=["en", "de"])
    def test_family_coverage(self, locale):
        entries = enumerate_timestamp_phrasings(locale)
        assert len(entries) == 72
        assert len({phrase for phrase, _ in entries}) == 72
        for phrase, t in entries:
            tokens = tokenize(phrase)
            c = choose(parse_clock_phrase(tokens, 0, locale, parse_cardinal(tokens, 0, locale))
                       or [], tokens, locale.language)
            assert c is not None, phrase
            assert (c.value.hour, c.value.minute) == (t.hour, t.minute), phrase

    @pytest.mark.parametrize("locale", [EN, DE], ids=["en", "de"])
    def test_one_shared_table_no_caller_can_change(self, locale):
        entries = enumerate_timestamp_phrasings(locale)
        assert entries is enumerate_timestamp_phrasings(
            locale._replace(thousands_separator=" "))
        assert isinstance(entries, tuple) and all(isinstance(e, tuple) for e in entries)


class TestCurrencyWords:
    @pytest.mark.parametrize("major,minor,code,magnitude,locale,words", [
        (1000, 50, "USD", None, "en", "one thousand dollars and fifty cents"),
        (1000, 50, "EUR", None, "de", "eintausend Euro und fünfzig Cent"),
        (1, None, "USD", None, "en", "one dollar"),
        (0, 1, "USD", None, "en", "zero dollars and one cent"),
        (2, None, "GBP", None, "en", "two pounds"),
        (1945, None, "USD", None, "en", "one thousand nine hundred forty-five dollars"),
        (1, None, "EUR", "Million", "de", "eine Million Euro"),
        (2, None, "EUR", "Millionen", "de", "zwei Millionen Euro"),
    ])
    def test_phrases(self, major, minor, code, magnitude, locale, words):
        money = MoneyAmount(NumericValue(major),
                            None if minor is None else NumericValue(minor), code)
        loc = EN if locale == "en" else DE
        assert verbalize_value(expr(ExpressionType.CURRENCY, money, magnitude), loc) == words

    def test_decimal_magnitude(self):
        money = MoneyAmount(NumericValue(91, 1), None, "USD")
        got = verbalize_value(expr(ExpressionType.CURRENCY, money, "million"), EN)
        assert got == "nine point one million dollars"


class TestQuantityWords:
    def test_with_unit(self):
        q = expr(ExpressionType.QUANTITY, NumericValue(2000), None, "pieces")
        assert verbalize_value(q, EN) == \
            "two thousand pieces"

    def test_german_magnitude_article(self):
        q = expr(ExpressionType.QUANTITY, NumericValue(1), "Million", "Nutzer")
        assert verbalize_value(q, DE) == \
            "eine Million Nutzer"

    def test_decimal(self):
        q = expr(ExpressionType.QUANTITY, NumericValue(55, 1), None, "Prozent")
        assert verbalize_value(q, DE) == \
            "fünf Komma fünf Prozent"


class TestLineRewrites:
    @pytest.mark.parametrize("line,locale,words", [
        ("Pay $1,945 now.", "en", "Pay one thousand nine hundred forty-five dollars now."),
        ("Es kostet 1.000,50€.", "de", "Es kostet eintausend Euro und fünfzig Cent."),
        ("We shipped 2,000 pieces.", "en", "We shipped two thousand pieces."),
        ("No numbers here.", "en", "No numbers here."),
    ])
    def test_rewrites(self, line, locale, words):
        loc = EN if locale == "en" else DE
        assert verbalize_line(line, loc) == words

    def test_timestamp_line_round_trips(self):
        line = "Der Zug fährt um 15:45 Uhr."
        out = verbalize_line(line, DE)
        assert not any(ch.isdigit() for ch in out)
        assert "15:45" in normalize_text(out, DE)

    @pytest.mark.parametrize("line,locale,words,written", [
        ("It cost $1.5.", "en", "It cost one dollar and fifty cents.", "It cost $1.50."),
        ("Es kostet 1,5€.", "de", "Es kostet ein Euro und fünfzig Cent.",
         "Es kostet 1,50€."),
        ("It cost $0.05.", "en", "It cost zero dollars and five cents.", "It cost $0.05."),
        ("It cost $2.01.", "en", "It cost two dollars and one cent.", "It cost $2.01."),
    ])
    def test_fraction_counts_minor_units(self, line, locale, words, written):
        # "$1.5" is a dollar and fifty cents, as format_currency writes $1.50.
        loc = EN if locale == "en" else DE
        assert verbalize_line(line, loc) == words
        assert normalize_text(words, loc) == written

    @pytest.mark.parametrize("line,words,written", [
        ("Es kostet 5 €.", "Es kostet fünf Euro.", "Es kostet 5€."),
        ("Es kostet 1.000,50 €.", "Es kostet eintausend Euro und fünfzig Cent.",
         "Es kostet 1.000,50€."),
        ("Sie sammelten 9,1 Millionen €.", "Sie sammelten neun Komma eins Millionen Euro.",
         "Sie sammelten 9,1 Millionen€."),
    ])
    def test_german_spaced_suffix_symbol(self, line, words, written):
        # The space before a suffix symbol belongs to the literal: "5 €" is five euros.
        assert verbalize_line(line, DE) == words
        assert normalize_text(words, DE) == written

    @pytest.mark.parametrize("line,words,written", [
        ("It cost $ 5.", "It cost five dollars.", "It cost $5."),
        ("It cost € 5.", "It cost five euros.", "It cost €5."),
        ("It cost $ 1,000.50.", "It cost one thousand dollars and fifty cents.",
         "It cost $1,000.50."),
        ("It cost $ 9.1 million.", "It cost nine point one million dollars.",
         "It cost $9.1 million."),
        ("It cost $  5.", "It cost $  five.", "It cost $  5."),
    ])
    def test_english_spaced_prefix_symbol(self, line, words, written):
        # One space after a prefix symbol belongs to the literal: "$ 5" is five dollars.
        assert verbalize_line(line, EN) == words
        assert normalize_text(words, EN) == written

    @pytest.mark.parametrize("line,words", [
        ("Es kostet 1€.", "Es kostet ein Euro."),
        ("Es kostet 0,01€.", "Es kostet null Euro und ein Cent."),
        ("Es kostet 1,01€.", "Es kostet ein Euro und ein Cent."),
        ("Es kostet 2,01€.", "Es kostet zwei Euro und ein Cent."),
        ("Es kostet 21€.", "Es kostet einundzwanzig Euro."),
        ("Es kostet 1 Million€.", "Es kostet eine Million Euro."),
        ("Es kostet 1,5 Millionen€.", "Es kostet eins Komma fünf Millionen Euro."),
    ])
    def test_german_one_before_a_currency_noun_is_ein(self, line, words):
        assert verbalize_line(line, DE) == words
        assert normalize_text(words, DE) == line

    @pytest.mark.parametrize("line,locale,words", [
        ("Es waren 1 Stück.", DE, "Es waren ein Stück."),
        ("Ich habe 1 Auto.", DE, "Ich habe ein Auto."),
        ("Es waren 1.", DE, "Es waren eins."),
        ("1 von 3", DE, "eins von drei"),
        ("Es waren 1 , Stück.", DE, "Es waren eins , Stück."),
        ("1,5 Stück", DE, "eins Komma fünf Stück"),
        ("Es waren 21 Stück.", DE, "Es waren einundzwanzig Stück."),
        ("1 box", EN, "one box"),
        ("1 Box", EN, "one Box"),
    ])
    def test_german_count_of_one_before_a_noun_is_ein(self, line, locale, words):
        # A capital letter starts a German noun; a count of one before it is "ein".
        assert verbalize_line(line, locale) == words
        assert normalize_text(words, locale) == line

    def test_multi_char_symbol(self):
        registry = {**DEFAULT_CURRENCIES, "USD": CurrencyUnit("US$")}
        assert verbalize_line("It cost US$9 and S5 here", EN, currencies=registry) \
            == "It cost nine dollars and S5 here"

    @pytest.mark.parametrize("line,locale,words", [
        ("Es kostet 5 Millionen€.", DE, "Es kostet fünf Millionen Euro."),
        ("Es sind 5 Millionen.", DE, "Es sind fünf Millionen."),
        ("It cost $5 Million.", EN, "It cost five Million dollars."),
        ("They are 5 Million strong.", EN, "They are five Million strong."),
    ])
    def test_symbol_inside_a_magnitude_word(self, line, locale, words):
        # The symbol is the one the literal's pattern matched, not any
        # registry symbol the literal happens to contain.
        registry = {**DEFAULT_CURRENCIES, "XMI": CurrencyUnit("Mi")}
        assert verbalize_line(line, locale, currencies=registry) == words

    def test_rng_is_deterministic(self):
        line = "See you at 19:45."
        a = verbalize_line(line, EN, rng=random.Random(3))
        b = verbalize_line(line, EN, rng=random.Random(3))
        assert a == b


def parse_whole(text, expr_type, locale, currencies=DEFAULT_CURRENCIES):
    """``parse_literal`` of the one literal the extractor finds in ``text``.

    That literal is of ``expr_type`` and covers ``text`` whole.
    """
    [(found, m)] = extract_numeric_literals(text, locale, currencies)
    assert (found, m.span()) == (expr_type, (0, len(text)))
    return parse_literal(found, m, locale, currencies)


class TestParseLiteral:
    def test_year(self):
        parsed = parse_whole("1945", ExpressionType.YEAR, EN)
        assert parsed.value == NumericValue(1945)

    def test_time(self):
        parsed = parse_whole("19:45", ExpressionType.TIMESTAMP, EN)
        assert parsed.value == TimeOfDay(19, 45)

    def test_currency_with_cents(self):
        parsed = parse_whole("$1,000.50", ExpressionType.CURRENCY, EN)
        assert parsed.value.major == NumericValue(1000)
        assert parsed.value.minor == NumericValue(50)
        assert parsed.value.currency == "USD"

    def test_currency_whole(self):
        parsed = parse_whole("$1,945", ExpressionType.CURRENCY, EN)
        assert parsed.value.minor is None

    @pytest.mark.parametrize("text,locale,major,minor", [
        ("$1.5", EN, 1, 50), ("$1.05", EN, 1, 5), ("$0.5", EN, 0, 50),
        ("1,5€", DE, 1, 50), ("1.000,5€", DE, 1000, 50),
    ])
    def test_currency_fraction_is_minor_units(self, text, locale, major, minor):
        parsed = parse_whole(text, ExpressionType.CURRENCY, locale)
        assert (parsed.value.major, parsed.value.minor) == \
            (NumericValue(major), NumericValue(minor))

    def test_currency_minor_unit_digits_from_registry(self):
        registry = {**DEFAULT_CURRENCIES, "BHD": CurrencyUnit("BD", 3)}
        parsed = parse_whole("BD1.5", ExpressionType.CURRENCY, EN, registry)
        assert (parsed.value.major, parsed.value.minor) == (NumericValue(1), NumericValue(500))
        with pytest.raises(ValueError, match="more than 3 fraction digits"):
            parse_whole("BD1.5055", ExpressionType.CURRENCY, EN, registry)

    @pytest.mark.parametrize("text,locale", [("$1.505", EN), ("1,505€", DE)])
    def test_currency_too_many_fraction_digits(self, text, locale):
        with pytest.raises(ValueError, match="more than 2 fraction digits"):
            parse_whole(text, ExpressionType.CURRENCY, locale)

    def test_currency_suffix_symbol(self):
        parsed = parse_whole("1.000,50€", ExpressionType.CURRENCY, DE)
        assert parsed.value.currency == "EUR"
        assert parsed.value.minor == NumericValue(50)

    def test_longest_symbol_wins(self):
        registry = {**DEFAULT_CURRENCIES, "AUD": CurrencyUnit("A$")}
        parsed = parse_whole("A$5", ExpressionType.CURRENCY, EN, registry)
        assert parsed.value.currency == "AUD"
        assert parsed.value.major == NumericValue(5)

    def test_longest_symbol_present_wins_over_registry_order(self):
        registry = {"USD": CurrencyUnit("$"), "XUS": CurrencyUnit("US$")}
        parsed = parse_whole("US$5", ExpressionType.CURRENCY, EN, registry)
        assert parsed.value.currency == "XUS"
        assert parsed.value.major == NumericValue(5)

    @pytest.mark.parametrize("codes", [("USD", "AUD"), ("AUD", "USD")])
    def test_equal_symbols_take_the_first_in_registry_order(self, codes):
        registry = {code: CurrencyUnit("$") for code in codes}
        parsed = parse_whole("$5", ExpressionType.CURRENCY, EN, registry)
        assert parsed.value.currency == codes[0]

    def test_currency_magnitude(self):
        parsed = parse_whole("$9.1 million", ExpressionType.CURRENCY, EN)
        assert parsed.value.major == NumericValue(91, 1)
        assert parsed.magnitude_word == "million"

    def test_quantity_magnitude(self):
        parsed = parse_whole("9,1 Millionen", ExpressionType.QUANTITY, DE)
        assert parsed.value == NumericValue(91, 1)
        assert parsed.magnitude_word == "Millionen"

    def test_quantity_plain(self):
        parsed = parse_whole("2,000", ExpressionType.QUANTITY, EN)
        assert parsed.value == NumericValue(2000)


# --- the reader against the literal parser it replaced -------------------------

_REF_TRAILING_WORD_RE = re.compile(r"\s(\S+)$")


def _reference_symbol(text, currencies):
    """(code, symbol) of the longest registry symbol anywhere in ``text``, or None."""
    found = [(code, unit.symbol) for code, unit in currencies.items()
             if unit.symbol and unit.symbol in text]
    # On a tie, the first in registry order.
    return max(found, key=lambda item: len(item[1])) if found else None


def _reference_number(body, locale):
    body = body.strip().replace(locale.thousands_separator, "")
    int_part, _, frac_part = body.partition(locale.decimal_mark)
    if frac_part:
        return NumericValue(int(int_part + frac_part), len(frac_part))
    return NumericValue(int(int_part))


def reference_parse_literal(text, expr_type, locale, currencies=DEFAULT_CURRENCIES):
    """The literal parser ``verbalize_line`` used before it read the extractor's
    groups: it parses the literal's text again, whatever pattern matched it."""
    span = Span(0, 1)
    if expr_type == ExpressionType.YEAR:
        return ParsedExpression(span, expr_type, NumericValue(int(text)))
    if expr_type == ExpressionType.TIMESTAMP:
        hour, _, minute = text.partition(":")
        return ParsedExpression(span, expr_type, TimeOfDay(int(hour), int(minute)))
    body = text
    currency_code = None
    picked = _reference_symbol(text, currencies)
    if picked:
        currency_code, symbol = picked
        body = text.replace(symbol, "").strip()
    magnitude = None
    m = _REF_TRAILING_WORD_RE.search(body)
    if m and not any(map(str.isdigit, m.group(1))):
        magnitude = m.group(1)
        body = body[: m.start()]
    value = _reference_number(body, locale)
    if expr_type == ExpressionType.CURRENCY:
        code = currency_code or "USD"
        if magnitude or value.scale == 0:
            return ParsedExpression(span, expr_type, MoneyAmount(value, None, code), magnitude)
        digits = currencies[code].minor_unit_digits
        if value.scale > digits:
            raise ValueError(f"{text!r} has more than {digits} fraction digits for {code}")
        major, minor = divmod(value.mantissa * 10**(digits - value.scale), 10**digits)
        return ParsedExpression(span, expr_type,
                                MoneyAmount(NumericValue(major), NumericValue(minor), code))
    return ParsedExpression(span, expr_type, value, magnitude)


def _outcome(read):
    try:
        return read()
    except ValueError as error:
        return f"ValueError: {error}"


def _matched_symbol(text, expr_type, locale, currencies):
    """The registry symbol a currency literal starts (prefix) or ends (suffix) with."""
    if expr_type is not ExpressionType.CURRENCY:
        return None
    edge = str.startswith if locale.currency_placement == "prefix" else str.endswith
    return max((u.symbol for u in currencies.values() if u.symbol and edge(text, u.symbol)),
               key=len)


_MAGNITUDE_WORDS = {form for names in MAGNITUDE_NAMES.values()
                    for _, *forms in names for form in forms}
_PIECES = ["0", "1", "5", "9", "19", "45", "2024", "1234567", "٣", ",", ".", ":", " ",
           "$", "€", "£", "US$", "A$", "BD", "Mi", "a", "million", "Million", "billion",
           "Millionen", "Milliarde", "Milliarden"]
_READER_REGISTRIES = _REGISTRIES + [
    {**DEFAULT_CURRENCIES, "BHD": CurrencyUnit("BD", 3),
     "XMI": CurrencyUnit("Mi"), "XEU": CurrencyUnit("€")}]


@settings(max_examples=1000)
@given(text=st.lists(st.sampled_from(_PIECES), max_size=10).map("".join),
       locale=st.sampled_from([EN, DE]), currencies=st.sampled_from(_READER_REGISTRIES))
@example(text="It cost $5 Million.", locale=EN, currencies=_READER_REGISTRIES[-1])
@example(text="BD1.5055 and BD1.5", locale=EN, currencies=_READER_REGISTRIES[-1])
@example(text="1.000,505€ 19:45", locale=DE, currencies=DEFAULT_CURRENCIES)
@example(text="A$1,000.5 million", locale=EN, currencies=_REGISTRIES[1])
@example(text="12345678901234567", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="$1.1234567", locale=EN, currencies=DEFAULT_CURRENCIES)
@example(text="0:00, 7:05, 23:59 and ٣:٣٠", locale=DE, currencies=DEFAULT_CURRENCIES)
def test_reader_matches_the_reference_parser(text, locale, currencies):
    for expr_type, m in extract_numeric_literals(text, locale, currencies):
        surface = m.group()
        expected = _outcome(lambda: reference_parse_literal(surface, expr_type,
                                                            locale, currencies))
        picked = _reference_symbol(surface, currencies)
        matched = _matched_symbol(surface, expr_type, locale, currencies)
        if picked and (picked[1] != matched or surface.count(matched) > 1):
            # The reference read a symbol inside the magnitude word: one the
            # pattern did not match, or the matched one a second time.
            assert any(picked[1] in word for word in _MAGNITUDE_WORDS)
            continue
        assert _outcome(lambda: parse_literal(expr_type, m, locale, currencies)) == expected
