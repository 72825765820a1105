import pytest
from hypothesis import given, strategies as st

from numitn.classify import choose, classify, resolve_time
from numitn.grammar import scan_tokens
from numitn.locales import DEFAULT_CONFIG
from numitn.tokenizer import tokenize
from numitn.types import (
    ExpressionType,
    MoneyAmount,
    NumericValue,
    ParsedExpression,
    PeriodHint,
    Span,
    TimeOfDay,
)

EN = DEFAULT_CONFIG.locale("en")
DE = DEFAULT_CONFIG.locale("de")


def classify_first(text, locale):
    tokens = tokenize(text)
    cands = scan_tokens(tokens, locale)
    assert cands, text
    return classify(cands[0], tokens, locale)


def reading(expr_type, end, start=1, mantissa=1945, hint=PeriodHint.EVENING, **fields):
    """A reading of tokens ``start..end`` with a value of the right kind for ``expr_type``."""
    value = {ExpressionType.CURRENCY: MoneyAmount(NumericValue(mantissa), None, "USD"),
             ExpressionType.TIMESTAMP: TimeOfDay(19, 45, hint)}.get(
        expr_type, NumericValue(mantissa))
    return ParsedExpression(Span(start, end), expr_type, value, **fields)


class TestChoose:
    """Each rule of ``choose`` on readings no sentence yields together today."""

    TOKENS = tokenize("in nineteen forty-five in the evening")
    ORDER = [ExpressionType.CURRENCY, ExpressionType.TIMESTAMP, ExpressionType.YEAR,
             ExpressionType.QUANTITY]

    def pick(self, *readings):
        return choose(list(readings), self.TOKENS, "en")

    def test_no_reading(self):
        assert self.pick() is None

    @pytest.mark.parametrize("shorter", ORDER)
    @pytest.mark.parametrize("longer", ORDER)
    def test_longest_wins_whatever_its_kind(self, shorter, longer):
        long_one = reading(longer, 4, mantissa=7)
        assert self.pick(reading(shorter, 3, mantissa=7), long_one) is long_one
        assert self.pick(long_one, reading(shorter, 3, mantissa=7)) is long_one

    @pytest.mark.parametrize("rank", range(3))
    def test_tie_order(self, rank):
        higher = reading(self.ORDER[rank], 3, mantissa=7)
        lower = reading(self.ORDER[rank + 1], 3, mantissa=7)
        assert self.pick(lower, higher) is higher
        assert self.pick(higher, lower) is higher

    @pytest.mark.parametrize("expr_type", ORDER)
    def test_first_of_a_kind_wins_a_tie(self, expr_type):
        first, second = reading(expr_type, 3, mantissa=7), reading(expr_type, 3, mantissa=8)
        assert self.pick(first, second) is first

    def test_bare_hour_minute_needs_a_period(self):
        bare = reading(ExpressionType.TIMESTAMP, 3, bare=True)
        unspecified = reading(ExpressionType.TIMESTAMP, 3, hint=PeriodHint.UNSPECIFIED, bare=True)
        year = reading(ExpressionType.YEAR, 3)
        assert self.pick(bare, year) is bare
        assert self.pick(unspecified, year) is year
        assert self.pick(unspecified) is None
        # A shorter reading wins over a longer bare one that does not count.
        quantity = reading(ExpressionType.QUANTITY, 2, mantissa=19)
        assert self.pick(quantity, reading(ExpressionType.TIMESTAMP, 3,
                                           hint=PeriodHint.UNSPECIFIED, bare=True)) is quantity
        # Other clock readings count without a period.
        clock = reading(ExpressionType.TIMESTAMP, 3, hint=PeriodHint.UNSPECIFIED)
        assert self.pick(clock, year) is clock

    def test_year_cue_types_the_chosen_cardinal(self):
        chosen = self.pick(reading(ExpressionType.QUANTITY, 3))
        assert chosen.expr_type == ExpressionType.YEAR
        assert (chosen.span, chosen.value) == (Span(1, 3), NumericValue(1945))

    @pytest.mark.parametrize("quantity", [
        reading(ExpressionType.QUANTITY, 4, start=2),          # "forty-five": no cue before
        reading(ExpressionType.QUANTITY, 3, mantissa=999),     # out of range
        reading(ExpressionType.QUANTITY, 3, mantissa=2101),
        reading(ExpressionType.QUANTITY, 3, mantissa=1945, magnitude_word="million"),
        ParsedExpression(Span(1, 3), ExpressionType.QUANTITY, NumericValue(19450, 1)),
        reading(ExpressionType.QUANTITY, 1, start=0),          # nothing before
    ])
    def test_uncued_cardinal_stays_a_quantity(self, quantity):
        assert self.pick(quantity) is quantity

    def test_cue_types_only_the_chosen_cardinal(self):
        # The cue does not make a cardinal rank as a year pair in a tie.
        pair = reading(ExpressionType.YEAR, 3)
        assert self.pick(reading(ExpressionType.QUANTITY, 3, mantissa=1950), pair) is pair

    def test_year_range_ends_are_years(self):
        for mantissa in (1000, 2100):
            chosen = self.pick(reading(ExpressionType.QUANTITY, 3, mantissa=mantissa))
            assert chosen.expr_type == ExpressionType.YEAR


class TestYearCues:
    @pytest.mark.parametrize("text", [
        "in two thousand five",
        "since nineteen sixty",
        "the year twenty twenty",
        "by eighteen fifty",
        "from nineteen hundred",
        "until two thousand one hundred",
    ])
    def test_english_cues(self, text):
        assert classify_first(text, EN).expr_type == ExpressionType.YEAR

    @pytest.mark.parametrize("text", [
        "seit neunzehnhundertfünfundvierzig",
        "im Jahr zweitausendfünf",
        "bis achtzehnhundertzwölf",
    ])
    def test_german_cues(self, text):
        assert classify_first(text, DE).expr_type == ExpressionType.YEAR

    def test_pair_reading_alone_suffices(self):
        parsed = classify_first("nineteen forty-five", EN)
        assert parsed.expr_type == ExpressionType.YEAR
        assert parsed.value == NumericValue(1945)

    def test_german_bare_adverbial_year(self):
        # "Der Krieg endete neunzehnhundertfünfundvierzig": no preposition.
        parsed = classify_first("neunzehnhundertfünfundvierzig", DE)
        assert parsed.expr_type == ExpressionType.YEAR
        assert parsed.value == NumericValue(1945)

    def test_german_round_hundreds_need_a_cue(self):
        assert classify_first("elfhundert", DE).expr_type == ExpressionType.QUANTITY
        assert classify_first("im Jahr elfhundert", DE).expr_type == ExpressionType.YEAR

    def test_hundred_form_needs_cue(self):
        assert classify_first("nineteen hundred forty-five", EN).expr_type \
            == ExpressionType.QUANTITY
        assert classify_first("in nineteen hundred forty-five", EN).expr_type \
            == ExpressionType.YEAR

    def test_out_of_range_is_never_a_year(self):
        assert classify_first("in nine hundred", EN).expr_type == ExpressionType.QUANTITY
        assert classify_first("in twenty-five hundred", EN).expr_type \
            == ExpressionType.QUANTITY

    def test_magnitude_blocks_year(self):
        # "in two thousand" is a year; "two thousand" with a trailing
        # magnitude shorthand never is.
        parsed = classify_first("in one point nine million", EN)
        assert parsed.expr_type == ExpressionType.QUANTITY


class TestQuantityUnits:
    def test_unit_word_extends_span(self):
        tokens = tokenize("two thousand pieces arrived")
        cands = scan_tokens(tokens, EN)
        parsed = classify(cands[0], tokens, EN)
        assert parsed.expr_type == ExpressionType.QUANTITY
        assert parsed.unit_word == "pieces"
        assert parsed.span.end == 3

    def test_german_unit_word(self):
        parsed = classify_first("zweitausend Teile kamen an", DE)
        assert parsed.unit_word == "Teile"

    def test_unit_preserves_surface_case(self):
        parsed = classify_first("drei Schachteln", DE)
        assert parsed.unit_word == "Schachteln"

    @pytest.mark.parametrize("text,locale_code", [
        ("two thousand and more", "en"),
        ("two thousand in total", "en"),
        ("five point five percent", "en"),
        ("zweitausend und mehr", "de"),
    ])
    def test_stopwords_are_not_units(self, text, locale_code):
        locale = EN if locale_code == "en" else DE
        parsed = classify_first(text, locale)
        if parsed.expr_type == ExpressionType.QUANTITY and text != "five point five percent":
            assert parsed.unit_word == ""

    @pytest.mark.parametrize("after,unit_word", [
        ("Uhr", "Uhr"), ("x", "x"), ("!", ""), ("-$", ""), ("_", ""), ("²", ""), ("٣", ""),
    ])
    def test_a_unit_word_holds_a_letter_and_no_digit(self, after, unit_word):
        # "_" is \w but no letter; "²" and "٣" are digits.
        parsed = classify_first(f"two thousand {after}", EN)
        assert parsed.unit_word == unit_word

    def test_percent_is_a_unit(self):
        parsed = classify_first("five point five percent", EN)
        assert parsed.unit_word == "percent"

    def test_magnitude_word_carries_through(self):
        parsed = classify_first("nine point one million users", EN)
        assert parsed.magnitude_word == "million"
        assert parsed.unit_word == "users"


class TestCurrencyClassification:
    @pytest.mark.parametrize("text,code", [
        ("fifty dollars", "USD"),
        ("fifty euros", "EUR"),
        ("fifty pounds", "GBP"),
        ("fifty cents", "USD"),
        ("fünfzig Euro", "EUR"),
        ("fünfzig Cent", "EUR"),
    ])
    def test_codes(self, text, code):
        locale = DE if "ü" in text else EN
        parsed = classify_first(text, locale)
        assert parsed.expr_type == ExpressionType.CURRENCY
        assert parsed.value.currency == code

    def test_magnitude_survives(self):
        parsed = classify_first("nine point one million dollars", EN)
        assert parsed.magnitude_word == "million"


class TestFinishedRecord:
    """The whole record each type leaves ``classify`` with."""

    @pytest.mark.parametrize("text,locale,expected", [
        ("in nineteen forty-five", EN,
         ParsedExpression(Span(1, 3), ExpressionType.YEAR, NumericValue(1945))),
        ("seit neunzehnhundertfünfundvierzig", DE,
         ParsedExpression(Span(1, 2), ExpressionType.YEAR, NumericValue(1945))),
        ("seven thirty pm", EN,
         ParsedExpression(Span(0, 3), ExpressionType.TIMESTAMP,
                          TimeOfDay(19, 30, PeriodHint.EXPLICIT_PM), bare=True)),
        ("viertel vor acht abends", DE,
         ParsedExpression(Span(0, 3), ExpressionType.TIMESTAMP,
                          TimeOfDay(19, 45, PeriodHint.EVENING))),
        ("twenty dollars and five cents", EN,
         ParsedExpression(Span(0, 5), ExpressionType.CURRENCY,
                          MoneyAmount(NumericValue(20), NumericValue(5), "USD"))),
        ("nine point one million dollars", EN,
         ParsedExpression(Span(0, 5), ExpressionType.CURRENCY,
                          MoneyAmount(NumericValue(91, 1), None, "USD"), "million")),
        ("nine point one million users", EN,
         ParsedExpression(Span(0, 5), ExpressionType.QUANTITY, NumericValue(91, 1),
                          "million", "users")),
        ("zwei Millionen Nutzer", DE,
         ParsedExpression(Span(0, 3), ExpressionType.QUANTITY, NumericValue(2),
                          "Millionen", "Nutzer")),
        ("two thousand", EN,
         ParsedExpression(Span(0, 2), ExpressionType.QUANTITY, NumericValue(2000))),
    ])
    def test_record(self, text, locale, expected):
        assert classify_first(text, locale) == expected

    @pytest.mark.parametrize("text,locale", [
        ("in nineteen forty-five", EN),
        ("quarter past seven", EN),
        ("fifty dollars", EN),
        ("two thousand", EN),
    ])
    def test_a_reading_with_nothing_to_finish_is_returned_as_is(self, text, locale):
        tokens = tokenize(text)
        chosen = scan_tokens(tokens, locale)[0]
        assert classify(chosen, tokens, locale) is chosen


class TestResolveTime:
    @pytest.mark.parametrize("t,expected_hour", [
        (TimeOfDay(7, 45, PeriodHint.EVENING), 19),
        (TimeOfDay(4, 30, PeriodHint.EXPLICIT_PM), 16),
        (TimeOfDay(11, 0, PeriodHint.NIGHT), 23),
        (TimeOfDay(1, 5, PeriodHint.AFTERNOON), 13),
        (TimeOfDay(12, 0, PeriodHint.EXPLICIT_PM), 12),
        (TimeOfDay(12, 15, PeriodHint.EXPLICIT_AM), 0),
        (TimeOfDay(12, 15, PeriodHint.MORNING), 0),
        (TimeOfDay(9, 30, PeriodHint.EXPLICIT_AM), 9),
        (TimeOfDay(9, 30, PeriodHint.MORNING), 9),
        (TimeOfDay(7, 45, PeriodHint.UNSPECIFIED), 7),
        (TimeOfDay(19, 45, PeriodHint.EVENING), 19),
        (TimeOfDay(0, 30, PeriodHint.MORNING), 0),
    ])
    def test_table(self, t, expected_hour):
        out = resolve_time(t)
        assert out.hour == expected_hour
        assert out.minute == t.minute

    @given(st.builds(TimeOfDay,
                     st.integers(min_value=0, max_value=23),
                     st.integers(min_value=0, max_value=59),
                     st.sampled_from(list(PeriodHint))))
    def test_idempotent(self, t):
        once = resolve_time(t)
        assert resolve_time(once) == once
