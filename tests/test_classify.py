import pytest
from hypothesis import given, strategies as st

from numitn.classify import classify, resolve_time
from numitn.grammar import scan_tokens
from numitn.locales import DEFAULT_CONFIG
from numitn.tokenizer import tokenize
from numitn.types import ExpressionType, PeriodHint, TimeOfDay

EN = DEFAULT_CONFIG.locale("en")
DE = DEFAULT_CONFIG.locale("de")


def classify_first(text, locale):
    tokens = tokenize(text)
    cands = scan_tokens(tokens, locale)
    assert cands, text
    return classify(cands[0], tokens, locale)


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
        assert parsed.payload == 1945

    def test_german_bare_adverbial_year(self):
        # "Der Krieg endete neunzehnhundertfünfundvierzig": no preposition.
        parsed = classify_first("neunzehnhundertfünfundvierzig", DE)
        assert parsed.expr_type == ExpressionType.YEAR
        assert parsed.payload == 1945

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
        assert parsed.payload.unit_word == "pieces"
        assert parsed.span.end == 3

    def test_german_unit_word(self):
        parsed = classify_first("zweitausend Teile kamen an", DE)
        assert parsed.payload.unit_word == "Teile"

    def test_unit_preserves_surface_case(self):
        parsed = classify_first("drei Schachteln", DE)
        assert parsed.payload.unit_word == "Schachteln"

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
            assert parsed.payload.unit_word == ""

    def test_percent_is_a_unit(self):
        parsed = classify_first("five point five percent", EN)
        assert parsed.payload.unit_word == "percent"

    def test_magnitude_word_carries_through(self):
        parsed = classify_first("nine point one million users", EN)
        assert parsed.payload.magnitude_word == "million"
        assert parsed.payload.unit_word == "users"


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
        assert parsed.payload.currency == code

    def test_magnitude_survives(self):
        parsed = classify_first("nine point one million dollars", EN)
        assert parsed.payload.magnitude_word == "million"


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
