import pytest
from hypothesis import given, settings, strategies as st

from numitn.locales import DEFAULT_CONFIG, load_locale_config
from numitn.pipeline import normalize_text

EN = DEFAULT_CONFIG.locale("en")
DE = DEFAULT_CONFIG.locale("de")

GOLDEN = [
    ("en", "The war ended in nineteen forty-five.", "The war ended in 1945."),
    ("en", "The meeting is at quarter to eight in the evening.",
     "The meeting is at 19:45 in the evening."),
    ("en", "It costs one thousand dollars and fifty cents.", "It costs $1,000.50."),
    ("en", "We ordered two thousand pieces.", "We ordered 2,000 pieces."),
    ("en", "The bus leaves at five past seven.", "The bus leaves at 7:05."),
    ("en", "They raised nine point one million dollars.", "They raised $9.1 million."),
    ("en", "The alarm rang at seven forty-five pm.", "The alarm rang at 19:45."),
    ("de", "Der Krieg endete neunzehnhundertfünfundvierzig.",
     "Der Krieg endete 1945."),
    ("de", "Es kostet eintausend Euro und fünfzig Cent.", "Es kostet 1.000,50€."),
    ("de", "Wir bestellten zweitausend Teile.", "Wir bestellten 2.000 Teile."),
    ("de", "Der Zug fährt um fünfzehn Uhr fünfundvierzig.",
     "Der Zug fährt um 15:45."),
    ("de", "Es ist viertel vor acht abends.", "Es ist 19:45 abends."),
    ("de", "Sie sammelten neun Komma eins Millionen Euro.",
     "Sie sammelten 9,1 Millionen€."),
]


@pytest.mark.parametrize("code,spoken,written", GOLDEN,
                         ids=[g[1][:40] for g in GOLDEN])
def test_golden_sentences(code, spoken, written):
    locale = EN if code == "en" else DE
    assert normalize_text(spoken, locale) == written


class TestContextSensitivity:
    """One phrase, four readings, picked by the surrounding words."""

    def test_year(self):
        assert normalize_text("in nineteen forty-five", EN) == "in 1945"

    def test_timestamp(self):
        got = normalize_text("at nineteen forty-five in the evening", EN)
        assert got == "at 19:45 in the evening"

    def test_currency(self):
        got = normalize_text("nineteen forty-five dollars", EN)
        assert got == "$1,945"

    def test_quantity(self):
        got = normalize_text("one thousand nine hundred forty-five pieces", EN)
        assert got == "1,945 pieces"


class TestReplacements:
    def test_one_line_of_three_types(self):
        src = "Pay fifty dollars at ten o'clock for two thousand pieces."
        assert normalize_text(src, EN) == "Pay $50 at 10:00 for 2,000 pieces."

    def test_unchanged_sentence(self):
        assert normalize_text("No numbers in sight.", EN) == "No numbers in sight."

    def test_timestamp_is_resolved(self):
        got = normalize_text("at quarter to eight in the evening", EN)
        assert got == "at 19:45 in the evening"


class TestLiteralContainment:
    @pytest.mark.parametrize("code,text", [
        ("en", "It is 19:45 already."),
        ("en", "The invoice totals $1,000.50 today."),
        ("en", "We shipped 2,000 pieces."),
        ("de", "Es ist 15:45."),
        ("de", "Die Rechnung lautet auf 1.000,50€."),
    ])
    def test_formatted_input_is_idempotent(self, code, text):
        locale = EN if code == "en" else DE
        assert normalize_text(text, locale) == text

    def test_digit_clock_with_meridiem_still_rewrites(self):
        # "4:30 pm" is wider than the bare digit match, so it proceeds.
        assert normalize_text("See you at 4:30 pm.", EN) == "See you at 16:30."

    def test_german_dotted_clock_rewrites(self):
        assert normalize_text("Der Zug fährt um 15.45 Uhr.", DE) == \
            "Der Zug fährt um 15:45."

    def test_german_colon_clock_absorbs_uhr(self):
        assert normalize_text("Es ist 15:45 Uhr.", DE) == "Es ist 15:45."

    def test_mixed_literal_and_spoken(self):
        got = normalize_text("From 19:45 until quarter to nine.", EN)
        assert got == "From 19:45 until 8:45."


class TestMalformedInput:
    @pytest.mark.parametrize("text", [
        "two thousand million thousand",
        "three million billion pieces",
    ])
    def test_broken_scale_chains_stay_verbatim(self, text):
        assert normalize_text(text, EN) == text

    def test_empty_string(self):
        assert normalize_text("", EN) == ""

    def test_whitespace_only(self):
        assert normalize_text("   ", EN) == "   "


class TestCustomConfig:
    def test_symbol_override_via_config_file(self, tmp_path):
        path = tmp_path / "locales.json"
        path.write_text('{"currencies": {"USD": {"symbol": "US$"}}}',
                        encoding="utf-8")
        config = load_locale_config(path)
        got = normalize_text("It costs fifty dollars.", config.locale("en"),
                             config.currencies)
        assert got == "It costs US$50."


def test_normalize_lines_streams_in_order():
    lines = ["in nineteen forty-five", "no numbers", "two thousand pieces"]
    assert [normalize_text(line, EN) for line in lines] == [
        "in 1945", "no numbers", "2,000 pieces"]


# Readings inside or around a digit literal, lines with no number, and "".
EDGE_LINES = [
    ("en", "at 4:30 pm", "at 16:30"),
    ("en", "at 4:30", "at 4:30"),
    ("en", "$5 or five dollars", "$5 or $5"),
    ("en", "to be or not", "to be or not"),
    ("de", "um 15.45 Uhr", "um 15:45"),
    ("de", "fünf Euro oder 5€", "5€ oder 5€"),
    ("de", "Zweifel und achten", "Zweifel und achten"),
    ("de", "", ""),
    ("de", "   ", "   "),
]


@pytest.mark.parametrize("code,line,want", EDGE_LINES)
def test_edge_lines(code, line, want):
    assert normalize_text(line, DEFAULT_CONFIG.locale(code)) == want


@settings(max_examples=200)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
def test_normalization_never_crashes(text):
    for locale in (EN, DE):
        assert isinstance(normalize_text(text, locale), str)


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=999_999))
def test_quantity_round_trip_en(n):
    from numitn.lexicon import verbalize_cardinal
    out = normalize_text(f"exactly {verbalize_cardinal(n, 'en')} items", EN)
    digits = out.removeprefix("exactly ").removesuffix(" items")
    assert digits.replace(",", "") == str(n)
