import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from numitn.classify import choose
from numitn import grammar
from numitn.grammar import (
    _en_pair_reading,
    parse_cardinal,
    parse_clock_phrase,
    parse_currency_phrase,
    scan_tokens,
)
from numitn import lexicon
from numitn.lexicon import fold_german, verbalize_cardinal
from numitn.locales import CURRENCY_WORDS, DEFAULT_CONFIG, MINOR_UNIT_WORDS
from numitn.pipeline import normalize_text
from numitn.tokenizer import tokenize
from numitn.types import (
    ExpressionType, MoneyAmount, NumericValue, PeriodHint, Span, TimeOfDay,
)

EN = DEFAULT_CONFIG.locale("en")
DE = DEFAULT_CONFIG.locale("de")


def cardinal(text, locale):
    return parse_cardinal(tokenize(text), 0, locale)


def pair(text):
    return _en_pair_reading(tokenize(text), 0)


def clock_readings(text, locale):
    tokens = tokenize(text)
    return parse_clock_phrase(tokens, 0, locale, parse_cardinal(tokens, 0, locale))


def clock(text, locale):
    """The clock reading the chooser picks among the clock readings."""
    return choose(clock_readings(text, locale) or [], tokenize(text), locale.language)


def money(text, locale):
    tokens = tokenize(text)
    readings = parse_currency_phrase(tokens, [parse_cardinal(tokens, 0, locale)], locale)
    if readings is None:
        return None
    [reading] = readings
    return reading


class TestEnglishCardinals:
    @pytest.mark.parametrize("text,value,end", [
        ("zero", 0, 1),
        ("seventeen", 17, 1),
        ("forty-five", 45, 1),
        ("forty five", 45, 2),
        ("two hundred", 200, 2),
        ("two hundred eight", 208, 3),
        ("nine hundred ninety nine", 999, 4),
        ("one thousand nine hundred forty-five", 1945, 5),
        ("twelve thousand", 12000, 2),
        ("two million three thousand one", 2003001, 5),
    ])
    def test_integers(self, text, value, end):
        c = cardinal(text, EN)
        assert c is not None
        assert c.value == NumericValue(value)
        assert c.span.end == end
        assert c.magnitude_word is None

    def test_pair_reading(self):
        c = pair("nineteen forty-five")
        assert c.value == NumericValue(1945)
        assert c.expr_type == ExpressionType.YEAR
        # The cardinal reading at the same position stops after "nineteen".
        assert cardinal("nineteen forty-five", EN).value == NumericValue(19)

    def test_pair_oh(self):
        c = pair("nineteen oh five")
        assert c.value == NumericValue(1905)
        assert c.expr_type == ExpressionType.YEAR

    def test_pair_twenty_twenty_five(self):
        c = pair("twenty twenty-five")
        assert c.value == NumericValue(2025)
        assert c.expr_type == ExpressionType.YEAR

    def test_hundred_form_is_not_a_pair(self):
        c = pair("nineteen hundred forty-five")
        assert c.value == NumericValue(1945)
        assert c.expr_type == ExpressionType.QUANTITY

    def test_no_pair_below_eleven(self):
        c = cardinal("five three", EN)
        assert c.value == NumericValue(5)
        assert c.span.end == 1
        assert pair("five three") is None

    def test_every_pair_is_a_year_no_minute_count_takes(self):
        # From 1101 up, so the 1..59 minute count of "M past H" rejects it.
        firsts = [verbalize_cardinal(n, "en") for n in range(11, 21)]
        seconds = [f"oh {verbalize_cardinal(n, 'en')}" for n in range(1, 10)]
        seconds += [verbalize_cardinal(n, "en") for n in range(10, 100)]
        seconds += [f"{verbalize_cardinal(n - n % 10, 'en')} {verbalize_cardinal(n % 10, 'en')}"
                    for n in range(21, 100) if n % 10]
        for first in firsts:
            for second in seconds:
                c = pair(f"{first} {second}")
                assert c.expr_type == ExpressionType.YEAR, (first, second)
                assert c.magnitude_word is None
                assert 1101 <= c.value.mantissa <= 2099 and c.value.is_integer

    def test_decimal(self):
        c = cardinal("nine point one", EN)
        assert c.value == NumericValue(91, 1)

    def test_decimal_keeps_leading_zero_digits(self):
        c = cardinal("one point oh five", EN)
        assert c.value == NumericValue(105, 2)

    def test_terminal_magnitude_single_group(self):
        c = cardinal("nine million", EN)
        assert c.value == NumericValue(9)
        assert c.magnitude_word == "million"

    def test_decimal_magnitude(self):
        c = cardinal("nine point one million", EN)
        assert c.value == NumericValue(91, 1)
        assert c.magnitude_word == "million"

    def test_multi_group_magnitude_is_expanded(self):
        c = cardinal("two million three thousand", EN)
        assert c.value == NumericValue(2003000)
        assert c.magnitude_word is None

    @pytest.mark.parametrize("text", [
        "two thousand million thousand",
        "two thousand thousand",
        "three million billion",
    ])
    def test_malformed_scale_chains_absent(self, text):
        assert cardinal(text, EN) is None

    def test_dangling_scale_word_absent(self):
        # A scale word with no leading count never starts a parse either.
        assert cardinal("thousand pieces", EN) is None


class TestGermanCardinals:
    @pytest.mark.parametrize("text,value,end", [
        ("fünfundvierzig", 45, 1),
        ("neunzehnhundertfünfundvierzig", 1945, 1),
        ("zweitausend", 2000, 1),
        ("zwei Millionen", 2, 2),
        ("eine Million", 1, 2),
        ("zwei Millionen dreitausend", 2003000, 3),
        ("neun Komma eins", 91, 3),
    ])
    def test_values(self, text, value, end):
        c = cardinal(text, DE)
        assert c is not None
        assert c.span.end == end
        if c.magnitude_word:
            assert c.value.mantissa == value
        else:
            assert c.value in (NumericValue(value), NumericValue(value, 1))

    def test_terminal_magnitude(self):
        c = cardinal("neun Komma eins Millionen", DE)
        assert c.value == NumericValue(91, 1)
        assert c.magnitude_word == "Millionen"

    def test_magnitude_chain_expanded(self):
        c = cardinal("zwei Milliarden drei Millionen", DE)
        assert c.value == NumericValue(2_003_000_000)
        assert c.magnitude_word is None

    def test_non_decreasing_magnitudes_absent(self):
        assert cardinal("zwei Millionen drei Milliarden", DE) is None

    def test_hundert_compound_with_tail_is_a_pair(self):
        assert cardinal("neunzehnhundertfünfundvierzig", DE).expr_type == ExpressionType.YEAR
        assert cardinal("neunzehnhundertfünf", DE).expr_type == ExpressionType.YEAR

    @pytest.mark.parametrize("text", [
        "elfhundert",             # round hundreds stay count-like
        "eintausendneunhundertfünfundvierzig",  # tausend form is plain
        "zweitausend",
    ])
    def test_non_pair_compounds(self, text):
        assert cardinal(text, DE).expr_type == ExpressionType.QUANTITY


# One group right before a magnitude word keeps the word; any other chain of
# scale groups is spelled out. Each case is (mantissa, magnitude word, end).
@pytest.mark.parametrize("text,locale,want", [
    ("five hundred million", EN, (500, "million", 3)),
    ("nine hundred ninety-nine billion", EN, (999, "billion", 4)),
    ("one billion five million", EN, (1_005_000_000, None, 4)),
    ("five million three", EN, (5_000_003, None, 3)),
    ("five million million", EN, None),
    ("eine Million", DE, (1, "Million", 2)),
    ("zweihundert Millionen", DE, (200, "Millionen", 2)),
    ("fünf Millionen drei", DE, (5_000_003, None, 3)),
    ("eine Milliarde fünf Millionen", DE, (1_005_000_000, None, 4)),
])
def test_only_one_group_before_a_magnitude_word_keeps_it(text, locale, want):
    c = cardinal(text, locale)
    assert (c and (c.value.mantissa, c.magnitude_word, c.span.end)) == want


class TestEnglishClock:
    @pytest.mark.parametrize("text,hour,minute,hint", [
        ("ten o'clock", 10, 0, PeriodHint.UNSPECIFIED),
        ("quarter past one", 1, 15, PeriodHint.UNSPECIFIED),
        ("half past twelve", 12, 30, PeriodHint.UNSPECIFIED),
        ("quarter to eight", 7, 45, PeriodHint.UNSPECIFIED),
        ("quarter to one", 12, 45, PeriodHint.UNSPECIFIED),
        ("five past seven", 7, 5, PeriodHint.UNSPECIFIED),
        ("twenty-five to ten", 9, 35, PeriodHint.UNSPECIFIED),
        ("thirty-five minutes past two", 2, 35, PeriodHint.UNSPECIFIED),
        ("seven forty-five pm", 7, 45, PeriodHint.EXPLICIT_PM),
        ("nine oh five am", 9, 5, PeriodHint.EXPLICIT_AM),
        # Meridiem forms stay as spoken here; the 24h shift happens later.
        ("4pm", 4, 0, PeriodHint.EXPLICIT_PM),
        ("4:30pm", 4, 30, PeriodHint.EXPLICIT_PM),
        ("4:30 pm", 4, 30, PeriodHint.EXPLICIT_PM),
        ("10 o'clock", 10, 0, PeriodHint.UNSPECIFIED),
    ])
    def test_times(self, text, hour, minute, hint):
        c = clock(text, EN)
        assert c is not None, text
        t = c.value
        assert (t.hour, t.minute, t.period_hint) == (hour, minute, hint)

    def test_lookahead_period_is_not_consumed(self):
        c = clock("quarter to eight in the evening", EN)
        assert c.value.period_hint == PeriodHint.EVENING
        assert c.span.end == 3

    def test_pair_time_needs_period_context(self):
        # The parser reads the bare hour-minute time whatever follows it;
        # the chooser keeps it only before am/pm or a period phrase.
        [bare] = clock_readings("nineteen forty-five", EN)
        assert bare.bare and bare.value == TimeOfDay(19, 45) and bare.span.end == 2
        assert clock("nineteen forty-five", EN) is None
        c = clock("nineteen forty-five in the evening", EN)
        assert (c.value.hour, c.value.minute) == (19, 45)

    def test_at_night_lookahead(self):
        c = clock("eleven o'clock at night", EN)
        assert c.value.period_hint == PeriodHint.NIGHT

    def test_bare_minutes_to_is_rejected(self):
        # "forty to five" reads as a count, not a time.
        assert clock("forty to five", EN) is None

    def test_digit_time_without_meridiem_is_not_claimed(self):
        assert clock("19:45", EN) is None

    @pytest.mark.parametrize("text", ["quarter to 0", "twenty to 0", "ten minutes to 00"])
    def test_to_hour_zero_is_rejected(self, text):
        # There is no hour before 0 to count back to; this used to raise.
        assert clock(text, EN) is None


class TestGermanClock:
    @pytest.mark.parametrize("text,hour,minute", [
        ("ein Uhr", 1, 0),
        ("dreizehn Uhr", 13, 0),
        ("neunzehn Uhr fünfundvierzig", 19, 45),
        ("null Uhr", 0, 0),
        ("15.45 Uhr", 15, 45),
        ("15:45 Uhr", 15, 45),
        ("viertel nach eins", 1, 15),
        ("viertel vor acht", 7, 45),
        ("viertel vor eins", 0, 45),
        ("halb zwei", 1, 30),
        ("halb eins", 0, 30),
        ("fünf nach sieben", 7, 5),
        ("zehn Minuten vor zwölf", 11, 50),
        ("13 Uhr 5", 13, 5),
    ])
    def test_times(self, text, hour, minute):
        c = clock(text, DE)
        assert c is not None, text
        assert (c.value.hour, c.value.minute) == (hour, minute)

    def test_uhr_token_is_consumed(self):
        c = clock("15.45 Uhr war es.", DE)
        assert c.span.end == 2

    def test_period_adverb_lookahead(self):
        c = clock("viertel vor acht abends", DE)
        assert c.value.period_hint == PeriodHint.EVENING
        assert c.span.end == 3

    def test_am_is_not_a_meridiem_in_german(self):
        # "am" is a preposition; "acht am" must not become 8:00 AM.
        c = clock("acht am Morgen", DE)
        assert c is None

    def test_idiom_hours_are_words_only(self):
        assert clock("halb 2", DE) is None

    @pytest.mark.parametrize("minute", ["²", "123", "fünf-"])
    def test_uhr_takes_only_a_word_or_two_digits_as_minute(self, minute):
        c = clock(f"fünf Uhr {minute}", DE)
        assert (c.span.end, c.value.hour, c.value.minute) == (2, 5, 0)


# Hours past 23 and minutes past 59 are no time of day, spoken or in digits.
@pytest.mark.parametrize("text,locale", [
    ("twenty-four o'clock", EN), ("24 o'clock", EN), ("24pm", EN), ("24:30 pm", EN),
    ("25 pm", EN), ("nine sixty", EN), ("nine sixty pm", EN), ("ninety-nine o'clock", EN),
    ("quarter past thirteen", EN),
    ("vierundzwanzig Uhr", DE), ("24 Uhr", DE), ("24.30 Uhr", DE),
    ("viertel nach dreizehn", DE),
])
def test_out_of_range_clock_values_are_no_time(text, locale):
    assert clock_readings(text, locale) is None


@pytest.mark.parametrize("text", ["7 Uhr 60", "sieben Uhr sechzig"])
def test_a_minute_past_59_after_uhr_is_left_out(text):
    assert [(r.span, r.value.hour, r.value.minute) for r in clock_readings(text, DE)] == \
        [(Span(0, 2), 7, 0)]


@pytest.mark.parametrize("text,locale,want", [
    ("nine sixty pm", EN, "9 60 pm"),
    ("7 Uhr 60", DE, "7:00 60"),
])
def test_out_of_range_minutes_normalize_as_counts(text, locale, want):
    assert normalize_text(text, locale) == want


class TestCurrency:
    def test_simple(self):
        c = money("fifty dollars", EN)
        assert c.value == MoneyAmount(NumericValue(50), None, "USD")

    def test_with_cents_tail(self):
        c = money("one thousand dollars and fifty cents", EN)
        assert c.value.major == NumericValue(1000)
        assert c.value.minor == NumericValue(50)
        assert c.span.end == 6

    def test_german_cents_tail(self):
        c = money("eintausend Euro und fünfzig Cent", DE)
        assert c.value.major == NumericValue(1000)
        assert c.value.minor == NumericValue(50)

    def test_cents_only(self):
        c = money("fifty cents", EN)
        assert c.value.major == NumericValue(0)
        assert c.value.minor == NumericValue(50)

    def test_cents_overflow_poisons_whole_parse(self):
        assert money("five dollars and two hundred cents", EN) is None

    def test_decimal_major_needs_magnitude(self):
        assert money("nine point one two three dollars", EN) is None

    def test_magnitude_currency(self):
        c = money("nine point one million dollars", EN)
        assert c.magnitude_word == "million"
        assert c.value.major == NumericValue(91, 1)

    def test_pound_word(self):
        c = money("two hundred pounds", EN)
        assert c.value.currency == "GBP"

    def test_not_a_currency_unit(self):
        assert money("fifty pieces", EN) is None

    def test_amount_from_the_year_pair(self):
        tokens = tokenize("nineteen forty-five dollars")
        cardinals = [parse_cardinal(tokens, 0, EN), _en_pair_reading(tokens, 0)]
        [c] = parse_currency_phrase(tokens, cardinals, EN)
        assert c.value == MoneyAmount(NumericValue(1945), None, "USD")
        assert c.span.end == 3


class TestScan:
    def test_german_spellings_scan_alike(self):
        cands = scan_tokens(tokenize("um fünf Uhr"), DE)
        assert [c.expr_type for c in cands] == [ExpressionType.TIMESTAMP]
        assert scan_tokens(tokenize("um fuenf Uhr"), DE) == cands
        assert scan_tokens(tokenize("UM FÜNF UHR"), DE) == cands

    def test_german_cents_tail_in_scan(self):
        cands = scan_tokens(tokenize("fünfzig Euro und zwanzig Cent"), DE)
        assert [c.expr_type for c in cands] == [ExpressionType.CURRENCY]
        assert cands[0].value.major == NumericValue(50)
        assert cands[0].value.minor == NumericValue(20)

    def test_priority_currency_over_year(self):
        cands = scan_tokens(tokenize("nineteen forty-five dollars"), EN)
        assert len(cands) == 1
        assert cands[0].expr_type == ExpressionType.CURRENCY

    def test_clock_beats_pair_on_tie(self):
        cands = scan_tokens(tokenize("nineteen forty-five in the evening"), EN)
        assert cands[0].expr_type == ExpressionType.TIMESTAMP

    def test_multiple_candidates_in_order(self):
        cands = scan_tokens(tokenize(
            "Pay fifty dollars at ten o'clock for two thousand pieces."), EN)
        kinds = [c.expr_type for c in cands]
        assert kinds == [ExpressionType.CURRENCY, ExpressionType.TIMESTAMP,
                         ExpressionType.QUANTITY]
        starts = [c.span.start for c in cands]
        assert starts == sorted(starts)

    def test_no_overlap(self):
        for sentence in ("two quarter past three", "fünf halb zwei Uhr drei"):
            locale = DE if "halb" in sentence else EN
            cands = scan_tokens(tokenize(sentence), locale)
            for a, b in zip(cands, cands[1:]):
                assert a.span.end <= b.span.start


def ungated_scan(tokens, locale):
    """``scan_tokens`` without its start gate, as a reference: every position is parsed."""
    out = []
    i = 0
    while i < len(tokens):
        cardinal = parse_cardinal(tokens, i, locale)
        readings = parse_clock_phrase(tokens, i, locale, cardinal) or []
        if cardinal is not None:
            pair = _en_pair_reading(tokens, i) if locale.language == "en" else None
            cardinals = [cardinal] if pair is None else [cardinal, pair]
            currency = parse_currency_phrase(tokens, cardinals, locale) or []
            readings = cardinals + readings + currency
        best = choose(readings, tokens, locale.language)
        if best is not None:
            out.append(best)
            i = best.span.end
        else:
            i += 1
    return out


# English number words, spelled here rather than read from the lexicon.
EN_UNITS = {word: n for n, word in enumerate(
    "zero one two three four five six seven eight nine".split())}
EN_TEENS = {word: n for n, word in enumerate(
    "ten eleven twelve thirteen fourteen fifteen sixteen seventeen eighteen nineteen".split(),
    start=10)}
EN_TENS = {word: 10 * n for n, word in enumerate(
    "twenty thirty forty fifty sixty seventy eighty ninety".split(), start=2)}
EN_HYPHENATED = {f"{tens}-{unit}": t + u for tens, t in EN_TENS.items()
                 for unit, u in EN_UNITS.items() if u}
# The single words naming 10..99.
EN_TWO_DIGIT = {**EN_TEENS, **EN_TENS, **EN_HYPHENATED}

_EN_TENS = sorted(EN_TENS)
_LEXICON_WORDS = sorted({
    *EN_UNITS, *EN_TEENS, *EN_TENS, *lexicon.SCALE_WORDS["en"],
    # The German group keys without "und" (or "hundert") are the single words.
    "hundred", *(key for key in lexicon.DE_GROUPS if "und" not in key),
    *lexicon.SCALE_WORDS["de"], "hundert", "tausend",
})
_SPELLINGS = [str, fold_german, str.capitalize, str.upper]
_CLOCK_WORDS = ["quarter", "half", "past", "to", "o'clock", "am", "pm", "a.m.", "p.m.",
                "viertel", "halb", "nach", "vor", "Uhr", "Viertel", "minutes", "Minuten"]
# Idiom openers and hour words get strategies of their own, so "quarter past
# <hour>" and "halb <hour>" come up often enough to test the clock start words.
_CLOCK_OPENERS = ["quarter past", "quarter to", "half past", "viertel nach",
                  "viertel vor", "halb"]
_DIGIT_FORMS = ["7", "12", "23", "0", "2024", "4:30pm", "7am", "15.45", "15:45",
                "1.000,50€", "$5", "٣"]
_CURRENCY = sorted({*CURRENCY_WORDS["en"], *CURRENCY_WORDS["de"], *MINOR_UNIT_WORDS,
                    "Euro", "Dollar", "Pfund", "Cent", "and", "und"})
_FILLERS = ["the", "was", "a", "in", "the evening", "at night", "morgens", "abends",
            "point", "komma", "oh", "Leute", "pieces", ",", ".", "!", "(", ")", "-",
            # German words that start like a numeral but are none.
            "achten", "einmal", "elfen", "hundertmal", "Zweifel"]


def _spoken(low, high, languages):
    return st.builds(lambda n, language, spell: spell(verbalize_cardinal(n, language)),
                     st.integers(min_value=low, max_value=high),
                     st.sampled_from(languages), st.sampled_from(_SPELLINGS))


# Windows that put each key the scan's follow checks read after a number
# word before what completes a reading, so each check decides: an hour
# before am/pm (dotted or not), an hour noun, or "oh" and the minute words of
# "nine oh five" and "nine thirty"; a count before a minute noun or the
# counted "past"/"to"/"nach"/"vor"; and a currency or cent word after a year
# pair, whose cardinal ends sooner ("nineteen forty-five dollars"). Digit
# hours run the clock parser whatever follows; they are here for "7 Uhr".
_HOURS = st.one_of(_spoken(1, 23, ["en"]), _spoken(1, 23, ["de"]), st.sampled_from(_DIGIT_FORMS))
_HOUR_FOLLOWERS = ["o'clock", "am", "a.m", "P.M.", "oh five", "thirty", "forty-five", "Uhr",
                   "uhr fünf"]
_PERIODS = ["", "pm", "in the evening", "abends"]
_MINUTE_NOUNS = ["", "minute", "minutes", "Minute", "Minuten"]
_COUNTED = ["past seven", "to seven", "nach acht", "vor acht"]
_PAIR_TAILS = ["forty-five", "fifty", "oh five", "hundred", "hundred five"]
_FOLLOWED = [
    st.builds("{} {} {}".format, _HOURS, st.sampled_from(_HOUR_FOLLOWERS),
              st.sampled_from(_PERIODS)),
    st.builds("{} {} {}".format, st.one_of(_spoken(1, 59, ["en"]), _spoken(1, 59, ["de"])),
              st.sampled_from(_MINUTE_NOUNS), st.sampled_from(_COUNTED)),
    st.builds("{} {} {}".format, st.sampled_from(["ten", "eleven", "nineteen", "twenty"]),
              st.sampled_from(_PAIR_TAILS), st.sampled_from(_CURRENCY)),
]

_WORD = st.one_of(
    *_FOLLOWED,
    st.sampled_from(_LEXICON_WORDS),
    st.builds("{}-{}".format, st.sampled_from(_EN_TENS + ["ten", "nineteen"]),
              st.sampled_from(sorted(EN_UNITS))),
    _spoken(0, 2_999_999, ["de"]),
    _spoken(1, 12, ["en", "de"]),
    st.sampled_from(_CLOCK_WORDS),
    st.sampled_from(_CLOCK_OPENERS),
    st.sampled_from(_DIGIT_FORMS),
    st.sampled_from(_CURRENCY),
    st.sampled_from(_FILLERS),
)


@pytest.mark.parametrize("locale", [EN, DE], ids=["en", "de"])
@settings(max_examples=1000, deadline=None)
@given(words=st.lists(_WORD, min_size=1, max_size=12))
def test_scan_gate_skips_only_positions_no_parser_starts(locale, words):
    tokens = tokenize(" ".join(words))
    assert scan_tokens(tokens, locale) == ungated_scan(tokens, locale)


# --- the start list ------------------------------------------------------------
# The parsers are the oracle: wherever one of them reads something, the start
# list ``scan_tokens`` visits must hold that index.


def parser_reads_at(tokens, i, locale):
    cardinal = parse_cardinal(tokens, i, locale)
    return (cardinal is not None
            or parse_clock_phrase(tokens, i, locale, cardinal) is not None
            or locale.language == "en" and _en_pair_reading(tokens, i) is not None)


def missed_starts(text, locale):
    """The token indices of ``text`` a parser reads from and the start list leaves out."""
    tokens = tokenize(text)
    starts = set(grammar._starts(tokens.keys, locale.language))
    return [i for i in range(len(tokens))
            if i not in starts and parser_reads_at(tokens, i, locale)]


def _idiom_windows(language, hour):
    """Each clock idiom that opens a phrase, said before ``hour``."""
    return [" ".join((*keys, hour)) for keys in grammar._IDIOMS[language][0]]


# Second tokens that complete a reading: clock nouns, am/pm, scales, the
# decimal point, a digit word, minute nouns, counted idiom words and units.
_EN_FOLLOWERS = ["o'clock", "pm", "p.m.", "hundred", "thousand", "million", "point",
                 "five", "forty-five", "oh", "minutes", "past", "to", "dollars", "cents"]
_DE_FOLLOWERS = ["uhr", "komma", "millionen", "fuenf", "minuten", "nach", "vor", "euro"]
_GATE_DIGITS = ["7", "12", "23", "0", "2024", "4:30", "15.45", "15:45", "7pm", "4:30pm",
                "7am", "٣"]


def _en_window_keys():
    return sorted({*lexicon.EN_NUMBER_WORDS, *(keys[0] for keys in lexicon.EN_GROUPS),
                   *(keys[0] for keys in lexicon.EN_PAIR_HUNDREDS),
                   *grammar._IDIOMS["en"][1], *lexicon.SCALE_WORDS["en"], "hundred", "oh"})


def _de_window_keys():
    return sorted({*lexicon.DE_GROUPS, *grammar._IDIOMS["de"][1], "tausend"})


def _de_thousands():
    """"tausend" compounds around every group: too many to pair with followers too."""
    groups = sorted(lexicon.DE_GROUPS)
    return [*(f"{head}tausend{tail}" for head in ("", *groups) for tail in ("", "und", "eins")),
            *(f"zweitausend{tail}" for tail in groups)]


@pytest.mark.parametrize("locale", [EN, DE], ids=["en", "de"])
def test_no_cardinal_starts_at_a_digit_or_an_idiom_opener(locale):
    # ``scan_tokens`` runs only the clock parser at these keys.
    openers = [*grammar._IDIOMS["en"][1], *grammar._IDIOMS["de"][1]]
    followers = _EN_FOLLOWERS if locale.language == "en" else _DE_FOLLOWERS
    for first in (*_GATE_DIGITS, *openers):
        for text in (first, *(f"{first} {follower}" for follower in followers)):
            assert parse_cardinal(tokenize(text), 0, locale) is None, text


@pytest.mark.parametrize("locale", [EN, DE], ids=["en", "de"])
def test_start_list_admits_every_lexicon_key_a_parser_reads(locale):
    if locale.language == "en":
        keys, alone, followers, hour = _en_window_keys(), [], _EN_FOLLOWERS, "seven"
    else:
        keys, alone, followers, hour = _de_window_keys(), _de_thousands(), _DE_FOLLOWERS, "acht"
    windows = [*keys, *alone, *_GATE_DIGITS, *_idiom_windows(locale.language, hour)]
    windows += [f"{key} {follower}" for key in (*keys, *_GATE_DIGITS) for follower in followers]
    read = 0
    for text in windows:
        assert missed_starts(text, locale) == [], text
        read += parser_reads_at(tokenize(text), 0, locale)
    # The oracle is not vacuous: most windows start a reading, idioms included.
    assert read > len(windows) // 2
    assert all(parser_reads_at(tokenize(text), 0, locale)
               for text in _idiom_windows(locale.language, hour))


_FOLD_FRAGMENTS = [*lexicon.DE_NUMBER_STARTS, "und", "s", "n", "e", "er", "mal", "x"]
_FOLDED_WORD = st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzäöüß0123456789:.'-", min_size=1, max_size=12),
    st.lists(st.sampled_from(_FOLD_FRAGMENTS), min_size=1, max_size=4).map("".join),
    st.sampled_from(_en_window_keys() + _EN_FOLLOWERS + _DE_FOLLOWERS + _GATE_DIGITS),
).map(fold_german)


@settings(max_examples=1000, deadline=None)
@given(words=st.lists(_FOLDED_WORD, min_size=1, max_size=6))
def test_start_list_admits_every_folded_word_a_parser_reads(words):
    text = " ".join(words)
    assert missed_starts(text, EN) == []
    assert missed_starts(text, DE) == []


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=99_999_999),
       st.sampled_from(["en", "de"]))
def test_cardinal_round_trip(n, code):
    locale = EN if code == "en" else DE
    tokens = tokenize(verbalize_cardinal(n, code))
    c = parse_cardinal(tokens, 0, locale)
    assert c is not None
    assert c.span.end == len(tokens)
    if c.magnitude_word is None:
        assert c.value == NumericValue(n)
    else:
        # Terminal magnitudes stay compact: value times the named scale.
        scale = {"million": 10**6, "billion": 10**9,
                 "Million": 10**6, "Millionen": 10**6,
                 "Milliarde": 10**9, "Milliarden": 10**9}[c.magnitude_word]
        assert c.value.mantissa * scale == n * 10**c.value.scale


# The English readers the spelling tables replaced, kept as references. They
# read the word tables above, so they share no code with the lexicon's tables.


def _at(keys, i):
    return keys[i] if i < len(keys) else ""


def old_en_two_digit_span(keys, i):
    """Read 10..99 as one token or a tens + unit pair ("forty five")."""
    key = _at(keys, i)
    if key in EN_TENS:
        unit = EN_UNITS.get(_at(keys, i + 1))
        if unit:
            return EN_TENS[key] + unit, i + 2
        return EN_TENS[key], i + 1
    value = EN_TWO_DIGIT.get(key)
    return None if value is None else (value, i + 1)


def old_en_hundreds(keys, at, head):
    """Value and end of "<head> hundred [tail]", where token ``at`` is "hundred"."""
    tail = old_en_two_digit_span(keys, at + 1)
    if tail is not None:
        return head * 100 + tail[0], tail[1]
    unit = EN_UNITS.get(_at(keys, at + 1))
    if unit:
        return head * 100 + unit, at + 2
    return head * 100, at + 1


def old_en_sub_thousand(keys, i):
    unit = EN_UNITS.get(_at(keys, i))
    if unit is not None and unit >= 1 and _at(keys, i + 1) == "hundred":
        return old_en_hundreds(keys, i + 1, unit)
    two = old_en_two_digit_span(keys, i)
    if two is not None:
        return two
    if unit is not None:
        return unit, i + 1
    return None


def old_en_digit_pair(keys, i):
    """A pair's second half or a minute: 10..99, or "oh" and a digit."""
    if _at(keys, i) == "oh":
        unit = EN_UNITS.get(_at(keys, i + 1))
        return (unit, i + 2) if unit else None
    return old_en_two_digit_span(keys, i)


def old_en_pair_reading(keys, at):
    """(type, value, end) of "nineteen forty-five" or "nineteen hundred [tail]"."""
    first = EN_TWO_DIGIT.get(_at(keys, at))
    if first is None or not 11 <= first <= 20:
        return None
    if _at(keys, at + 1) == "hundred":
        return (ExpressionType.QUANTITY, *old_en_hundreds(keys, at + 1, first))
    second = old_en_digit_pair(keys, at + 1)
    if second is None:
        return None
    return ExpressionType.YEAR, first * 100 + second[0], second[1]


def test_every_english_spelling_reads_as_the_old_readers_read_it():
    assert len(lexicon.EN_GROUPS) == len(lexicon.EN_PAIR_HUNDREDS) == 1_720
    for keys, value in lexicon.EN_GROUPS.items():
        assert old_en_sub_thousand(keys, 0) == (value, len(keys)), keys
    for keys, value in lexicon.EN_PAIR_HUNDREDS.items():
        assert old_en_pair_reading(keys, 0) == (ExpressionType.QUANTITY, value, len(keys)), keys
    for keys, value in lexicon.EN_DIGIT_PAIRS.items():
        assert old_en_digit_pair(keys, 0) == (value, len(keys)), keys


# Number words, their neighbours in a group, and words that end one.
_EN_GROUP_WORDS = sorted({*EN_UNITS, *EN_TEENS, *EN_TENS, "forty-five", "twenty-one",
                          "ninety-nine", "forty-zero", "ten-five", "hundred", "thousand",
                          "oh", "and", "x", "5"})


@settings(max_examples=2000)
@given(st.lists(st.sampled_from(_EN_GROUP_WORDS), min_size=1, max_size=6))
def test_english_tables_read_as_the_old_readers(words):
    tokens = tokenize(" ".join(words))
    for i in range(len(tokens)):
        assert grammar._group(tokens, i, "en") == old_en_sub_thousand(tokens.keys, i)
        pair = _en_pair_reading(tokens, i)
        got = None if pair is None else (pair.expr_type, pair.value.mantissa, pair.span.end)
        assert got == old_en_pair_reading(tokens.keys, i)
        minute = old_en_digit_pair(tokens.keys, i)
        if minute is not None and minute[0] <= 59:
            [bare] = [r for r in clock_readings("nine " + " ".join(words[i:]), EN) if r.bare]
            assert (bare.value.minute, bare.span.end) == (minute[0], minute[1] - i + 1)


def _load_benchmark_spellers():
    """``perfbench/inputs.py``, whose number spellers import nothing from ``numitn``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("locale", [EN, DE], ids=["en", "de"])
def test_cardinals_read_the_benchmark_spellers(locale):
    spell = getattr(_load_benchmark_spellers(), f"{locale.language}_int")
    for n in [*range(1, 10_000), *range(10_007, 1_000_000, 997), 999_999]:
        tokens = tokenize(spell(n))
        c = parse_cardinal(tokens, 0, locale)
        assert (c.value, c.span) == (NumericValue(n), Span(0, len(tokens))), spell(n)
