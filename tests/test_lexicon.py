from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from numitn import lexicon
from numitn.lexicon import (
    de_compound,
    de_two_digit_words,
    digit_words,
    en_two_digit_words,
    fold_german,
    is_number_word,
    two_digit_words,
    verbalize_cardinal,
)
from numitn.grammar import scan_tokens
from numitn.locales import CURRENCY_SPOKEN, CURRENCY_WORDS, DEFAULT_CONFIG
from numitn.tokenizer import tokenize
from numitn.types import NumericValue
from numitn.verbalize import verbalize_decimal

# Golden word tables, written out by hand so that they do not depend on the
# name lists the lexicon derives its parse tables from. German entries give
# the spelling and the folded key. Every lookup takes a folded key, so the
# tests fold a spelling with ``fold_german`` before they look it up.
EN_UNITS = {"zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
            "six": 6, "seven": 7, "eight": 8, "nine": 9}
EN_TWO_DIGIT = {"ten": 10, "eleven": 11, "twelve": 12, "thirteen": 13,
                "fourteen": 14, "fifteen": 15, "sixteen": 16, "seventeen": 17,
                "eighteen": 18, "nineteen": 19, "twenty": 20, "thirty": 30,
                "forty": 40, "fifty": 50, "sixty": 60, "seventy": 70,
                "eighty": 80, "ninety": 90}
EN_SCALE_WORDS = {"thousand": 1_000, "million": 1_000_000, "billion": 1_000_000_000}
DE_NUMBERS = [
    ("null", "null", 0), ("eins", "eins", 1), ("zwei", "zwei", 2),
    ("drei", "drei", 3), ("vier", "vier", 4), ("fünf", "fuenf", 5),
    ("sechs", "sechs", 6), ("sieben", "sieben", 7), ("acht", "acht", 8),
    ("neun", "neun", 9), ("zehn", "zehn", 10), ("elf", "elf", 11),
    ("zwölf", "zwoelf", 12), ("dreizehn", "dreizehn", 13),
    ("vierzehn", "vierzehn", 14), ("fünfzehn", "fuenfzehn", 15),
    ("sechzehn", "sechzehn", 16), ("siebzehn", "siebzehn", 17),
    ("achtzehn", "achtzehn", 18), ("neunzehn", "neunzehn", 19),
    ("zwanzig", "zwanzig", 20), ("dreißig", "dreissig", 30),
    ("vierzig", "vierzig", 40), ("fünfzig", "fuenfzig", 50),
    ("sechzig", "sechzig", 60), ("siebzig", "siebzig", 70),
    ("achtzig", "achtzig", 80), ("neunzig", "neunzig", 90),
]
DE_ARTICLES = {"ein": 1, "eine": 1}
DE_MAGNITUDES = [
    ("Million", "million", 1_000_000), ("Millionen", "millionen", 1_000_000),
    ("Milliarde", "milliarde", 1_000_000_000), ("Milliarden", "milliarden", 1_000_000_000),
]
# (language, spelling, folded key, code)
CURRENCIES = [
    ("en", "dollar", "dollar", "USD"), ("en", "dollars", "dollars", "USD"),
    ("en", "euro", "euro", "EUR"), ("en", "euros", "euros", "EUR"),
    ("en", "pound", "pound", "GBP"), ("en", "pounds", "pounds", "GBP"),
    ("de", "Dollar", "dollar", "USD"), ("de", "Euro", "euro", "EUR"),
    ("de", "Pfund", "pfund", "GBP"),
]


class TestGoldenWords:
    def test_english_parse_tables(self):
        words = {keys[0]: value for keys, value in lexicon.EN_GROUPS.items()
                 if len(keys) == 1 and "-" not in keys[0]}
        assert words == {**EN_UNITS, **EN_TWO_DIGIT}
        assert lexicon.SCALE_WORDS["en"] == EN_SCALE_WORDS
        assert lexicon.MAGNITUDE_WORDS["en"] == {"million": 1_000_000, "billion": 1_000_000_000}

    def test_english_verbalization(self):
        for word, value in {**EN_UNITS, **EN_TWO_DIGIT}.items():
            assert verbalize_cardinal(value, "en") == word
        for word, value in EN_SCALE_WORDS.items():
            assert verbalize_cardinal(value, "en") == f"one {word}"

    def test_german_parse_tables(self):
        for spelling, key, value in DE_NUMBERS:
            assert fold_german(spelling) == key
            assert de_compound(key) == value, key
        for word, value in DE_ARTICLES.items():
            assert de_compound(word) == value
        # The group keys without "und" (and so without "hundert") are single words.
        assert {key: value for key, value in lexicon.DE_GROUPS.items() if "und" not in key} == \
            {**{key: value for _, key, value in DE_NUMBERS}, **DE_ARTICLES}
        for spelling, key, value in DE_MAGNITUDES:
            assert fold_german(spelling) == key
        assert lexicon.MAGNITUDE_WORDS["de"] == {key: value for _, key, value in DE_MAGNITUDES}
        # German writes "tausend" inside the compound, so it is no scale word.
        assert lexicon.SCALE_WORDS["de"] == lexicon.MAGNITUDE_WORDS["de"]

    def test_german_verbalization(self):
        for spelling, _, value in DE_NUMBERS:
            assert verbalize_cardinal(value, "de") == spelling
        assert verbalize_cardinal(1_000, "de") == "eintausend"
        singular_million, plural_million, singular_billion, plural_billion = \
            (spelling for spelling, _, _ in DE_MAGNITUDES)
        assert verbalize_cardinal(1_000_000, "de") == f"eine {singular_million}"
        assert verbalize_cardinal(2_000_000, "de") == f"zwei {plural_million}"
        assert verbalize_cardinal(1_000_000_000, "de") == f"eine {singular_billion}"
        assert verbalize_cardinal(2_000_000_000, "de") == f"zwei {plural_billion}"

    def test_billions_count_past_a_thousand(self):
        # From 10**12 up the count before "billion" passes 999; English says
        # it as German does, as a number below a million.
        assert verbalize_cardinal(12_345 * 10**9, "en") == \
            "twelve thousand three hundred forty-five billion"
        assert verbalize_cardinal(10**12, "en") == "one thousand billion"
        assert verbalize_cardinal(12_345 * 10**9, "de") == \
            "zwölftausenddreihundertfünfundvierzig Milliarden"

    def test_currency_words(self):
        for language, spelling, key, code in CURRENCIES:
            assert fold_german(spelling) == key
            assert spelling in CURRENCY_SPOKEN[(code, language)]
        assert CURRENCY_WORDS == {
            language: {key: code for lang, _, key, code in CURRENCIES if lang == language}
            for language in ("en", "de")}
        assert set(CURRENCY_SPOKEN) == {(code, language) for language, _, _, code in CURRENCIES}

    @pytest.mark.parametrize("language,n,words", [
        ("en", 100, "one hundred"), ("en", 105, "one hundred five"),
        ("de", 100, "einhundert"), ("de", 1_000, "eintausend"),
        ("de", 21, "einundzwanzig"), ("de", 2_105, "zweitausendeinhundertfünf"),
        ("de", 101_000, "einhunderteintausend"),
        ("de", 121_001, "einhunderteinundzwanzigtausendeins"),
        ("de", 100_100, "einhunderttausendeinhundert"),
        ("en", 101_000, "one hundred one thousand"),
        ("en", 121_001, "one hundred twenty-one thousand one"),
    ])
    def test_compound_words(self, language, n, words):
        assert verbalize_cardinal(n, language) == words
        [parse] = scan_tokens(tokenize(words), DEFAULT_CONFIG.locale(language))
        assert parse.value == NumericValue(n)

    def test_oh_digit(self):
        assert digit_words("0", "en") == "oh"
        assert lexicon.DIGIT_VALUES["en"].get("oh") == 0
        [parse] = scan_tokens(tokenize("nineteen oh five"), DEFAULT_CONFIG.locale("en"))
        assert parse.value == NumericValue(1905)

    @pytest.mark.parametrize("language,words", [
        ("en", "nine point five"), ("de", "neun Komma fünf"),
    ])
    def test_decimal_point_word(self, language, words):
        assert verbalize_decimal(NumericValue(95, 1), language) == words
        [parse] = scan_tokens(tokenize(words), DEFAULT_CONFIG.locale(language))
        assert parse.value == NumericValue(95, 1)

    @pytest.mark.parametrize("language,words", [
        ("en", "five dollars and twenty cents"), ("de", "fünf Euro und zwanzig Cent"),
    ])
    def test_cents_and_word(self, language, words):
        [parse] = scan_tokens(tokenize(words), DEFAULT_CONFIG.locale(language))
        assert (parse.value.major, parse.value.minor) == (NumericValue(5), NumericValue(20))


class TestEnglishWords:
    @pytest.mark.parametrize("n,words", [
        (0, "zero"),
        (14, "fourteen"),
        (45, "forty-five"),
        (100, "one hundred"),
        (208, "two hundred eight"),
        (1000, "one thousand"),
        (1945, "one thousand nine hundred forty-five"),
        (2000000, "two million"),
        (1000000001, "one billion one"),
    ])
    def test_verbalize(self, n, words):
        assert verbalize_cardinal(n, "en") == words

    def test_no_and(self):
        # House style follows US usage: no "and" inside cardinals.
        assert "and" not in verbalize_cardinal(123456789, "en").split()

    def test_two_digit_lookup(self):
        assert lexicon.EN_GROUPS[("forty-five",)] == 45
        assert lexicon.EN_GROUPS[("forty", "five")] == 45
        assert lexicon.EN_GROUPS[("eleven",)] == 11
        assert ("hundred",) not in lexicon.EN_GROUPS

    def test_number_word_detection(self):
        assert is_number_word("seventeen", "en")
        assert is_number_word("million", "en")
        assert is_number_word("hundred", "en")
        assert not is_number_word("pieces", "en")
        # German words are not English ones.
        assert not is_number_word("fuenf", "en")


class TestGermanWords:
    @pytest.mark.parametrize("n,words", [
        (0, "null"),
        (1, "eins"),
        (21, "einundzwanzig"),
        (45, "fünfundvierzig"),
        (100, "einhundert"),
        (101, "einhunderteins"),
        (1000, "eintausend"),
        (1945, "eintausendneunhundertfünfundvierzig"),
        (1000000, "eine Million"),
        (2000000, "zwei Millionen"),
        (3000000000, "drei Milliarden"),
        (2000001, "zwei Millionen eins"),
    ])
    def test_verbalize(self, n, words):
        assert verbalize_cardinal(n, "de") == words

    @pytest.mark.parametrize("word,value", [
        ("fünfundvierzig", 45),
        ("neunzehnhundertfünfundvierzig", 1945),
        ("zweitausend", 2000),
        ("eintausendeins", 1001),
        ("elfhundert", 1100),
        ("ein", 1),
        ("eine", 1),
        ("dreißig", 30),
    ])
    def test_compound_parse(self, word, value):
        assert de_compound(fold_german(word)) == value

    @pytest.mark.parametrize("word", [
        "hund", "stunden", "sekunden", "achtung", "zweifel",
        "unterzeichnet", "schachteln", "uhr", "",
    ])
    def test_compound_rejects_lookalikes(self, word):
        assert de_compound(fold_german(word)) is None

    def test_fold(self):
        assert fold_german("fünfunddreißig") == "fuenfunddreissig"
        assert fold_german("Äpfel") == "aepfel"

    @given(st.text(alphabet=st.sampled_from("äöüßÄÖÜẞaeous AOUSİΣς "), max_size=20)
           | st.text(max_size=40))
    def test_fold_is_the_translate_table_fold(self, word):
        # The fold as a translate table, which the four replaces must equal.
        table = str.maketrans({"ä": "ae", "ö": "oe", "ü": "ue", "ß": "ss"})
        assert fold_german(word) == word.lower().translate(table)

    def test_number_word_detection(self):
        for word in ("zweitausend", "Millionen", "Fünfundzwanzig", "fuenf", "eine"):
            assert is_number_word(fold_german(word), "de"), word
        assert not is_number_word(fold_german("teile"), "de")
        # English words are not German ones.
        assert not is_number_word("five", "de")


class TestDigitAndTwoDigitForms:
    def test_digit_words(self):
        assert digit_words("105", "en") == "one oh five"
        assert digit_words("105", "de") == "eins null fünf"

    def test_digit_word_value(self):
        digits = lexicon.DIGIT_VALUES
        assert digits["en"].get("oh") == 0
        assert digits["en"].get("zero") == 0
        assert digits["de"].get(fold_german("Null")) == 0
        assert digits["de"].get(fold_german("fünf")) == 5
        assert digits["de"].get("eins") == 1
        # The article reading would corrupt decimals: "neun Komma eine".
        assert digits["de"].get("eine") is None
        assert digits["en"].get("ten") is None

    def test_two_digit_words(self):
        assert en_two_digit_words(45) == "forty-five"
        assert de_two_digit_words(1) == "eins"
        assert de_two_digit_words(1, final=False) == "ein"
        assert de_two_digit_words(21) == "einundzwanzig"
        assert two_digit_words(1, "en", final=False) == "one"
        assert two_digit_words(1, "de", final=False) == "ein"


@given(st.integers(min_value=0, max_value=999_999_999))
def test_en_verbalization_uses_known_words(n):
    for word in verbalize_cardinal(n, "en").split():
        assert is_number_word(fold_german(word), "en")


@given(st.integers(min_value=0, max_value=999_999))
def test_de_single_compound_round_trip(n):
    words = verbalize_cardinal(n, "de")
    assert " " not in words
    assert de_compound(fold_german(words)) == n


def test_negative_rejected():
    with pytest.raises(ValueError):
        verbalize_cardinal(-1, "en")


# The German reader the spelling table replaced, kept as a reference. It
# reads its own word tables, so it shares no code with ``DE_GROUPS``.
DE_UNITS = {**{key: value for _, key, value in DE_NUMBERS if value < 10}, **DE_ARTICLES}
DE_TEENS = {key: value for _, key, value in DE_NUMBERS if 10 <= value < 20}
DE_TENS = {key: value for _, key, value in DE_NUMBERS if value >= 20}


def old_de_under_hundred(text):
    if not text:
        return None
    for table in (DE_TEENS, DE_TENS, DE_UNITS):
        if text in table:
            return table[text]
    # "fuenfundvierzig": unit before "und", tens after.
    head, _, tail = text.rpartition("und")
    if head:
        unit = DE_UNITS.get(head)
        tens = DE_TENS.get(tail)
        if unit and tens is not None:
            return tens + unit
    return None


def old_de_under_thousand(text):
    if not text:
        return None
    head, found, rest = text.partition("hundert")
    if not found:
        return old_de_under_hundred(text)
    # Prefixes up to 19 cover year-style forms like "neunzehnhundert".
    hundreds = old_de_under_hundred(head or "ein")
    if hundreds is None or not 1 <= hundreds <= 19:
        return None
    if not rest:
        return hundreds * 100
    tail = old_de_under_hundred(rest.removeprefix("und"))
    return None if tail is None else hundreds * 100 + tail


def ungated_de_compound(text):
    """``lexicon.de_compound`` as the old reader read it, without its start-word gate."""
    head, found, rest = text.partition("tausend")
    if not found:
        return old_de_under_thousand(text)
    thousands = old_de_under_thousand(head or "ein")
    if not thousands:
        return None
    if not rest:
        return thousands * 1000
    tail = old_de_under_thousand(rest.removeprefix("und"))
    return None if tail is None else thousands * 1000 + tail


def test_every_german_group_reads_as_the_old_reader_reads_it():
    assert len(lexicon.DE_GROUPS) == 5_332
    for key, value in lexicon.DE_GROUPS.items():
        assert old_de_under_thousand(key) == value, key


@pytest.mark.parametrize("word,value", [
    # Forms the verbalizer never writes that the old reader read.
    ("einsundzwanzig", 21), ("einshundert", 100), ("hundertnull", 100),
    ("hundertundeins", 101), ("neunzehnhundertneunundneunzigtausend", 1_999_000),
])
def test_german_forms_the_verbalizer_never_writes(word, value):
    assert de_compound(word) == ungated_de_compound(word) == value


# German number morphemes, "und", and junk that shares their letters.
_DE_MORPHEMES = sorted({*(key for _, key, _ in DE_NUMBERS), "ein", "eine", "hundert",
                        "tausend", "und", "zig", "en", "mal", "s", "x", "fel", "sieb"})


@settings(max_examples=2000)
@given(st.lists(st.sampled_from(_DE_MORPHEMES), min_size=1, max_size=6).map("".join))
@example("hundertfuenf")
@example("tausendundeins")
@example("einhundert")
@example("einundzwanzigtausend")
@example("zehnhunderteinetausendundnull")
def test_german_start_gate_rejects_only_keys_no_branch_accepts(text):
    assert lexicon.de_compound(text) == ungated_de_compound(text)


def old_en_two_digit(word):
    """The branch-by-branch reading ``en_two_digit`` replaced, as a reference."""
    if word in EN_TWO_DIGIT:
        return EN_TWO_DIGIT[word]
    tens, _, unit = word.partition("-")
    if EN_TWO_DIGIT.get(tens, 0) in range(20, 100, 10) and EN_UNITS.get(unit, 0) > 0:
        return EN_TWO_DIGIT[tens] + EN_UNITS[unit]
    return None


_EN_PIECES = [*EN_UNITS, *EN_TWO_DIGIT, "hundred", "thousand", "oh", "x", ""]


def test_en_number_words_are_the_single_word_spellings():
    # Every join of up to three pieces with "-": "forty-zero", "-five",
    # "forty-five-six", "ten-five" and the like.
    words = {"-".join(parts) for n in (1, 2, 3) for parts in product(_EN_PIECES, repeat=n)}
    for word in words:
        old = EN_UNITS.get(word, old_en_two_digit(word))
        assert lexicon.EN_NUMBER_WORDS.get(word) == old, word
        assert lexicon.EN_GROUPS.get((word,)) == old, word
        assert is_number_word(word, "en") == (old is not None or word == "hundred"
                                              or word in EN_SCALE_WORDS), word
