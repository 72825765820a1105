"""Pins of what a spoken number becomes in context: year, clock time, amount or count.

One number phrase can be read several ways ("nineteen forty-five" is 1945,
19:45 or, before "dollars", $1,945), and the words around it decide. The
grid below puts every number phrase between a left cue and a right follower
in both locales and hashes what ``normalize_text`` writes, so moving the
decision from one place to another must keep every output. The explicit
cases name the decision each one exercises. The grid spells its phrases
here, independently of the library's tables.
"""

import hashlib

import pytest

from numitn.locales import DEFAULT_CONFIG
from numitn.pipeline import normalize_text

LOCALES = {"en": DEFAULT_CONFIG.locale("en"), "de": DEFAULT_CONFIG.locale("de")}

LEFT_CUES = ("", "in", "at", "since", "from", "by", "um", "seit", "im Jahr")
RIGHT_FOLLOWERS = ("", "am", "pm", "in the evening", "abends", "Uhr", "dollars", "Euro",
                   "minutes", "people", "Leute")
NUMBER_PHRASES = {
    "en": (
        # year pairs
        "nineteen forty-five", "nineteen forty five", "twenty twenty", "twenty twenty-five",
        "eleven eleven", "eighteen fifty",
        # hundreds forms
        "nineteen hundred", "nineteen hundred forty-five", "eleven hundred",
        "twenty-five hundred", "two hundred five",
        # hour-minute forms
        "seven thirty", "nine forty-five", "twelve fifteen", "twenty-three fifty-nine",
        "7 thirty", "zero thirty",
        # "oh" forms
        "nine oh five", "nineteen oh five", "twelve oh one", "one oh one",
        # counted "M past/to H" forms
        "five past seven", "five to ten", "twenty-five minutes to eight",
        "one minute past one", "thirty to five", "forty past two", "five to 10",
        # idioms and hours
        "quarter past seven", "half past twelve", "seven o'clock", "seven",
        # magnitude forms
        "five million", "five million past seven", "two thousand", "two thousand nineteen",
        "nine point one million",
        # decimals
        "nine point one", "one point oh five", "nineteen point four five",
    ),
    "de": (
        # year pairs and hundreds forms
        "neunzehnhundertfünfundvierzig", "neunzehnhundertfünf", "elfhundert",
        "zweitausendfünf", "eintausendneunhundertfünfundvierzig", "neunzehn fünfundvierzig",
        # hour-minute forms
        "sieben Uhr dreißig", "neunzehn Uhr fünfundvierzig", "neunzehn", "15.45",
        # counted and idiom forms
        "fünf nach sieben", "zehn vor acht", "zwanzig Minuten nach drei",
        "viertel nach sieben", "halb acht", "dreißig nach zwei",
        # magnitude forms
        "fünf Millionen", "fünf Millionen nach sieben", "zweitausend",
        # decimals
        "neun Komma eins", "neun Komma eins Millionen", "eins Komma null fünf",
    ),
}


def _grid():
    for language, locale in LOCALES.items():
        for phrase in NUMBER_PHRASES[language]:
            for cue in LEFT_CUES:
                for follower in RIGHT_FOLLOWERS:
                    line = " ".join(part for part in (cue, phrase, follower) if part)
                    yield f"{language}\t{line}\t{normalize_text(line, locale)}"


def test_cue_grid_pin():
    lines = list(_grid())
    assert len(lines) == (len(LEFT_CUES) * len(RIGHT_FOLLOWERS)
                          * sum(map(len, NUMBER_PHRASES.values())))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == "dfc1f27e1d4fb74c88244b508c71e3dcf024d01dcf769de436a23ccddf8cc3a5"


@pytest.mark.parametrize("language,text,expected", [
    # The longest reading wins: a counted clock form over its minute count,
    # a currency amount over the year pair it starts with.
    ("en", "from five to ten people", "from 9:55 people"),
    ("en", "nineteen forty-five dollars", "$1,945"),
    ("en", "twelve oh five am", "0:05"),
    # A bare hour-minute reading needs am/pm or a period phrase after it.
    ("en", "nineteen forty-five", "1945"),
    ("en", "nine thirty", "9 30"),
    ("en", "at nine thirty", "at 9 30"),
    ("en", "nine thirty pm", "21:30"),
    ("en", "at nine thirty in the morning", "at 9:30 in the morning"),
    # On a tie, a clock reading beats the year pair.
    ("en", "nineteen forty-five in the evening", "19:45 in the evening"),
    ("en", "nineteen oh five in the morning", "19:05 in the morning"),
    # A magnitude cardinal is no minute count.
    ("en", "five million past seven", "5 million past 7"),
    ("de", "fünf Millionen nach sieben", "5 Millionen nach 7"),
    # A year pair is a year without a cue; a plain cardinal needs one.
    ("en", "twenty twenty", "2020"),
    ("de", "neunzehnhundertfünfundvierzig", "1945"),
    ("de", "elfhundert", "1.100"),
    ("de", "im Jahr elfhundert", "im Jahr 1100"),
    ("en", "nineteen hundred forty-five", "1,945"),
    ("en", "in nineteen hundred forty-five", "in 1945"),
    ("en", "two thousand nineteen", "2,019"),
    ("en", "in two thousand nineteen", "in 2019"),
    ("de", "seit zweitausendfünf", "seit 2005"),
    # Only an integer in the year range without a magnitude word.
    ("en", "in nine point five", "in 9.5"),
    ("en", "since two million", "since 2 million"),
    ("en", "in nine hundred", "in 900"),
    ("en", "eleven hundred", "1,100"),
    ("en", "in eleven hundred", "in 1100"),
    # A cardinal that no rule makes a year is a count, with its unit word.
    ("en", "two thousand people", "2,000 people"),
    ("de", "zweitausend Leute", "2.000 Leute"),
])
def test_choice(language, text, expected):
    assert normalize_text(text, LOCALES[language]) == expected
