"""Number and clock words for English and German, and the cardinal spellers.

Each word is spelled once, as the verbalizer writes it; the parse tables
are derived from those spellings. Every parse table is keyed by the folded
form ``fold_german`` gives (lowercase, ss for ß, ae/oe/ue for umlauts), so
ASR transliterations like "fuenfundvierzig" still parse. No English
spelling holds ß, an umlaut, "ss", "ae", "oe" or "ue", so there the folded
key is the lowercase word. A table both languages have, such as
``MAGNITUDE_NAMES``, ``SCALE_WORDS`` or ``DIGIT_VALUES``, is one dict keyed
by language, which callers index instead of choosing between two names.
So are the cardinal spellers: English joins a count, "hundred" or
"thousand" and the rest with spaces, German into one compound.

Cardinals are read from spelling tables built at import, one per language,
that map each spelling of a group 0..999 to its value. An English key is
the tuple of a spelling's token keys ("five hundred forty-five", also
"forty five" spaced), and the grammar reads the longest one at a token. A
German key is a folded compound fragment ("neunzehnhundertfuenf");
``de_compound`` splits a token on "tausend" and looks up both halves. A
new spelling is one more table row.

The clock tables spell each language's time styles ("quarter past",
"halb", the counted "minutes to"), its clock nouns, am/pm words and
day-period phrases. The clock parser, the verbalizer and the timestamp
sweep all read them, so a new phrasing is one table entry.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .types import PeriodHint


def fold_german(word: str) -> str:
    return (word.lower().replace("ä", "ae").replace("ö", "oe").replace("ü", "ue")
            .replace("ß", "ss"))


_ASCII_DIGIT = re.compile("[0-9]").search


def has_digit(text: str) -> bool:
    """``any(map(str.isdigit, text))``, in one regex search when ``text`` is ASCII."""
    if text.isascii():
        return _ASCII_DIGIT(text) is not None
    return any(map(str.isdigit, text))


_EN_UNIT_NAMES = ["zero", "one", "two", "three", "four", "five", "six",
                  "seven", "eight", "nine", "ten", "eleven", "twelve",
                  "thirteen", "fourteen", "fifteen", "sixteen", "seventeen",
                  "eighteen", "nineteen"]
_EN_TENS_NAMES = ["", "", "twenty", "thirty", "forty", "fifty", "sixty",
                  "seventy", "eighty", "ninety"]
_DE_UNIT_NAMES = ["null", "eins", "zwei", "drei", "vier", "fünf", "sechs",
                  "sieben", "acht", "neun", "zehn", "elf", "zwölf",
                  "dreizehn", "vierzehn", "fünfzehn", "sechzehn", "siebzehn",
                  "achtzehn", "neunzehn"]
_DE_TENS_NAMES = ["", "", "zwanzig", "dreißig", "vierzig", "fünfzig",
                  "sechzig", "siebzig", "achtzig", "neunzig"]
# The article forms of 1: "ein" also heads compounds ("einhundert"), "eine"
# counts feminine nouns ("eine Million", "eine Minute").
DE_EIN, DE_EINE = "ein", "eine"
EN_HUNDRED, EN_OH, _EN_THOUSAND = "hundred", "oh", "thousand"
# Magnitude nouns, smallest first: (value, singular, plural). English says
# "one million" and "two million" alike.
MAGNITUDE_NAMES = {
    "en": ((10**6, "million", "million"), (10**9, "billion", "billion")),
    "de": ((10**6, "Million", "Millionen"), (10**9, "Milliarde", "Milliarden")),
}
# The decimal point and the "and" before cents, spoken and as parse keys.
POINT_WORDS = {"en": "point", "de": "Komma"}
AND_WORDS = {"en": "and", "de": "und"}
POINT_KEYS = {language: fold_german(word) for language, word in POINT_WORDS.items()}
AND_KEYS = {language: fold_german(word) for language, word in AND_WORDS.items()}
# Fragments inside German compounds ("zweihundertundfünf"); each is
# lowercase ASCII and so its own folded key.
_DE_HUNDRED, DE_THOUSAND, _DE_AND = "hundert", "tausend", AND_WORDS["de"]

# Each folded magnitude form, and the scale words a cardinal group may stand
# before: English says "thousand" on its own, German inside the compound.
MAGNITUDE_WORDS = {language: {fold_german(form): value for value, *forms in names
                              for form in forms}
                   for language, names in MAGNITUDE_NAMES.items()}
SCALE_WORDS = {"en": {_EN_THOUSAND: 1000, **MAGNITUDE_WORDS["en"]}, "de": MAGNITUDE_WORDS["de"]}

# Spoken digit strings use "oh" for zero ("one oh five"); the parser reads
# "zero" as well. German reads the compound head "ein" as a digit, but not
# the article "eine".
DIGIT_NAMES = {"en": (EN_OH, *_EN_UNIT_NAMES[1:10]), "de": tuple(_DE_UNIT_NAMES[:10])}
DIGIT_VALUES = {
    "en": {name: n for n, name in enumerate(_EN_UNIT_NAMES[:10])} | {EN_OH: 0},
    "de": {fold_german(name): n for n, name in enumerate(_DE_UNIT_NAMES[:10])} | {DE_EIN: 1},
}

_DE_UNITS = {**DIGIT_VALUES["de"], DE_EINE: 1}
_DE_TEENS = {fold_german(name): n for n, name in enumerate(_DE_UNIT_NAMES) if n >= 10}
_DE_TENS = {fold_german(name): 10 * n for n, name in enumerate(_DE_TENS_NAMES) if name}
# Every folded key ``de_compound`` accepts starts with one of these: each
# key of ``DE_GROUPS`` starts with a unit, teen or tens word or with
# "hundert", and a compound may start with "tausend".
DE_NUMBER_STARTS = (*_DE_UNITS, *_DE_TEENS, *_DE_TENS, _DE_HUNDRED, DE_THOUSAND)


def en_two_digit_words(n: int) -> str:
    if n < 20:
        return _EN_UNIT_NAMES[n]
    tens, unit = divmod(n, 10)
    if unit:
        return f"{_EN_TENS_NAMES[tens]}-{_EN_UNIT_NAMES[unit]}"
    return _EN_TENS_NAMES[tens]


def de_two_digit_words(n: int, *, final: bool = True) -> str:
    """0..99 as a compound fragment; ``final`` selects "eins" over "ein"."""
    if n == 1 and not final:
        return DE_EIN
    if n < 20:
        return _DE_UNIT_NAMES[n]
    tens, unit = divmod(n, 10)
    if unit:
        return f"{de_two_digit_words(unit, final=False)}{_DE_AND}{_DE_TENS_NAMES[tens]}"
    return _DE_TENS_NAMES[tens]


def two_digit_words(n: int, language: str, *, final: bool = True) -> str:
    """0..99; a German 1 that is not ``final`` is "ein" ("ein Euro", "einhundert")."""
    if language == "de":
        return de_two_digit_words(n, final=final)
    return en_two_digit_words(n)


# A count joins "hundred" or "thousand", and that joins the rest, with a
# space in English and into one compound in German.
_JOINERS = {"en": " ", "de": ""}
_HUNDRED_WORDS = {"en": EN_HUNDRED, "de": _DE_HUNDRED}
_THOUSAND_WORDS = {"en": _EN_THOUSAND, "de": DE_THOUSAND}
# The count of a single magnitude ("one million", "eine Million").
MAGNITUDE_ONE = {"en": _EN_UNIT_NAMES[1], "de": DE_EINE}
# The years said as two pairs of digits ("nineteen forty-five") or, in
# German, as a hundreds compound ("neunzehnhundertfünfundvierzig").
PAIR_YEARS = {"en": range(1100, 2100), "de": range(1100, 2000)}


def under_thousand_words(n: int, language: str, *, final: bool = True) -> str:
    """0..999, and up to 20 before "hundred" ("nineteen hundred", "neunzehnhundertfünf")."""
    hundreds, rest = divmod(n, 100)
    if not hundreds:
        return two_digit_words(rest, language, final=final)
    joiner = _JOINERS[language]
    head = two_digit_words(hundreds, language, final=False) + joiner + _HUNDRED_WORDS[language]
    return head + joiner + two_digit_words(rest, language, final=final) if rest else head


def _under_million_words(n: int, language: str) -> str:
    thousands, rest = divmod(n, 1000)
    if not thousands:
        return under_thousand_words(rest, language)
    joiner = _JOINERS[language]
    head = under_thousand_words(thousands, language, final=False) + joiner \
        + _THOUSAND_WORDS[language]
    return head + joiner + under_thousand_words(rest, language) if rest else head


def verbalize_cardinal(n: int, language: str) -> str:
    """Spell out a non-negative integer in the given language ("en"/"de")."""
    if n < 0:
        raise ValueError("negative cardinals are not supported")
    parts = []
    for scale, singular, plural in reversed(MAGNITUDE_NAMES[language]):
        group, n = divmod(n, scale)
        if group == 1:
            parts.append(f"{MAGNITUDE_ONE[language]} {singular}")
        elif group:
            parts.append(f"{_under_million_words(group, language)} {plural}")
    if n or not parts:
        parts.append(_under_million_words(n, language))
    return " ".join(parts)


# --- spelling tables ---------------------------------------------------------

# Each table maps a spelling of a cardinal group to its value, so the parsers
# read a group by lookup and read back every spelling the verbalizer writes.
# English spellings are tuples of token keys. 0..99 is the verbalizer's word
# ("forty-five") or the same spaced ("forty five").
_EN_UNDER_HUNDRED = {(en_two_digit_words(n),): n for n in range(100)}
_EN_UNDER_HUNDRED.update({tuple(word.split("-")): n
                          for (word,), n in _EN_UNDER_HUNDRED.items() if "-" in word})
_EN_HUNDRED_TAILS = {(): 0, **{keys: n for keys, n in _EN_UNDER_HUNDRED.items() if n}}


def _en_hundreds(heads: range) -> dict[tuple[str, ...], int]:
    """"<head> hundred [tail]" for each head, as the verbalizer says hundreds."""
    prefixes = {(en_two_digit_words(head), EN_HUNDRED): 100 * head for head in heads}
    return {prefix + tail: hundreds + n for prefix, hundreds in prefixes.items()
            for tail, n in _EN_HUNDRED_TAILS.items()}


# English groups 0..999. A parser reads the longest spelling at a token,
# which is at most four keys ("five hundred forty five").
EN_GROUPS = {**_EN_UNDER_HUNDRED, **_en_hundreds(range(1, 10))}
# "nineteen hundred [forty-five]": the hundreds heads 11..20 that years and
# amounts are said in.
EN_PAIR_HUNDREDS = _en_hundreds(range(11, 21))
# Two digits said as one number, as the second half of a year pair or a
# minute: 10..99 or "oh" and a digit ("nineteen oh five").
EN_DIGIT_PAIRS = {**{keys: n for keys, n in _EN_UNDER_HUNDRED.items() if n >= 10},
                  **{(EN_OH, en_two_digit_words(n)): n for n in range(1, 10)}}
# The single tokens naming 0..99, with their values; every English spelling
# starts with one.
EN_NUMBER_WORDS = {keys[0]: n for keys, n in _EN_UNDER_HUNDRED.items() if len(keys) == 1}

_DE_UNDER_HUNDRED = {**_DE_UNITS, **_DE_TEENS, **_DE_TENS,
                     **{unit + _DE_AND + tens: u + t for unit, u in _DE_UNITS.items() if u
                        for tens, t in _DE_TENS.items()}}
_DE_HUNDREDS = {head + _DE_HUNDRED: 100 * h
                for head, h in {"": 1, **_DE_UNDER_HUNDRED}.items() if 1 <= h <= 19}
_DE_HUNDRED_TAILS = {"": 0, **{and_word + key: n for key, n in _DE_UNDER_HUNDRED.items()
                               for and_word in ("", _DE_AND)}}
# German groups as folded compound fragments: 0..99 ("fuenfundvierzig"), and
# "<head>hundert[und]<tail>" whose head is 1..19 or left out
# ("neunzehnhundertfuenf", "hundertundeins").
DE_GROUPS = {**_DE_UNDER_HUNDRED,
             **{head + tail: hundreds + n for head, hundreds in _DE_HUNDREDS.items()
                for tail, n in _DE_HUNDRED_TAILS.items()}}


def de_compound(text: str) -> int | None:
    """Value of one folded German compound numeral ("zweitausendfuenf").

    The part before "tausend" (one if empty) and the part after it, less a
    leading "und", are each a key of ``DE_GROUPS``.
    """
    if not text.startswith(DE_NUMBER_STARTS):
        return None
    head, found, rest = text.partition(DE_THOUSAND)
    if not found:
        return DE_GROUPS.get(text)
    thousands = DE_GROUPS.get(head or DE_EIN)
    if not thousands:
        return None
    if not rest:
        return thousands * 1000
    tail = DE_GROUPS.get(rest.removeprefix(_DE_AND))
    return None if tail is None else thousands * 1000 + tail


def is_number_word(key: str, language: str) -> bool:
    """Whether a folded key is a number, scale or magnitude word."""
    if language == "de":
        return key in SCALE_WORDS["de"] or de_compound(key) is not None
    return key in EN_NUMBER_WORDS or key in SCALE_WORDS["en"] or key == EN_HUNDRED


def digit_words(digits: str, language: str) -> str:
    """Read out decimal digits individually ("15" -> "one five")."""
    return " ".join(DIGIT_NAMES[language][int(d)] for d in digits)


# --- clock words -------------------------------------------------------------

# Counted styles ("five minutes past seven") stop short of the half hour.
MAX_COUNTED_MINUTE = 29


class ClockStyle(namedtuple("ClockStyle", "name words minute next_hour period",
                            defaults=("", None, False, True))):
    """One way to say a time of day; ``words`` come before the hour, if any.

    ``minute`` is None for a counted style ("five minutes past") and for
    hour-minute. A ``next_hour`` style names the coming hour ("quarter to
    eight" is 7:45). The verbalizer ends a ``period`` style with a
    day-period phrase; the others say am/pm or use the 24-hour clock.
    """

    __slots__ = ()

    @property
    def counted(self) -> bool:
        return self.minute is None and bool(self.words)


# Each language's time styles, in the order the verbalizer offers them.
CLOCK_STYLES = {
    "en": (ClockStyle("oclock", minute=0),
           ClockStyle("quarter_past", "quarter past", 15),
           ClockStyle("half_past", "half past", 30),
           ClockStyle("quarter_to", "quarter to", 45, next_hour=True),
           ClockStyle("minutes_past", "past"),
           ClockStyle("minutes_to", "to", next_hour=True),
           ClockStyle("hour_minute", period=False)),
    "de": (ClockStyle("uhr", minute=0, period=False),
           ClockStyle("viertel_nach", "viertel nach", 15),
           ClockStyle("halb", "halb", 30, next_hour=True),
           ClockStyle("viertel_vor", "viertel vor", 45, next_hour=True),
           ClockStyle("minuten_nach", "nach"),
           ClockStyle("minuten_vor", "vor", next_hour=True),
           ClockStyle("uhr_minute", period=False)),
}
HOUR_NOUNS = {"en": "o'clock", "de": "Uhr"}
MINUTE_NOUNS = {"en": ("minute", "minutes"), "de": ("Minute", "Minuten")}
MERIDIEMS = {"en": ("am", "pm"), "de": ()}
# Day-period phrases by hint; the verbalizer writes the first.
PERIOD_PHRASES = {
    "en": {PeriodHint.MORNING: ("in the morning",),
           PeriodHint.AFTERNOON: ("in the afternoon",),
           PeriodHint.EVENING: ("in the evening",),
           PeriodHint.NIGHT: ("at night",)},
    "de": {PeriodHint.MORNING: ("morgens", "vormittags"),
           PeriodHint.AFTERNOON: ("nachmittags", "mittags"),
           PeriodHint.EVENING: ("abends",),
           PeriodHint.NIGHT: ("nachts",)},
}
# The hour before one on the face a next-hour style names: "quarter to
# one" is 12:45, "halb eins" is 0:30.
HOUR_BEFORE_ONE = {"en": 12, "de": 0}


def phrase_keys(phrase: str) -> tuple[str, ...]:
    return tuple(fold_german(word) for word in phrase.split())


# --- context cues ------------------------------------------------------------

# Words immediately left of a cardinal that make it a calendar year.
YEAR_CUES = {
    "en": {"in", "since", "year", "by", "from", "until"},
    "de": {"seit", "jahr", "bis"},
}

_FUNCTION_WORDS = {
    "en": {"a", "an", "and", "are", "as", "at", "be", "been", "but", "by",
           "for", "from", "if", "in", "is", "it", "of", "oh", "on", "or",
           "per", "point", "so", "than", "that", "the", "then", "this",
           "until", "was", "were", "when", "while", "with"},
    "de": {"aber", "als", "am", "an", "auf", "bei", "bis", "das", "dem",
           "den", "der", "des", "die", "doch", "eine", "einem", "einen",
           "einer", "fuer", "im", "in", "ist", "komma", "mit", "oder", "pro",
           "seit", "sind", "so", "um", "und", "von", "war", "waren", "wenn",
           "zu"},
}
# Function words and the words of clock phrases ("quarter past", "Uhr")
# cannot serve as a quantity unit.
UNIT_STOPWORDS = {
    language: words | {key for phrase in (HOUR_NOUNS[language], *MINUTE_NOUNS[language],
                                          *(style.words for style in CLOCK_STYLES[language]))
                       for key in phrase_keys(phrase)}
    for language, words in _FUNCTION_WORDS.items()}
