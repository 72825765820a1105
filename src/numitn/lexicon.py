"""Number-word tables for English and German plus cardinal verbalization.

German matching is done on a folded form (lowercase, ss for ß, ae/oe/ue
for umlauts) so ASR transliterations like "fuenfundvierzig" still parse.
"""

from __future__ import annotations

from typing import Optional

_EN_UNITS = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4,
    "five": 5, "six": 6, "seven": 7, "eight": 8, "nine": 9,
}

_EN_TEENS = {
    "ten": 10, "eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
    "fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18,
    "nineteen": 19,
}

_EN_TENS = {
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50,
    "sixty": 60, "seventy": 70, "eighty": 80, "ninety": 90,
}

_EN_SCALES = {"thousand": 1_000, "million": 1_000_000, "billion": 1_000_000_000}
EN_MAGNITUDE_WORDS = ("million", "billion")

_DE_UNITS = {
    "null": 0, "ein": 1, "eins": 1, "eine": 1, "zwei": 2, "drei": 3,
    "vier": 4, "fuenf": 5, "sechs": 6, "sieben": 7, "acht": 8, "neun": 9,
}

_DE_TEENS = {
    "zehn": 10, "elf": 11, "zwoelf": 12, "dreizehn": 13, "vierzehn": 14,
    "fuenfzehn": 15, "sechzehn": 16, "siebzehn": 17, "achtzehn": 18,
    "neunzehn": 19,
}

_DE_TENS = {
    "zwanzig": 20, "dreissig": 30, "vierzig": 40, "fuenfzig": 50,
    "sechzig": 60, "siebzig": 70, "achtzig": 80, "neunzig": 90,
}

# Separate-token magnitude nouns; "tausend"/"hundert" live inside compounds.
DE_MAGNITUDE_WORDS = {"million": 1_000_000, "millionen": 1_000_000,
                      "milliarde": 1_000_000_000, "milliarden": 1_000_000_000}

_FOLD_TABLE = str.maketrans({"ä": "ae", "ö": "oe", "ü": "ue", "ß": "ss"})


def fold_german(word: str) -> str:
    return word.lower().translate(_FOLD_TABLE)


def en_unit(word: str) -> Optional[int]:
    return _EN_UNITS.get(word)


def en_two_digit(word: str) -> Optional[int]:
    """Value of a single token naming 10..99 ("fifteen", "forty", "forty-five")."""
    if word in _EN_TEENS:
        return _EN_TEENS[word]
    if word in _EN_TENS:
        return _EN_TENS[word]
    if "-" in word:
        tens, _, unit = word.partition("-")
        if tens in _EN_TENS and unit in _EN_UNITS and _EN_UNITS[unit] > 0:
            return _EN_TENS[tens] + _EN_UNITS[unit]
    return None


def en_tens(word: str) -> Optional[int]:
    return _EN_TENS.get(word)


def en_scale(word: str) -> Optional[int]:
    return _EN_SCALES.get(word)


def is_en_number_word(word: str) -> bool:
    return (
        word in _EN_UNITS
        or word in _EN_SCALES
        or word == "hundred"
        or en_two_digit(word) is not None
    )


def _de_under_hundred(text: str) -> Optional[int]:
    if not text:
        return None
    if text in _DE_TEENS:
        return _DE_TEENS[text]
    if text in _DE_TENS:
        return _DE_TENS[text]
    if text in _DE_UNITS:
        return _DE_UNITS[text]
    # "fuenfundvierzig": unit before "und", tens after.
    cut = text.rfind("und")
    if cut > 0:
        unit = _DE_UNITS.get(text[:cut])
        tens = _DE_TENS.get(text[cut + 3 :])
        if unit and tens is not None:
            return tens + unit
    return None


def _de_under_thousand(text: str) -> Optional[int]:
    if not text:
        return None
    cut = text.find("hundert")
    if cut < 0:
        return _de_under_hundred(text)
    head = text[:cut] or "ein"
    # Prefixes up to 19 cover year-style forms like "neunzehnhundert".
    hundreds = _de_under_hundred(head)
    if hundreds is None or not 1 <= hundreds <= 19:
        return None
    rest = text[cut + 7 :]
    if not rest:
        return hundreds * 100
    if rest.startswith("und"):
        rest = rest[3:]
    tail = _de_under_hundred(rest)
    if tail is None:
        return None
    return hundreds * 100 + tail


def parse_de_compound(word: str) -> Optional[int]:
    """Parse one German compound numeral token ("zweitausendfünf")."""
    return _parse_de_folded(fold_german(word))


def _parse_de_folded(text: str) -> Optional[int]:
    """``parse_de_compound`` for a token already folded ("zweitausendfuenf")."""
    cut = text.find("tausend")
    if cut < 0:
        return _de_under_thousand(text)
    head = text[:cut] or "ein"
    thousands = _de_under_thousand(head)
    if thousands is None or thousands == 0:
        return None
    rest = text[cut + 7 :]
    if not rest:
        return thousands * 1000
    if rest.startswith("und"):
        rest = rest[3:]
    tail = _de_under_thousand(rest)
    if tail is None:
        return None
    return thousands * 1000 + tail


def is_de_number_word(word: str) -> bool:
    return _is_de_number_folded(fold_german(word))


def _is_de_number_folded(text: str) -> bool:
    """``is_de_number_word`` for a token already folded."""
    return text in DE_MAGNITUDE_WORDS or _parse_de_folded(text) is not None


_EN_UNIT_NAMES = ["zero", "one", "two", "three", "four", "five", "six",
                  "seven", "eight", "nine", "ten", "eleven", "twelve",
                  "thirteen", "fourteen", "fifteen", "sixteen", "seventeen",
                  "eighteen", "nineteen"]
_EN_TENS_NAMES = ["", "", "twenty", "thirty", "forty", "fifty", "sixty",
                  "seventy", "eighty", "ninety"]


def en_two_digit_words(n: int) -> str:
    if n < 20:
        return _EN_UNIT_NAMES[n]
    tens, unit = divmod(n, 10)
    if unit:
        return f"{_EN_TENS_NAMES[tens]}-{_EN_UNIT_NAMES[unit]}"
    return _EN_TENS_NAMES[tens]


def _en_under_thousand(n: int) -> str:
    parts = []
    hundreds, rest = divmod(n, 100)
    if hundreds:
        parts.append(f"{_EN_UNIT_NAMES[hundreds]} hundred")
    if rest or not parts:
        parts.append(en_two_digit_words(rest))
    return " ".join(parts)


def _verbalize_en(n: int) -> str:
    if n == 0:
        return "zero"
    parts = []
    for scale, name in ((10**9, "billion"), (10**6, "million"), (1000, "thousand")):
        group, n = divmod(n, scale)
        if group:
            parts.append(f"{_en_under_thousand(group)} {name}")
    if n:
        parts.append(_en_under_thousand(n))
    return " ".join(parts)


_DE_UNIT_NAMES = ["null", "eins", "zwei", "drei", "vier", "fünf", "sechs",
                  "sieben", "acht", "neun", "zehn", "elf", "zwölf",
                  "dreizehn", "vierzehn", "fünfzehn", "sechzehn", "siebzehn",
                  "achtzehn", "neunzehn"]
_DE_TENS_NAMES = ["", "", "zwanzig", "dreißig", "vierzig", "fünfzig",
                  "sechzig", "siebzig", "achtzig", "neunzig"]


def de_two_digit_words(n: int, *, final: bool = True) -> str:
    """0..99 as a compound fragment; ``final`` selects "eins" over "ein"."""
    if n == 1:
        return "eins" if final else "ein"
    if n < 20:
        return _DE_UNIT_NAMES[n]
    tens, unit = divmod(n, 10)
    if unit:
        prefix = "ein" if unit == 1 else _DE_UNIT_NAMES[unit]
        return f"{prefix}und{_DE_TENS_NAMES[tens]}"
    return _DE_TENS_NAMES[tens]


def de_under_thousand_words(n: int, *, final: bool = True) -> str:
    hundreds, rest = divmod(n, 100)
    if not hundreds:
        return de_two_digit_words(rest, final=final)
    prefix = "ein" if hundreds == 1 else _DE_UNIT_NAMES[hundreds]
    if rest:
        return f"{prefix}hundert{de_two_digit_words(rest, final=final)}"
    return f"{prefix}hundert"


def _de_compound(n: int) -> str:
    """1..999999 as one compound token."""
    thousands, rest = divmod(n, 1000)
    if not thousands:
        return de_under_thousand_words(rest)
    head = "ein" if thousands == 1 else de_under_thousand_words(thousands, final=False)
    if rest:
        return f"{head}tausend{de_under_thousand_words(rest)}"
    return f"{head}tausend"


def _verbalize_de(n: int) -> str:
    if n == 0:
        return "null"
    parts = []
    for scale, singular, plural in ((10**9, "Milliarde", "Milliarden"),
                                    (10**6, "Million", "Millionen")):
        group, n = divmod(n, scale)
        if group == 1:
            parts.append(f"eine {singular}")
        elif group:
            parts.append(f"{_de_compound(group)} {plural}")
    if n:
        parts.append(_de_compound(n))
    return " ".join(parts)


def verbalize_cardinal(n: int, language: str) -> str:
    """Spell out a non-negative integer in the given language ("en"/"de")."""
    if n < 0:
        raise ValueError("negative cardinals are not supported")
    if language == "de":
        return _verbalize_de(n)
    return _verbalize_en(n)


# Spoken digit strings use "oh" for zero ("one oh five"); the parser
# accepts "zero" as well.
_EN_DIGIT_NAMES = ["oh"] + _EN_UNIT_NAMES[1:10]
_DE_DIGIT_NAMES = _DE_UNIT_NAMES[:10]


def digit_words(digits: str, language: str) -> str:
    """Read out decimal digits individually ("15" -> "one five")."""
    names = _DE_DIGIT_NAMES if language == "de" else _EN_DIGIT_NAMES
    return " ".join(names[int(d)] for d in digits)


def digit_word_value(word: str, language: str) -> Optional[int]:
    return _digit_value_folded(fold_german(word) if language == "de" else word, language)


def _digit_value_folded(text: str, language: str) -> Optional[int]:
    """``digit_word_value`` for a token already folded.

    English digit names hold no ae/oe/ue/ss, so there the folded key finds
    what the lowercase word finds.
    """
    if language == "de":
        return None if text == "eine" else _DE_UNITS.get(text)
    if text == "oh":
        return 0
    return _EN_UNITS.get(text)
