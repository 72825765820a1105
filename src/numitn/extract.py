"""Finding already-formatted numeric literals in plain text."""

from __future__ import annotations

import re
from functools import lru_cache

from .formatting import YEAR_MAX, YEAR_MIN
from .lexicon import MAGNITUDE_NAMES
from .locales import DEFAULT_CURRENCIES, CurrencyUnit, Locale
from .types import ExpressionType

_YEAR_GUESS_RE = re.compile(r"^[12]\d{3}$")
# Every literal pattern needs a digit of this class, so a line without one
# holds no literal.
_DIGIT_RE = re.compile(r"\d")

# A locale's pattern names each top-level alternative after its type.
_ALTERNATIVE_TYPES = {t.value: t for t in ExpressionType}


# "\b" before a digit, written after that first digit: the lookbehind fails
# exactly when a word character comes before it (every "\d" is a "\w"). A
# pattern that starts with a character class, not "\b", lets the regex
# engine skip ahead to a digit in C instead of trying every position.
_WORD_START = r"(?<!\w\d)"
# The rest of a clock time after its first digit: an hour of 0-23 then ":MM".
_CLOCK = r"(?:(?<=[01])\d|(?<=2)[0-3])?:[0-5]\d\b"


def _number_pattern(kind: str, language: str, separator: str, decimal_mark: str) -> str:
    """The rest of a grouped or plain number after its first digit, and a magnitude word.

    Group ``<kind>_int`` holds the integer part after the first digit, so it
    also marks where the number starts, ``<kind>_frac`` the fraction digits
    and ``<kind>_mag`` the magnitude word.
    """
    sep = re.escape(separator)
    mark = re.escape(decimal_mark)
    # Each magnitude form once, in table order before the stable sort.
    words = dict.fromkeys(form for _, *forms in MAGNITUDE_NAMES[language] for form in forms)
    # Longest first, so "Millionen" is tried before "Million".
    alternation = "|".join(re.escape(w) for w in sorted(words, key=len, reverse=True))
    return (rf"(?P<{kind}_int>\d{{0,2}}(?:{sep}\d{{3}})+|\d*)(?:{mark}(?P<{kind}_frac>\d+))?"
            rf"(?:\s(?i:(?P<{kind}_mag>{alternation})))?")


@lru_cache(maxsize=64)
def _build_pattern(language: str, separator: str, decimal_mark: str, placement: str,
                   symbols: tuple[str, ...]) -> re.Pattern[str]:
    """The one pattern of every literal for a locale's conventions and currency ``symbols``.

    Keyed on strings, so a key holds exactly what the pattern is built
    from (the currency dict itself cannot be hashed). Its top-level
    alternatives, named after their types, are currency, timestamp and
    quantity, in that order; each has its own groups and backtracks as it
    would alone.
    """
    money = _number_pattern("currency", language, separator, decimal_mark)
    count = _number_pattern("quantity", language, separator, decimal_mark)
    # Longest escaped symbol first; a currency without a symbol is left out.
    ordered = sorted(filter(None, symbols), key=lambda s: len(re.escape(s)), reverse=True)
    # The first element is one character class, a digit or a prefix
    # symbol's first character, so the engine skips ahead to it in C.
    head, digit = r"\d" + _WORD_START, ""
    alternatives = []
    if ordered and placement == "prefix":
        head = "[\\d" + "".join(dict.fromkeys(re.escape(s[0]) for s in ordered)) + "]"
        # An alternation, not a character class, so "US$" matches whole and
        # its letters do not match on their own: a lookbehind checks the
        # first character, the rest follows. "$5" or "$ 5": before one
        # whitespace character (group ``currency_gap``) the symbol must start
        # a word, which a second lookbehind checks, so "FOR 5" holds no
        # symbol "R". The symbol ends where the gap or the first digit
        # starts. Time and quantity check that the class matched a digit.
        parts = [(re.escape(s[0]), re.escape(s[1:])) for s in ordered]
        glued = "|".join(rf"(?<={first}){rest}" for first, rest in parts)
        spaced = "|".join(rf"(?<={first})(?<!\w{first}){rest}" for first, rest in parts)
        alternatives.append(rf"(?P<currency>(?:{glued}|(?:{spaced})(?P<currency_gap>\s))"
                            rf"\d{money}\b)")
        digit = r"(?<=\d)" + _WORD_START
    elif ordered:
        symbol = "|".join(re.escape(s) for s in ordered)
        # "5€" or "5 €": after one whitespace character the symbol must end
        # a word, so "5 Millionen" holds no symbol "Mi".
        alternatives.append(rf"(?P<currency>{money}(?P<currency_gap>\s)?"
                            rf"(?P<currency_sym>{symbol})(?(currency_gap)(?!\w)))")
    alternatives.append(rf"(?P<timestamp>{digit}{_CLOCK})")
    alternatives.append(rf"(?P<quantity>{digit}{count}\b)")
    return re.compile(f"{head}(?:{'|'.join(alternatives)})")


def _locale_pattern(locale: Locale, currencies: dict[str, CurrencyUnit]) -> re.Pattern[str]:
    return _build_pattern(locale.language, locale.thousands_separator, locale.decimal_mark,
                          locale.currency_placement,
                          tuple([u.symbol for u in currencies.values()]))


def extract_numeric_literals(text: str, locale: Locale,
                             currencies: dict[str, CurrencyUnit] = DEFAULT_CURRENCIES
                             ) -> list[tuple[ExpressionType, re.Match[str]]]:
    """(type, match) of every formatted literal, left to right, non-overlapping.

    One ``finditer`` of the locale's pattern: each literal is looked for
    from where the one before it ended, at the leftmost position where one
    matches, currency before time before quantity. A match's type is the
    name of the alternative that matched (``lastgroup``); a quantity of
    four digits in the year range is guessed a year. Its other named groups
    are the parts of the literal: ``<type>_int`` and ``<type>_frac`` of the
    number, ``<type>_mag`` the magnitude word, ``currency_sym`` a suffix
    currency symbol and ``currency_gap`` the whitespace after or before the symbol.
    """
    if not _DIGIT_RE.search(text):
        return []
    kept: list[tuple[ExpressionType, re.Match[str]]] = []
    for m in _locale_pattern(locale, currencies).finditer(text):
        expr_type = _ALTERNATIVE_TYPES[m.lastgroup]
        if expr_type is ExpressionType.QUANTITY and _YEAR_GUESS_RE.match(surface := m.group()) \
                and YEAR_MIN <= int(surface) <= YEAR_MAX:
            expr_type = ExpressionType.YEAR
        kept.append((expr_type, m))
    return kept


def literal_present(hypothesis: str, surface: str) -> bool:
    """Whether ``surface`` stands whole in ``hypothesis``.

    A match fails when a neighbour continues it: a letter or digit, or a
    ``.``, ``,`` or ``:`` with a digit on its far side, so "1,000" is not
    in "$1,000,000" nor "5" in "5.5". Sentence punctuation after the
    literal still ends it, as in "in 1945." and "In 1945, the war".
    """
    at = hypothesis.find(surface)
    while at != -1:
        end = at + len(surface)
        if not (_continues(hypothesis, at - 1, -1) or _continues(hypothesis, end, 1)):
            return True
        at = hypothesis.find(surface, at + 1)
    return False


def _continues(text: str, i: int, step: int) -> bool:
    """Whether ``text[i]``, beside a match, joins it to a longer word or number."""
    if not 0 <= i < len(text):
        return False
    if text[i].isalnum():
        return True
    far = i + step
    return text[i] in ".,:" and 0 <= far < len(text) and text[far].isdigit()
