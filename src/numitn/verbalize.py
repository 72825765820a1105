"""Spoken-form generation: the inverse of normalization.

Every phrase produced here parses back through the grammar, which is what
the round-trip test batteries lean on.
"""

from __future__ import annotations

import random
import re

from .extract import extract_numeric_literals
from .lexicon import (
    AND_WORDS,
    CLOCK_STYLES,
    EN_OH,
    HOUR_BEFORE_ONE,
    HOUR_NOUNS,
    MAGNITUDE_ONE,
    MAX_COUNTED_MINUTE,
    MERIDIEMS,
    MINUTE_NOUNS,
    PAIR_YEARS,
    PERIOD_PHRASES,
    POINT_WORDS,
    ClockStyle,
    digit_words,
    en_two_digit_words,
    two_digit_words,
    under_thousand_words,
    verbalize_cardinal,
)
from .locales import (
    CURRENCY_SPOKEN,
    CurrencyUnit,
    DEFAULT_CURRENCIES,
    MINOR_UNIT_SPOKEN,
    Locale,
)
from .types import (
    MINOR_UNIT_LIMIT,
    NO_SPAN,
    ExpressionType,
    MoneyAmount,
    NumericValue,
    ParsedExpression,
    PeriodHint,
    TimeOfDay,
)

def verbalize_decimal(value: NumericValue, language: str) -> str:
    """Integer part as a cardinal, fraction digits read one by one."""
    int_part, frac_part = value.digit_parts()
    words = verbalize_cardinal(int(int_part), language)
    if frac_part:
        words += f" {POINT_WORDS[language]} {digit_words(frac_part, language)}"
    return words


# --- years -------------------------------------------------------------------


# The styles of a year in ``PAIR_YEARS``; any other is said as a cardinal.
_YEAR_STYLES = {"en": ("pair", "cardinal"), "de": ("compound", "cardinal")}


def year_styles(year: int, language: str) -> tuple[str, ...]:
    return _YEAR_STYLES[language] if year in PAIR_YEARS[language] else ("cardinal",)


def verbalize_year(year: int, language: str, style: str | None = None) -> str:
    styles = year_styles(year, language)
    style = style or styles[0]
    if style not in styles:
        raise ValueError(f"style {style!r} not applicable to year {year}")
    high, low = divmod(year, 100)
    if style == "cardinal" or high == 20 and low < 10:
        # "twenty oh five" is rare; spell 2000..2009 as plain cardinals.
        return verbalize_cardinal(year, language)
    if style == "compound" or low == 0:
        # "neunzehnhundertfünf", "nineteen hundred"
        return under_thousand_words(year, language)
    oh = f" {EN_OH}" if low < 10 else ""
    return f"{en_two_digit_words(high)}{oh} {en_two_digit_words(low)}"


# --- timestamps --------------------------------------------------------------


def _face(hour: int) -> int:
    return hour % 12 or 12


# The day period said after a 12-hour-face time, by hour: none from 1 to 12.
_PERIOD_OF_HOUR = ((PeriodHint.MORNING,) + (None,) * 12 + (PeriodHint.AFTERNOON,) * 5
                   + (PeriodHint.EVENING,) * 6)


def _period_suffix(hour: int, language: str) -> str:
    """Disambiguating phrase appended to 12-hour-face styles."""
    hint = _PERIOD_OF_HOUR[hour]
    return "" if hint is None else " " + PERIOD_PHRASES[language][hint][0]


def _expresses(style: ClockStyle, minute: int, noon: bool, language: str) -> bool:
    if style.next_hour and noon and HOUR_BEFORE_ONE[language] != 12:
        # "halb eins nachmittags" parses back to 0:30: where the hour before
        # one is 0, no next-hour style survives the round trip at 12:xx.
        return False
    if style.minute is not None:
        return minute == style.minute
    if style.counted:
        return 1 <= (60 - minute if style.next_hour else minute) <= MAX_COUNTED_MINUTE
    return True


# The styles able to say each minute, at 12:xx (noon) and at other hours.
_STYLES_BY_MINUTE = {
    (language, noon): [tuple(s for s in styles if _expresses(s, minute, noon, language))
                       for minute in range(60)]
    for language, styles in CLOCK_STYLES.items() for noon in (False, True)}


def applicable_time_styles(t: TimeOfDay, locale: Locale) -> tuple[str, ...]:
    """Phrase families able to express the given 24-hour time."""
    return tuple(s.name for s in _STYLES_BY_MINUTE[locale.language, t.hour == 12][t.minute])


def _time_phrase(t: TimeOfDay, style: ClockStyle, language: str) -> str:
    """``t`` said in ``style``, without a day-period phrase."""
    h, m = t.hour, t.minute
    if style.words:
        hour = two_digit_words(_face(h + 1 if style.next_hour else h), language)
        if not style.counted:
            return f"{style.words} {hour}"
        count = 60 - m if style.next_hour else m
        # "eine Minute", as "eine Million" in _count_words.
        count_words = MAGNITUDE_ONE[language] if count == 1 else two_digit_words(count, language)
        return f"{count_words} {MINUTE_NOUNS[language][count != 1]} {style.words} {hour}"
    if language == "de":
        # German says the hour first on the 24-hour clock: "fünfzehn Uhr zehn".
        phrase = f"{two_digit_words(h, language, final=False)} {HOUR_NOUNS[language]}"
        return f"{phrase} {two_digit_words(m, language)}" if style.minute is None and m else phrase
    face = en_two_digit_words(_face(h))
    if style.minute == 0:
        return f"{face} {HOUR_NOUNS[language]}"
    # hour_minute: explicit am/pm words instead of a period phrase.
    meridiem = MERIDIEMS[language][h >= 12]
    if m == 0:
        return f"{face} {meridiem}"
    oh = f"{EN_OH} " if m < 10 else ""
    return f"{face} {oh}{en_two_digit_words(m)} {meridiem}"


def time_words(t: TimeOfDay, locale: Locale, style: str | None = None,
               rng: random.Random | None = None) -> tuple[str, str]:
    """``t`` said in a style, and the day-period phrase said after it ("" if none)."""
    styles = _STYLES_BY_MINUTE[locale.language, t.hour == 12][t.minute]
    if style is None:
        chosen = rng.choice(styles) if rng is not None else styles[0]
    else:
        chosen = next((s for s in styles if s.name == style), None)
        if chosen is None:
            raise ValueError(f"style {style!r} cannot express {t.hour}:{t.minute:02d}")
    period = _period_suffix(t.hour, locale.language) if chosen.period else ""
    return _time_phrase(t, chosen, locale.language), period


def verbalize_time(t: TimeOfDay, locale: Locale, style: str | None = None,
                   rng: random.Random | None = None) -> str:
    phrase, period = time_words(t, locale, style, rng)
    return phrase + period


def _timestamp_phrasings(language: str) -> tuple[tuple[str, TimeOfDay], ...]:
    out = []
    for hour in range(1, 13):
        for style in CLOCK_STYLES[language]:
            minute = (58 if style.next_hour else 2) if style.counted else style.minute
            if minute is None:
                continue
            t = TimeOfDay(hour - 1 or HOUR_BEFORE_ONE[language] if style.next_hour else hour,
                          minute)
            out.append((_time_phrase(t, style, language), t))
    return tuple(out)


# Built once per language; a tuple, so no caller can change what the next one reads.
_TIMESTAMP_PHRASINGS = {language: _timestamp_phrasings(language) for language in CLOCK_STYLES}


def enumerate_timestamp_phrasings(locale: Locale) -> tuple[tuple[str, TimeOfDay], ...]:
    """Every style but hour-minute, said for every hour 1..12.

    Each entry pairs the phrase with the time it parses to before period
    resolution, e.g. EN hour one: "one o'clock", "quarter past one",
    "half past one", "quarter to one", "two minutes past one",
    "two minutes to one". The counted styles count two minutes.
    """
    return _TIMESTAMP_PHRASINGS[locale.language]


# --- currency and quantities ------------------------------------------------


def _count_words(value: NumericValue, language: str,
                 magnitude_word: str | None) -> str:
    # The grammar reads a count back as one number only below a limit: "one
    # thousand five hundred million" and "twelve thousand three hundred
    # forty-five billion" read back as two. A decimal before a magnitude
    # word is read through its point ("one thousand point five million").
    limit = 1000 if magnitude_word and value.is_integer else 10**12
    if value.mantissa >= limit * 10**value.scale:
        before = f" before {magnitude_word!r}" if magnitude_word else ""
        raise ValueError(f"count {value.mantissa // 10**value.scale}{before} does not read "
                         f"back as one number: at most {limit - 1}")
    # "eine Million", never "eins Million".
    if magnitude_word and value.is_integer and value.mantissa == 1:
        return f"{MAGNITUDE_ONE[language]} {magnitude_word}"
    words = verbalize_decimal(value, language)
    return f"{words} {magnitude_word}" if magnitude_word else words


def _currency_words(money: MoneyAmount, magnitude_word: str | None, locale: Locale) -> str:
    language = locale.language
    if (money.currency, language) not in CURRENCY_SPOKEN:
        raise ValueError(f"no {language!r} words for currency {money.currency!r}")
    singular, plural = CURRENCY_SPOKEN[(money.currency, language)]
    one = money.major.is_integer and money.major.mantissa == 1 and not magnitude_word
    # "ein Euro", never "eins Euro".
    count = two_digit_words(1, language, final=False) if one else \
        _count_words(money.major, language, magnitude_word)
    out = f"{count} {singular if one else plural}"
    if money.minor is not None:
        cents = money.minor.mantissa
        if cents >= MINOR_UNIT_LIMIT:
            raise ValueError(f"{cents} minor units of {money.currency} cannot be said: "
                             f"a spoken amount has fewer than {MINOR_UNIT_LIMIT}")
        minor_unit = MINOR_UNIT_SPOKEN[language][cents != 1]
        # "ein Cent", never "eins Cent".
        cent_words = two_digit_words(cents, language, final=False)
        out += f" {AND_WORDS[language]} {cent_words} {minor_unit}"
    return out


def verbalize_value(expr: ParsedExpression, locale: Locale,
                    rng: random.Random | None = None) -> str:
    """Render a classified expression back into spoken number words."""
    language = locale.language
    expr_type, value = expr.expr_type, expr.value
    if expr_type is ExpressionType.YEAR:
        year = value.mantissa
        style = None if rng is None else rng.choice(year_styles(year, language))
        return verbalize_year(year, language, style)
    if expr_type is ExpressionType.TIMESTAMP:
        return verbalize_time(value, locale, rng=rng)
    if expr_type is ExpressionType.CURRENCY:
        return _currency_words(value, expr.magnitude_word, locale)
    out = _count_words(value, language, expr.magnitude_word)
    if expr.unit_word:
        out += f" {expr.unit_word}"
    return out


# The first character of the token after a literal, when a space comes first.
_NEXT_WORD = re.compile(r"\s+(\w)")


def verbalize_line(line: str, locale: Locale,
                   rng: random.Random | None = None,
                   currencies: dict[str, CurrencyUnit] = DEFAULT_CURRENCIES) -> str:
    """Replace every formatted literal in a line with number words."""
    literals = extract_numeric_literals(line, locale, currencies)
    if not literals:
        return line
    # Right to left, the order in which the literals draw from ``rng``.
    parts = []
    end = len(line)
    for expr_type, m in reversed(literals):
        expr = parse_literal(expr_type, m, locale, currencies)
        if (expr_type is ExpressionType.QUANTITY and locale.language == "de"
                and expr.value.is_integer and expr.value.mantissa == 1 and not expr.magnitude_word
                and (after := _NEXT_WORD.match(line, m.end())) and after[1].isupper()):
            # A capital letter starts a noun: "ein Stück", never "eins Stück".
            words = two_digit_words(1, "de", final=False)
        else:
            words = verbalize_value(expr, locale, rng=rng)
        parts += line[m.end():end], words
        end = m.start()
    parts.append(line[:end])
    parts.reverse()
    return "".join(parts)


# --- formatted-literal parsing (CLI inverse) ----------------------------------


def parse_literal(expr_type: ExpressionType, m: re.Match[str], locale: Locale,
                  currencies: dict[str, CurrencyUnit]) -> ParsedExpression:
    """Read an already-formatted literal back into an expression.

    ``expr_type`` and ``m`` are a pair ``extract_numeric_literals`` returned;
    the value is read from the match's groups.
    """
    if expr_type is ExpressionType.YEAR:
        return ParsedExpression(NO_SPAN, expr_type, NumericValue(int(m.group())))
    if expr_type is ExpressionType.TIMESTAMP:
        text = m.group()
        return ParsedExpression(NO_SPAN, expr_type, TimeOfDay(int(text[:-3]), int(text[-2:])))
    line = m.string
    # The groups of the alternative that matched, "currency" or "quantity";
    # the first digit comes just before group "<kind>_int".
    kind = m.lastgroup
    number_start = m.start(f"{kind}_int") - 1
    integer = line[number_start:m.end(f"{kind}_int")].replace(locale.thousands_separator, "")
    frac = m[f"{kind}_frac"]
    value = NumericValue(int(integer + frac), len(frac)) if frac else NumericValue(int(integer))
    magnitude = m[f"{kind}_mag"]
    if expr_type is not ExpressionType.CURRENCY:
        return ParsedExpression(NO_SPAN, expr_type, value, magnitude)

    symbol = line[m.start():number_start - len(m["currency_gap"] or "")] \
        if locale.currency_placement == "prefix" else m["currency_sym"]
    # On a symbol shared by several codes, the first in registry order.
    code, unit = next(item for item in currencies.items() if item[1].symbol == symbol)
    if magnitude or not frac:
        return ParsedExpression(NO_SPAN, expr_type, MoneyAmount(value, None, code), magnitude)
    # Split as format_currency joins: the fraction counts minor units.
    digits = unit.minor_unit_digits
    if value.scale > digits:
        raise ValueError(f"{m.group()!r} has more than {digits} fraction digits for {code}")
    major, minor = divmod(value.mantissa * 10**(digits - value.scale), 10**digits)
    return ParsedExpression(NO_SPAN, expr_type,
                            MoneyAmount(NumericValue(major), NumericValue(minor), code))
