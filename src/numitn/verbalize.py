"""Spoken-form generation: the inverse of normalization.

Every phrase produced here parses back through the grammar, which is what
the round-trip test batteries lean on.
"""

from __future__ import annotations

import random
import re
from typing import Optional

from .extract import extract_numeric_literals
from .grammar import _wrap_back
from .lexicon import (
    AND_WORDS,
    DE_EINE,
    EN_HUNDRED,
    EN_OH,
    POINT_WORDS,
    de_two_digit_words,
    de_under_thousand_words,
    digit_words,
    en_two_digit_words,
    verbalize_cardinal,
)
from .locales import (
    CURRENCY_SPOKEN,
    CurrencyUnit,
    DEFAULT_CURRENCIES,
    Locale,
)
from .types import (
    ExpressionType,
    MoneyAmount,
    NumericValue,
    ParsedExpression,
    PeriodHint,
    QuantityAmount,
    Span,
    TimeOfDay,
)

_EN_PERIOD_PHRASE = {"morning": "in the morning", "afternoon": "in the afternoon",
                     "evening": "in the evening"}
_DE_PERIOD_PHRASE = {"morning": "morgens", "afternoon": "nachmittags",
                     "evening": "abends"}

EN_TIME_STYLES = ("oclock", "quarter_past", "half_past", "quarter_to",
                  "minutes_past", "minutes_to", "hour_minute")
DE_TIME_STYLES = ("uhr", "viertel_nach", "halb", "viertel_vor",
                  "minuten_nach", "minuten_vor", "uhr_minute")


def verbalize_decimal(value: NumericValue, language: str) -> str:
    """Integer part as a cardinal, fraction digits read one by one."""
    int_part, frac_part = value.digit_parts()
    words = verbalize_cardinal(int(int_part), language)
    if frac_part:
        words += f" {POINT_WORDS[language]} {digit_words(frac_part, language)}"
    return words


# --- years -------------------------------------------------------------------


def year_styles(year: int, language: str) -> tuple[str, ...]:
    if language == "de":
        return ("compound", "cardinal") if 1100 <= year <= 1999 else ("cardinal",)
    return ("pair", "cardinal") if 1100 <= year <= 2099 else ("cardinal",)


def verbalize_year(year: int, language: str, style: Optional[str] = None) -> str:
    styles = year_styles(year, language)
    style = style or styles[0]
    if style not in styles:
        raise ValueError(f"style {style!r} not applicable to year {year}")
    if style == "cardinal":
        return verbalize_cardinal(year, language)
    if language == "de":
        return de_under_thousand_words(year)
    high, low = divmod(year, 100)
    if high == 20 and low < 10:
        # "twenty oh five" is rare; spell 2000..2009 as plain cardinals.
        return verbalize_cardinal(year, "en")
    head = en_two_digit_words(high)
    if low == 0:
        return f"{head} {EN_HUNDRED}"
    if low < 10:
        return f"{head} {EN_OH} {en_two_digit_words(low)}"
    return f"{head} {en_two_digit_words(low)}"


# --- timestamps --------------------------------------------------------------


def _face(hour: int) -> int:
    face = hour % 12
    return face if face else 12


def _en_hour(face: int) -> str:
    return en_two_digit_words(face)


def _de_hour(face: int) -> str:
    # Standalone hour after an idiom word, so 1 is "eins" not "ein".
    return de_two_digit_words(face)


def _period_suffix(hour: int, language: str) -> str:
    """Disambiguating phrase appended to 12-hour-face styles."""
    table = _DE_PERIOD_PHRASE if language == "de" else _EN_PERIOD_PHRASE
    if hour == 0:
        return " " + table["morning"]
    if 13 <= hour <= 17:
        return " " + table["afternoon"]
    if hour >= 18:
        return " " + table["evening"]
    return ""


def applicable_time_styles(t: TimeOfDay, locale: Locale) -> tuple[str, ...]:
    """Phrase families able to express the given 24-hour time."""
    h, m = t.hour, t.minute
    out: list[str] = []
    if locale.language == "de":
        if m == 0:
            out.append("uhr")
        if m == 15:
            out.append("viertel_nach")
        # "halb eins nachmittags" parses back to 0:30; 12:xx has no
        # German next-hour idiom that survives the round trip.
        if m == 30 and h != 12:
            out.append("halb")
        if m == 45 and h != 12:
            out.append("viertel_vor")
        if 1 <= m <= 29:
            out.append("minuten_nach")
        if 31 <= m <= 59 and h != 12:
            out.append("minuten_vor")
        out.append("uhr_minute")
    else:
        if m == 0:
            out.append("oclock")
        if m == 15:
            out.append("quarter_past")
        if m == 30:
            out.append("half_past")
        if m == 45:
            out.append("quarter_to")
        if 1 <= m <= 29:
            out.append("minutes_past")
        if 31 <= m <= 59:
            out.append("minutes_to")
        out.append("hour_minute")
    return tuple(out)


def _verbalize_time_en(t: TimeOfDay, style: str) -> str:
    h, m = t.hour, t.minute
    suffix = _period_suffix(h, "en")
    face = _en_hour(_face(h))
    next_face = _en_hour(_face(h + 1))
    if style == "oclock":
        return f"{face} o'clock{suffix}"
    if style == "quarter_past":
        return f"quarter past {face}{suffix}"
    if style == "half_past":
        return f"half past {face}{suffix}"
    if style == "quarter_to":
        return f"quarter to {next_face}{suffix}"
    if style == "minutes_past":
        noun = "minute" if m == 1 else "minutes"
        return f"{en_two_digit_words(m)} {noun} past {face}{suffix}"
    if style == "minutes_to":
        left = 60 - m
        noun = "minute" if left == 1 else "minutes"
        return f"{en_two_digit_words(left)} {noun} to {next_face}{suffix}"
    # hour_minute: explicit am/pm words instead of a period phrase.
    meridiem = "am" if h < 12 else "pm"
    if m == 0:
        middle = ""
    elif m < 10:
        middle = f" {EN_OH} {en_two_digit_words(m)}"
    else:
        middle = f" {en_two_digit_words(m)}"
    return f"{face}{middle} {meridiem}"


def _verbalize_time_de(t: TimeOfDay, style: str) -> str:
    h, m = t.hour, t.minute
    suffix = _period_suffix(h, "de")
    face = _de_hour(_face(h))
    next_face = _de_hour(_face(h + 1))
    if style in ("uhr", "uhr_minute"):
        hour_words = de_two_digit_words(h, final=False)
        if style == "uhr" or m == 0:
            return f"{hour_words} Uhr"
        return f"{hour_words} Uhr {de_two_digit_words(m)}"
    if style == "viertel_nach":
        return f"viertel nach {face}{suffix}"
    if style == "halb":
        return f"halb {next_face}{suffix}"
    if style == "viertel_vor":
        return f"viertel vor {next_face}{suffix}"
    if style == "minuten_nach":
        noun = "Minute" if m == 1 else "Minuten"
        count = DE_EINE if m == 1 else de_two_digit_words(m)
        return f"{count} {noun} nach {face}{suffix}"
    if style == "minuten_vor":
        left = 60 - m
        noun = "Minute" if left == 1 else "Minuten"
        count = DE_EINE if left == 1 else de_two_digit_words(left)
        return f"{count} {noun} vor {next_face}{suffix}"
    raise ValueError(f"unknown German time style: {style!r}")


def verbalize_time(t: TimeOfDay, locale: Locale, style: Optional[str] = None,
                   rng: Optional[random.Random] = None) -> str:
    styles = applicable_time_styles(t, locale)
    if style is None:
        style = rng.choice(styles) if rng is not None else styles[0]
    if style not in styles:
        raise ValueError(f"style {style!r} cannot express {t.hour}:{t.minute:02d}")
    if locale.language == "de":
        return _verbalize_time_de(t, style)
    return _verbalize_time_en(t, style)


def enumerate_timestamp_phrasings(locale: Locale) -> list[tuple[str, TimeOfDay]]:
    """Six phrase families instantiated for every hour 1..12.

    Each entry pairs the phrase with the time it parses to before period
    resolution, e.g. EN hour one: "one o'clock", "quarter past one",
    "half past one", "quarter to one", "two minutes past one",
    "two minutes to one".
    """
    out: list[tuple[str, TimeOfDay]] = []
    de = locale.language == "de"
    two = verbalize_cardinal(2, locale.language)
    for hour in range(1, 13):
        back = _wrap_back(hour - 1, locale.language)
        if de:
            face = _de_hour(hour)
            out.append((f"{de_two_digit_words(hour, final=False)} Uhr", TimeOfDay(hour, 0)))
            out.append((f"viertel nach {face}", TimeOfDay(hour, 15)))
            out.append((f"halb {face}", TimeOfDay(back, 30)))
            out.append((f"viertel vor {face}", TimeOfDay(back, 45)))
            out.append((f"{two} Minuten nach {face}", TimeOfDay(hour, 2)))
            out.append((f"{two} Minuten vor {face}", TimeOfDay(back, 58)))
        else:
            face = _en_hour(hour)
            out.append((f"{face} o'clock", TimeOfDay(hour, 0)))
            out.append((f"quarter past {face}", TimeOfDay(hour, 15)))
            out.append((f"half past {face}", TimeOfDay(hour, 30)))
            out.append((f"quarter to {face}", TimeOfDay(back, 45)))
            out.append((f"{two} minutes past {face}", TimeOfDay(hour, 2)))
            out.append((f"{two} minutes to {face}", TimeOfDay(back, 58)))
    return out


# --- currency and quantities ------------------------------------------------


def _count_words(value: NumericValue, language: str,
                 magnitude_word: Optional[str]) -> str:
    # "eine Million", never "eins Million".
    if magnitude_word and language == "de" and value.is_integer and value.mantissa == 1:
        return DE_EINE
    return verbalize_decimal(value, language)


def _currency_words(money: MoneyAmount, locale: Locale) -> str:
    language = locale.language
    if (money.currency, language) not in CURRENCY_SPOKEN:
        raise ValueError(f"no {language!r} words for currency {money.currency!r}")
    singular, plural = CURRENCY_SPOKEN[(money.currency, language)]
    major_words = _count_words(money.major, language, money.magnitude_word)
    unit = singular if money.major.is_integer and money.major.mantissa == 1 \
        and not money.magnitude_word else plural
    out = major_words
    if money.magnitude_word:
        out += f" {money.magnitude_word}"
    out += f" {unit}"
    if money.minor is not None:
        cents = money.minor.mantissa
        if language == "de":
            cent_words = f"{verbalize_cardinal(cents, 'de')} Cent"
        else:
            cent_words = f"{verbalize_cardinal(cents, 'en')} " \
                         f"{'cent' if cents == 1 else 'cents'}"
        out += f" {AND_WORDS[language]} {cent_words}"
    return out


def verbalize_value(expr: ParsedExpression, locale: Locale,
                    style: Optional[str] = None,
                    rng: Optional[random.Random] = None) -> str:
    """Render a classified expression back into spoken number words."""
    language = locale.language
    if expr.expr_type == ExpressionType.YEAR:
        if style is None and rng is not None:
            style = rng.choice(year_styles(expr.payload, language))
        return verbalize_year(expr.payload, language, style)
    if expr.expr_type == ExpressionType.TIMESTAMP:
        return verbalize_time(expr.payload, locale, style, rng)
    if expr.expr_type == ExpressionType.CURRENCY:
        return _currency_words(expr.payload, locale)
    quantity: QuantityAmount = expr.payload
    out = _count_words(quantity.value, language, quantity.magnitude_word)
    if quantity.magnitude_word:
        out += f" {quantity.magnitude_word}"
    if quantity.unit_word:
        out += f" {quantity.unit_word}"
    return out


def verbalize_line(line: str, locale: Locale,
                   rng: Optional[random.Random] = None,
                   currencies: Optional[dict[str, CurrencyUnit]] = None) -> str:
    """Replace every formatted literal in a line with number words."""
    registry = currencies if currencies is not None else DEFAULT_CURRENCIES
    out = line
    for lit in reversed(extract_numeric_literals(line, locale, registry)):
        expr = parse_literal(lit.text, lit.guessed_type, locale, registry)
        words = verbalize_value(expr, locale, rng=rng)
        out = out[: lit.span.start] + words + out[lit.span.end:]
    return out


# --- formatted-literal parsing (CLI inverse) ----------------------------------


def parse_literal(text: str, expr_type: ExpressionType, locale: Locale,
                  currencies: Optional[dict[str, CurrencyUnit]] = None) -> ParsedExpression:
    """Build an expression payload from an already-formatted literal."""
    registry = currencies if currencies is not None else DEFAULT_CURRENCIES
    span = Span(0, 1)
    if expr_type == ExpressionType.YEAR:
        return ParsedExpression(span, expr_type, int(text))
    if expr_type == ExpressionType.TIMESTAMP:
        hour, _, minute = text.partition(":")
        return ParsedExpression(span, expr_type, TimeOfDay(int(hour), int(minute)))

    body = text
    currency_code = None
    # Longest symbol first, as the extractor matches them: "US$" before "$".
    for code, unit in sorted(registry.items(), key=lambda item: -len(item[1].symbol)):
        if unit.symbol and unit.symbol in body:
            currency_code = code
            body = body.replace(unit.symbol, "").strip()
            break
    magnitude = None
    m = re.search(r"\s(\S+)$", body)
    if m and not any(ch.isdigit() for ch in m.group(1)):
        magnitude = m.group(1)
        body = body[: m.start()]
    value = _parse_number(body, locale)

    if expr_type == ExpressionType.CURRENCY:
        code = currency_code or "USD"
        if magnitude or value.scale == 0:
            return ParsedExpression(span, expr_type,
                                    MoneyAmount(value if magnitude else NumericValue(value.mantissa),
                                                None, code, magnitude))
        int_part, frac_part = value.digit_parts()
        return ParsedExpression(span, expr_type,
                                MoneyAmount(NumericValue(int(int_part)),
                                            NumericValue(int(frac_part)), code))
    return ParsedExpression(span, expr_type,
                            QuantityAmount(value, "", magnitude))


def _parse_number(body: str, locale: Locale) -> NumericValue:
    body = body.strip().replace(locale.thousands_separator, "")
    int_part, _, frac_part = body.partition(locale.decimal_mark)
    if frac_part:
        return NumericValue(int(int_part + frac_part), len(frac_part))
    return NumericValue(int(int_part))
