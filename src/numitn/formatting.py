"""Locale-aware rendering of classified expressions into written form."""

from __future__ import annotations

from .locales import CurrencyUnit, DEFAULT_CURRENCIES, Locale
from .types import ExpressionType, NumericValue, ParsedExpression, TimeOfDay

YEAR_MIN = 1000
YEAR_MAX = 2100


def group_thousands(digits: str, separator: str) -> str:
    """Insert a separator every three digits from the right ("1234567")."""
    if not digits.isdigit():
        raise ValueError(f"expected plain digits, got {digits!r}")
    out = []
    for i, ch in enumerate(reversed(digits)):
        if i and i % 3 == 0:
            out.append(separator)
        out.append(ch)
    return "".join(reversed(out))


def format_year(year: int) -> str:
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise ValueError(f"year out of range: {year}")
    return str(year)


def format_time(t: TimeOfDay) -> str:
    """Hour unpadded, minute two-digit: 7:05, 19:45, 0:30."""
    return f"{t.hour}:{t.minute:02d}"


def _decimal_string(value: NumericValue, locale: Locale) -> str:
    int_part, frac_part = value.digit_parts()
    out = group_thousands(int_part, locale.thousands_separator)
    if frac_part:
        out += locale.decimal_mark + frac_part
    return out


def _place_symbol(body: str, symbol: str, locale: Locale) -> str:
    if locale.currency_placement == "suffix":
        return body + symbol
    return symbol + body


def format_currency(major: NumericValue, minor: NumericValue | None,
                    unit: CurrencyUnit, magnitude_word: str | None,
                    locale: Locale) -> str:
    """Render a currency amount; cents only when spoken ("$0", "$1,000.50")."""
    if magnitude_word:
        body = f"{_decimal_string(major, locale)} {magnitude_word}"
        return _place_symbol(body, unit.symbol, locale)
    digits = unit.minor_unit_digits
    if major.scale > digits:
        raise ValueError(f"major value has more than {digits} fraction digits")
    minor_units = major.mantissa * 10**(digits - major.scale)
    spoken_minor = minor is not None or major.scale > 0
    if minor is not None:
        if not minor.is_integer:
            raise ValueError("a minor part must be a whole number")
        if minor.mantissa >= 10**digits:
            raise ValueError(f"{minor.mantissa} minor units need more than the "
                             f"currency's {digits} minor-unit digits")
        minor_units += minor.mantissa
    whole, cents = divmod(minor_units, 10**digits)
    body = group_thousands(str(whole), locale.thousands_separator)
    if spoken_minor and digits:
        body += locale.decimal_mark + str(cents).rjust(digits, "0")
    return _place_symbol(body, unit.symbol, locale)


def format_quantity(value: NumericValue, unit_word: str,
                    magnitude_word: str | None, locale: Locale) -> str:
    """Render a counted amount: "2,000 pieces", "9.1 million", "7"."""
    out = _decimal_string(value, locale)
    if magnitude_word:
        out += f" {magnitude_word}"
    if unit_word:
        out += f" {unit_word}"
    return out


def format_expression(expr: ParsedExpression, locale: Locale,
                      currencies: dict[str, CurrencyUnit] = DEFAULT_CURRENCIES) -> str:
    """Dispatch a classified expression to its type-specific formatter."""
    expr_type, value = expr.expr_type, expr.value
    if expr_type is ExpressionType.YEAR:
        return format_year(value.mantissa)
    if expr_type is ExpressionType.TIMESTAMP:
        return format_time(value)
    if expr_type is ExpressionType.CURRENCY:
        return format_currency(value.major, value.minor, currencies[value.currency],
                               expr.magnitude_word, locale)
    return format_quantity(value, expr.unit_word, expr.magnitude_word, locale)
