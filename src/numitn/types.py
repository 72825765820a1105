"""Core value types shared by every layer.

``ParsedExpression`` is the one record of a numeric expression, from the
grammar's readings to the formatter and the verbalizer.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from enum import Enum
from types import MappingProxyType

MAX_MANTISSA = 10**15
MAX_SCALE = 6
# A spoken minor count is below this ("ninety-nine cents"): the grammar reads
# no larger count as cents, so the verbalizer says none.
MINOR_UNIT_LIMIT = 100

# The default per-type ``counts`` of a record: every record shares it, so it is read-only.
NO_COUNTS = MappingProxyType({})


class ExpressionType(Enum):
    YEAR = "year"
    TIMESTAMP = "timestamp"
    CURRENCY = "currency"
    QUANTITY = "quantity"


class PeriodHint(Enum):
    """Day-period information attached to a spoken clock time."""

    MORNING = "morning"
    AFTERNOON = "afternoon"
    EVENING = "evening"
    NIGHT = "night"
    EXPLICIT_AM = "explicit_am"
    EXPLICIT_PM = "explicit_pm"
    UNSPECIFIED = "unspecified"


def make_through_new(cls: type, fields: Iterable) -> tuple:
    """A checked record's ``_make`` (and ``_replace``): the named tuple's own skips ``__new__``."""
    return cls(*fields)


class NumericValue(namedtuple("NumericValue", "mantissa scale")):
    """Exact non-negative decimal number: mantissa * 10**-scale.

    The mantissa carries all spoken digits; the scale counts digits after
    the decimal point ("nine point one" -> mantissa 91, scale 1).
    """

    __slots__ = ()
    _make = classmethod(make_through_new)

    def __new__(cls, mantissa: int, scale: int = 0) -> NumericValue:
        if not 0 <= mantissa <= MAX_MANTISSA:
            raise ValueError(f"mantissa out of range: {mantissa}")
        if not 0 <= scale <= MAX_SCALE:
            raise ValueError(f"scale out of range: {scale}")
        return tuple.__new__(cls, (mantissa, scale))

    @property
    def is_integer(self) -> bool:
        return self.scale == 0

    def digit_parts(self) -> tuple[str, str]:
        """Split into (integer digits, fraction digits) without separators."""
        digits = str(self.mantissa).rjust(self.scale + 1, "0")
        if self.scale:
            return digits[: -self.scale], digits[-self.scale :]
        return digits, ""


class TimeOfDay(namedtuple("TimeOfDay", "hour minute period_hint")):
    __slots__ = ()
    _make = classmethod(make_through_new)

    def __new__(cls, hour: int, minute: int,
                period_hint: PeriodHint = PeriodHint.UNSPECIFIED) -> TimeOfDay:
        if not 0 <= hour <= 23:
            raise ValueError(f"hour out of range: {hour}")
        if not 0 <= minute <= 59:
            raise ValueError(f"minute out of range: {minute}")
        return tuple.__new__(cls, (hour, minute, period_hint))


class Span(namedtuple("Span", "start end")):
    """Half-open index range; token indices in parses, char offsets in matches."""

    __slots__ = ()
    _make = classmethod(make_through_new)

    def __new__(cls, start: int, end: int) -> Span:
        if start < 0 or end < start:
            raise ValueError(f"bad span: {start}..{end}")
        return tuple.__new__(cls, (start, end))

    def __len__(self) -> int:
        return self.end - self.start


# The span of an expression not read from tokens: a drawn value or a written literal.
NO_SPAN = Span(0, 1)


class MoneyAmount(namedtuple("MoneyAmount", "major minor currency")):
    """Currency value in ``NumericValue`` parts; ``minor`` is None when no cents were spoken."""

    __slots__ = ()


class ParsedExpression(namedtuple("ParsedExpression",
                                  "span expr_type value magnitude_word unit_word bare",
                                  defaults=(None, "", False))):
    """One numeric expression, from the grammar's readings to the verbalizer.

    The grammar builds every reading of a span as one of these,
    ``classify.choose`` picks one and ``classify.classify`` finishes it.
    ``value`` is a ``NumericValue`` for a year or a quantity, a ``TimeOfDay``
    for a timestamp and a ``MoneyAmount`` for a currency. ``magnitude_word``
    is the spoken scale of a currency or quantity ("million"), or None, and
    ``unit_word`` the word a quantity counts ("users"). A ``bare`` reading is
    a clock time said as an hour and a minute number alone ("nine thirty").
    """

    __slots__ = ()
