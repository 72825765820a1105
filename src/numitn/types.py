"""Core value types shared by every layer.

``ParsedExpression`` is the one record of a numeric expression, from the
grammar's readings to the formatter and the verbalizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

MAX_MANTISSA = 10**15
MAX_SCALE = 6


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


@dataclass(frozen=True)
class NumericValue:
    """Exact non-negative decimal number: mantissa * 10**-scale.

    The mantissa carries all spoken digits; the scale counts digits after
    the decimal point ("nine point one" -> mantissa 91, scale 1).
    """

    mantissa: int
    scale: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.mantissa <= MAX_MANTISSA:
            raise ValueError(f"mantissa out of range: {self.mantissa}")
        if not 0 <= self.scale <= MAX_SCALE:
            raise ValueError(f"scale out of range: {self.scale}")

    @property
    def is_integer(self) -> bool:
        return self.scale == 0

    def digit_parts(self) -> tuple[str, str]:
        """Split into (integer digits, fraction digits) without separators."""
        digits = str(self.mantissa).rjust(self.scale + 1, "0")
        if self.scale:
            return digits[: -self.scale], digits[-self.scale :]
        return digits, ""


@dataclass(frozen=True)
class TimeOfDay:
    hour: int
    minute: int
    period_hint: PeriodHint = PeriodHint.UNSPECIFIED

    def __post_init__(self) -> None:
        if not 0 <= self.hour <= 23:
            raise ValueError(f"hour out of range: {self.hour}")
        if not 0 <= self.minute <= 59:
            raise ValueError(f"minute out of range: {self.minute}")


@dataclass(frozen=True)
class Span:
    """Half-open index range; token indices in parses, char offsets in matches."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad span: {self.start}..{self.end}")

    def __len__(self) -> int:
        return self.end - self.start


# The span of an expression not read from tokens: a drawn value or a written literal.
NO_SPAN = Span(0, 1)


@dataclass(frozen=True)
class MoneyAmount:
    """Currency value; ``minor`` is None when no cents were spoken."""

    major: NumericValue
    minor: Optional[NumericValue]
    currency: str


@dataclass(frozen=True)
class ParsedExpression:
    """One numeric expression, from the grammar's readings to the verbalizer.

    The grammar builds every reading of a span as one of these,
    ``classify.choose`` picks one and ``classify.classify`` finishes it.
    ``value`` is a ``NumericValue`` for a year or a quantity, a ``TimeOfDay``
    for a timestamp and a ``MoneyAmount`` for a currency. ``magnitude_word``
    is the spoken scale of a currency or quantity ("million"), and
    ``unit_word`` the word a quantity counts ("users"). A ``bare`` reading is
    a clock time said as an hour and a minute number alone ("nine thirty").
    """

    span: Span
    expr_type: ExpressionType
    value: Union[NumericValue, TimeOfDay, MoneyAmount]
    magnitude_word: Optional[str] = None
    unit_word: str = ""
    bare: bool = False
