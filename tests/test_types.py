import pytest

from numitn.extract import LiteralMatch
from numitn.lexicon import ClockStyle
from numitn.locales import EN, CurrencyUnit, Locale, LocaleConfig
from numitn.pipeline import NormalizationOutcome, NormalizedExpression
from numitn.types import (
    ExpressionType,
    MoneyAmount,
    NumericValue,
    ParsedExpression,
    PeriodHint,
    Span,
    TimeOfDay,
)


class TestNumericValue:
    def test_integer(self):
        v = NumericValue(1945)
        assert v.is_integer
        assert (v.mantissa, v.scale) == (1945, 0)
        assert v.digit_parts() == ("1945", "")

    def test_decimal(self):
        v = NumericValue(91, 1)
        assert not v.is_integer
        assert (v.mantissa, v.scale) == (91, 1)
        assert v.digit_parts() == ("9", "1")

    def test_fraction_smaller_than_one(self):
        assert NumericValue(5, 2).digit_parts() == ("0", "05")

    @pytest.mark.parametrize("mantissa,scale", [(-1, 0), (10**16, 0), (1, -1), (1, 7)])
    def test_validation(self, mantissa, scale):
        with pytest.raises(ValueError):
            NumericValue(mantissa, scale)


class TestSpan:
    def test_length(self):
        assert len(Span(2, 5)) == 3

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Span(5, 2)


class TestTimeOfDay:
    def test_defaults(self):
        t = TimeOfDay(19, 45)
        assert t.period_hint == PeriodHint.UNSPECIFIED

    @pytest.mark.parametrize("hour,minute", [(24, 0), (-1, 0), (0, 60), (0, -1)])
    def test_validation(self, hour, minute):
        with pytest.raises(ValueError):
            TimeOfDay(hour, minute)


_YEAR = ParsedExpression(Span(1, 3), ExpressionType.YEAR, NumericValue(1945))
_REPLACED = (_YEAR, Span(3, 22), "nineteen forty-five", "1945", Span(3, 7))

# Each record with the values of all its fields.
RECORDS = [
    (NumericValue, (91, 1)),
    (TimeOfDay, (19, 45, PeriodHint.EVENING)),
    (Span, (2, 5)),
    (MoneyAmount, (NumericValue(5), NumericValue(50), "USD")),
    (ParsedExpression, (Span(0, 3), ExpressionType.QUANTITY, NumericValue(2), "million", "users",
                        False)),
    (Locale, ("en", ",", ".", "prefix")),
    (CurrencyUnit, ("INR", "₹", 2)),
    (LocaleConfig, ({"en": EN}, {"INR": CurrencyUnit("INR", "₹")})),
    (LiteralMatch, (Span(8, 10), "$5", ExpressionType.CURRENCY)),
    (NormalizedExpression, _REPLACED),
    (NormalizationOutcome, ("in 1945", (NormalizedExpression(*_REPLACED),))),
    (ClockStyle, ("quarter_to", "quarter to", 45, True, True)),
]
_IDS = [record.__name__ for record, _ in RECORDS]


class TestRecords:
    @pytest.mark.parametrize("record,fields", RECORDS, ids=_IDS)
    def test_equal_fields_give_equal_records_and_hashes(self, record, fields):
        first, second = record(*fields), record(*fields)
        assert first is not second and first == second
        assert record(**dict(zip(record._fields, fields))) == first
        assert record._make(fields) == first
        if record is LocaleConfig:  # its fields are dicts
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second)

    @pytest.mark.parametrize("record,fields", RECORDS, ids=_IDS)
    def test_fields_cannot_be_set(self, record, fields):
        value = record(*fields)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1
        assert tuple(value) == fields

    @pytest.mark.parametrize("record,fields,bad", [
        (NumericValue, (91, 1), {"mantissa": -1}),
        (NumericValue, (91, 1), {"mantissa": 10**16}),
        (NumericValue, (91, 1), {"scale": 7}),
        (TimeOfDay, (19, 45, PeriodHint.EVENING), {"hour": 24}),
        (TimeOfDay, (19, 45, PeriodHint.EVENING), {"minute": 60}),
        (Span, (2, 5), {"start": -1}),
        (Span, (2, 5), {"end": 1}),
        (Locale, ("en", ",", ".", "prefix"), {"thousands_separator": "5"}),
        (Locale, ("en", ",", ".", "prefix"), {"decimal_mark": ""}),
        (Locale, ("en", ",", ".", "prefix"), {"decimal_mark": ","}),
        (Locale, ("en", ",", ".", "prefix"), {"currency_placement": "around"}),
        (Locale, ("en", ",", ".", "prefix"), {"language": "fr"}),
        (Locale, ("en", ",", ".", "prefix"), {"language": None}),
        (CurrencyUnit, ("INR", "₹", 2), {"symbol": 5}),
        (CurrencyUnit, ("INR", "₹", 2), {"minor_unit_digits": True}),
        (CurrencyUnit, ("INR", "₹", 2), {"minor_unit_digits": -1}),
    ], ids=lambda value: repr(value) if isinstance(value, dict) else None)
    def test_bad_values_raise_through_every_constructor(self, record, fields, bad):
        good = record(*fields)
        values = {**good._asdict(), **bad}
        with pytest.raises(ValueError):
            record(**values)
        with pytest.raises(ValueError):
            record._make(values.values())
        with pytest.raises(ValueError):
            good._replace(**bad)
