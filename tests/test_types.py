import pytest

from numitn.datagen import (
    ClientConfig,
    GenerationPlan,
    GenerationStats,
    SplitSpec,
)
from numitn.evaluate import EvalItem, EvalReport, TypeCount
from numitn.lexicon import ClockStyle
from numitn.locales import EN, CurrencyUnit, Locale, LocaleConfig
from numitn.manifest import ManifestRecord
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
_MANIFEST_FIELDS = ("en-year-00001", "en", "year", "in nineteen forty-five", "in 1945",
                    (("1945", "year"),), "clips/1.wav", "alloy")
_PLAN_FIELDS = (EN, {ExpressionType.YEAR: 2}, True, 3, ("alloy", "echo"), 7)

# Each record with the values of all its fields.
RECORDS = [
    (NumericValue, (91, 1)),
    (TimeOfDay, (19, 45, PeriodHint.EVENING)),
    (Span, (2, 5)),
    (MoneyAmount, (NumericValue(5), NumericValue(50), "USD")),
    (ParsedExpression, (Span(0, 3), ExpressionType.QUANTITY, NumericValue(2), "million", "users",
                        False)),
    (Locale, ("en", ",", ".", "prefix")),
    (CurrencyUnit, ("₹", 2)),
    (LocaleConfig, ({"en": EN}, {"INR": CurrencyUnit("₹")})),
    (ClockStyle, ("quarter_to", "quarter to", 45, True, True)),
    (SplitSpec, (0.7, 0.1, 0.2, 3)),
    (ClientConfig, (2,)),
    (GenerationPlan, _PLAN_FIELDS),
    (GenerationStats, (4, 10, 8, 2, ("conversion failed: x",))),
    (ManifestRecord, _MANIFEST_FIELDS),
    (TypeCount, (1, 2)),
    (EvalItem, ("in 1945", "in 1945", (("1945", ExpressionType.YEAR),))),
    (EvalReport, (1, 10, {ExpressionType.YEAR: TypeCount(1, 2)})),
]
_IDS = [record.__name__ for record, _ in RECORDS]
# Records with a dict field, which cannot be hashed.
_UNHASHABLE = (LocaleConfig, GenerationPlan, EvalReport)


class TestRecords:
    @pytest.mark.parametrize("record,fields", RECORDS, ids=_IDS)
    def test_equal_fields_give_equal_records_and_hashes(self, record, fields):
        first, second = record(*fields), record(*fields)
        assert first is not second and first == second
        assert record(**dict(zip(record._fields, fields))) == first
        assert record._make(fields) == first
        if record in _UNHASHABLE:
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
        (CurrencyUnit, ("₹", 2), {"symbol": 5}),
        (CurrencyUnit, ("₹", 2), {"symbol": "1"}),
        (CurrencyUnit, ("₹", 2), {"symbol": "Rs5"}),
        (CurrencyUnit, ("₹", 2), {"minor_unit_digits": True}),
        (CurrencyUnit, ("₹", 2), {"minor_unit_digits": -1}),
        (CurrencyUnit, ("₹", 2), {"minor_unit_digits": 7}),
        (SplitSpec, (0.7, 0.1, 0.2, 3), {"train": float("nan")}),
        (SplitSpec, (0.7, 0.1, 0.2, 3), {"dev": float("inf")}),
        (SplitSpec, (0.7, 0.1, 0.2, 3), {"test": 0.0}),
        (SplitSpec, (0.7, 0.1, 0.2, 3), {"train": 0.8}),
        (ClientConfig, (2,), {"max_concurrency": 0}),
        (GenerationPlan, _PLAN_FIELDS, {"batch_size": 0}),
        (GenerationPlan, _PLAN_FIELDS, {"voices": ()}),
        (GenerationPlan, _PLAN_FIELDS, {"counts": {ExpressionType.YEAR: -1}}),
        (ManifestRecord, _MANIFEST_FIELDS, {"verbalized": "in 1945"}),
        (ManifestRecord, _MANIFEST_FIELDS, {"type": "date"}),
        (ManifestRecord, _MANIFEST_FIELDS, {"expressions": (("1946", "year"),)}),
        (ManifestRecord, _MANIFEST_FIELDS, {"audio": 5}),
        (ManifestRecord, _MANIFEST_FIELDS, {"voice": ["x"]}),
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

    @pytest.mark.parametrize("default", [GenerationPlan(EN).counts, EvalReport().counts],
                             ids=["GenerationPlan", "EvalReport"])
    def test_default_counts_cannot_be_mutated(self, default):
        with pytest.raises(TypeError):
            default[ExpressionType.YEAR] = 1
        assert dict(default) == {}
