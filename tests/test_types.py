import pytest

from numitn.types import NumericValue, Span, TimeOfDay, PeriodHint


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
