import pytest
from hypothesis import given, strategies as st

from numitn.formatting import (
    format_currency,
    format_quantity,
    format_time,
    format_year,
    group_thousands,
)
from numitn.locales import DEFAULT_CONFIG, DEFAULT_CURRENCIES
from numitn.types import NumericValue, TimeOfDay

EN = DEFAULT_CONFIG.locale("en")
DE = DEFAULT_CONFIG.locale("de")
USD = DEFAULT_CURRENCIES["USD"]
EUR = DEFAULT_CURRENCIES["EUR"]


class TestGroupThousands:
    @pytest.mark.parametrize("digits,expected", [
        ("0", "0"),
        ("999", "999"),
        ("1000", "1,000"),
        ("1234567", "1,234,567"),
        ("100000", "100,000"),
    ])
    def test_comma(self, digits, expected):
        assert group_thousands(digits, ",") == expected

    def test_dot(self):
        assert group_thousands("2000", ".") == "2.000"

    @pytest.mark.parametrize("bad", ["", "-5", "1.5", "abc", "1 2"])
    def test_rejects_non_digits(self, bad):
        with pytest.raises(ValueError):
            group_thousands(bad, ",")

    @given(st.integers(min_value=0, max_value=10**15))
    def test_separator_strip_round_trips(self, n):
        assert group_thousands(str(n), ",").replace(",", "") == str(n)

    @given(st.integers(min_value=0, max_value=10**15))
    def test_group_sizes(self, n):
        groups = group_thousands(str(n), ".").split(".")
        assert all(len(g) == 3 for g in groups[1:])
        assert 1 <= len(groups[0]) <= 3


class TestYearsAndTimes:
    def test_year_plain(self):
        assert format_year(1945) == "1945"
        assert format_year(2100) == "2100"

    @pytest.mark.parametrize("bad", [999, 2101, 0, -1945])
    def test_year_range(self, bad):
        with pytest.raises(ValueError):
            format_year(bad)

    @pytest.mark.parametrize("h,m,expected", [
        (19, 45, "19:45"),
        (7, 5, "7:05"),
        (0, 0, "0:00"),
        (16, 30, "16:30"),
        (12, 0, "12:00"),
    ])
    def test_time(self, h, m, expected):
        assert format_time(TimeOfDay(h, m)) == expected


class TestCurrency:
    def test_symbol_prefix_en(self):
        got = format_currency(NumericValue(1000), NumericValue(50), USD, None, EN)
        assert got == "$1,000.50"

    def test_symbol_suffix_de(self):
        got = format_currency(NumericValue(1000), NumericValue(50), EUR, None, DE)
        assert got == "1.000,50€"

    def test_whole_dollars_have_no_cents(self):
        assert format_currency(NumericValue(1945), None, USD, None, EN) == "$1,945"

    def test_zero(self):
        assert format_currency(NumericValue(0), None, USD, None, EN) == "$0"

    def test_cents_only(self):
        got = format_currency(NumericValue(0), NumericValue(50), USD, None, EN)
        assert got == "$0.50"

    def test_decimal_major_spoken_as_cents(self):
        # "two fifty" style decimals carry their own fraction digits.
        got = format_currency(NumericValue(25, 1), None, USD, None, EN)
        assert got == "$2.50"

    def test_minor_overflow_carries(self):
        # 1 dollar and 99 cents is the ceiling; construction upstream bars
        # >= 100, but the formatter itself just adds minor units.
        got = format_currency(NumericValue(1), NumericValue(99), USD, None, EN)
        assert got == "$1.99"

    def test_magnitude_short_form(self):
        got = format_currency(NumericValue(91, 1), None, USD, "million", EN)
        assert got == "$9.1 million"

    def test_magnitude_short_form_de(self):
        got = format_currency(NumericValue(91, 1), None, EUR, "Millionen", DE)
        assert got == "9,1 Millionen€"

    def test_minor_too_large_rejected(self):
        with pytest.raises(ValueError):
            format_currency(NumericValue(1), NumericValue(100), USD, None, EN)

    def test_too_many_fraction_digits_rejected(self):
        with pytest.raises(ValueError):
            format_currency(NumericValue(12345, 3), None, USD, None, EN)


class TestQuantity:
    def test_grouped_with_unit(self):
        assert format_quantity(NumericValue(2000), "pieces", None, EN) == "2,000 pieces"

    def test_german_grouping(self):
        assert format_quantity(NumericValue(2000), "Teile", None, DE) == "2.000 Teile"

    def test_decimal_mark(self):
        assert format_quantity(NumericValue(55, 1), "percent", None, EN) == "5.5 percent"
        assert format_quantity(NumericValue(55, 1), "Prozent", None, DE) == "5,5 Prozent"

    def test_magnitude_and_unit(self):
        got = format_quantity(NumericValue(91, 1), "users", "million", EN)
        assert got == "9.1 million users"

    def test_bare_number(self):
        assert format_quantity(NumericValue(7), "", None, EN) == "7"

    @given(st.integers(min_value=0, max_value=10**12))
    def test_en_de_agree_modulo_separator(self, n):
        en = format_quantity(NumericValue(n), "", None, EN)
        de = format_quantity(NumericValue(n), "", None, DE)
        assert en.replace(",", "") == de.replace(".", "") == str(n)
