import json

import pytest

from numitn import lexicon, locales
from numitn.locales import (
    DEFAULT_CONFIG,
    DEFAULT_CURRENCIES,
    CurrencyUnit,
    Locale,
    load_locale_config,
)
from numitn.types import MAX_SCALE


def test_preset_conventions():
    en = DEFAULT_CONFIG.locale("en")
    assert (en.thousands_separator, en.decimal_mark, en.currency_placement) == (",", ".", "prefix")
    de = DEFAULT_CONFIG.locale("de")
    assert (de.thousands_separator, de.decimal_mark, de.currency_placement) == (".", ",", "suffix")


def test_every_language_table_covers_every_language():
    # A table that lacks a language would raise KeyError partway through a stream.
    tables = {f"{module.__name__}.{name}": table
              for module in (lexicon, locales) for name, table in vars(module).items()
              if isinstance(table, dict) and set(table) & set(locales._LANGUAGES)}
    for name, table in tables.items():
        assert set(table) == set(locales._LANGUAGES), name
    assert {f"numitn.lexicon.{name}" for name in (
        "POINT_WORDS", "HOUR_NOUNS", "CLOCK_STYLES", "PERIOD_PHRASES", "YEAR_CUES",
        "MAGNITUDE_NAMES", "MAGNITUDE_WORDS", "MAGNITUDE_ONE", "SCALE_WORDS", "DIGIT_NAMES",
        "DIGIT_VALUES",
    )} | {"numitn.locales.CURRENCY_WORDS"} <= set(tables)


def test_unknown_locale():
    with pytest.raises(KeyError):
        DEFAULT_CONFIG.locale("fr")


def test_separator_must_differ_from_mark():
    with pytest.raises(ValueError):
        Locale("xx", ",", ",", "prefix")


@pytest.mark.parametrize("separator,mark", [("5", "."), (",", "5"), (" ", "0,"), ("\u0665", ".")])
def test_separator_and_mark_hold_no_digit(separator, mark):
    # With "5" as the separator, 2,500 would be written "25500", as 25,500 is.
    with pytest.raises(ValueError, match="digit"):
        Locale("en", separator, mark, "prefix")


def test_placement_validated():
    with pytest.raises(ValueError):
        Locale("xx", ",", ".", "around")


def test_language_without_grammar_rejected():
    with pytest.raises(ValueError, match="language"):
        Locale("fr", " ", ",", "suffix")


def test_default_currencies():
    assert DEFAULT_CURRENCIES["USD"].symbol == "$"
    assert DEFAULT_CURRENCIES["EUR"].symbol == "€"
    assert DEFAULT_CURRENCIES["GBP"].symbol == "£"
    assert all(u.minor_unit_digits == 2 for u in DEFAULT_CURRENCIES.values())


def test_config_lookup():
    assert DEFAULT_CONFIG.locale("de").language == "de"
    assert DEFAULT_CONFIG.currencies["USD"].symbol == "$"
    assert "€" in {unit.symbol for unit in DEFAULT_CONFIG.currencies.values()}


def test_load_config_merges_over_presets(tmp_path):
    path = tmp_path / "conventions.json"
    path.write_text(json.dumps({
        "locales": {"en": {"thousands_separator": " "}},
        "currencies": {"CHF": {"symbol": "₣", "minor_unit_digits": 2}},
    }), encoding="utf-8")
    cfg = load_locale_config(path)
    assert cfg.locale("en").thousands_separator == " "
    assert cfg.locale("en").decimal_mark == "."
    assert cfg.locale("de").thousands_separator == "."
    assert cfg.currencies["CHF"] == CurrencyUnit("₣", 2)
    assert cfg.currencies["USD"].symbol == "$"


@pytest.mark.parametrize("digits", [0, 2, 3, MAX_SCALE])
def test_load_config_accepts_minor_unit_digits_up_to_max_scale(tmp_path, digits):
    path = tmp_path / "digits.json"
    path.write_text(json.dumps({"currencies": {"USD": {"minor_unit_digits": digits}}}),
                    encoding="utf-8")
    assert load_locale_config(path).currencies["USD"] == CurrencyUnit("$", digits)


def test_load_config_rejects_bad_convention(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"locales": {"en": {"decimal_mark": ","}}}),
                    encoding="utf-8")
    with pytest.raises(ValueError):
        load_locale_config(path)


# Config files that must be rejected when they load: a section or entry
# that is not a JSON object, a field of the wrong type, an empty decimal mark,
# a separator, mark or currency symbol that holds a digit.
MALFORMED_CONFIGS = [
    {"locales": []},
    {"locales": {"x": "de"}},
    {"currencies": ["INR"]},
    {"currencies": {"INR": "₹"}},
    {"currencies": {"INR": {"minor_unit_digits": "2"}}},
    {"currencies": {"INR": {"minor_unit_digits": True}}},
    {"currencies": {"INR": {"minor_unit_digits": 7}}},
    {"currencies": {"INR": {"symbol": 5}}},
    {"currencies": {"XTS": {"symbol": "1"}}},
    {"currencies": {"USD": {"symbol": "US1$"}}},
    {"currencies": {"XTS": {"symbol": "\u0661"}}},
    {"locales": {"en-x": {"language": "en", "decimal_mark": 7}}},
    {"locales": {"en-x": {"language": "en", "thousands_separator": None}}},
    {"locales": {"en-x": {"language": "en", "decimal_mark": ""}}},
    {"locales": {"en": {"thousands_separator": "5"}}},
    {"locales": {"en-x": {"language": "en", "decimal_mark": "5"}}},
    {"currency": {"INR": {"symbol": "₹"}}},
    {"currencies": {"INR": {"symbl": "₹"}}},
    {"locales": {"en": {"thousand_separator": " "}}},
]


@pytest.mark.parametrize("raw", MALFORMED_CONFIGS, ids=json.dumps)
def test_load_config_rejects_malformed(tmp_path, raw):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError):
        load_locale_config(path)


@pytest.mark.parametrize("raw,named", [
    ({"currency": {"INR": {"symbol": "₹"}}, "locales": {}}, "'currency'"),
    ({"currencies": {"INR": {"symbl": "₹", "minor_unit_digits": 2}}}, "'INR'.*'symbl'"),
    ({"currencies": {"INR": {"code": "INR", "symbol": "₹"}}}, "'code'"),
    ({"locales": {"en": {"thousand_separator": " "}}}, "'en'.*'thousand_separator'"),
], ids=["section", "currency field", "currency code", "locale field"])
def test_load_config_names_an_unknown_key(tmp_path, raw, named):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError, match=named):
        load_locale_config(path)


def test_load_config_accepts_an_empty_object(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}\n", encoding="utf-8")
    assert load_locale_config(path) == DEFAULT_CONFIG


def test_load_config_rejects_language_without_grammar(tmp_path):
    path = tmp_path / "fr.json"
    path.write_text(json.dumps({"locales": {"en": {"language": "fr"}}}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="language"):
        load_locale_config(path)
