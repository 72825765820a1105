import json

import pytest

from numitn.locales import (
    DEFAULT_CONFIG,
    DEFAULT_CURRENCIES,
    CurrencyUnit,
    Locale,
    get_locale,
    load_locale_config,
)


def test_preset_conventions():
    en = get_locale("en")
    assert (en.thousands_separator, en.decimal_mark, en.currency_placement) == (",", ".", "prefix")
    de = get_locale("de")
    assert (de.thousands_separator, de.decimal_mark, de.currency_placement) == (".", ",", "suffix")


def test_unknown_locale():
    with pytest.raises(KeyError):
        get_locale("fr")


def test_separator_must_differ_from_mark():
    with pytest.raises(ValueError):
        Locale("xx", ",", ",", "prefix")


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
    assert DEFAULT_CONFIG.currency("USD").symbol == "$"
    assert "€" in DEFAULT_CONFIG.currency_symbols()


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
    assert cfg.currency("CHF") == CurrencyUnit("CHF", "₣", 2)
    assert cfg.currency("USD").symbol == "$"


def test_load_config_rejects_bad_convention(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"locales": {"en": {"decimal_mark": ","}}}),
                    encoding="utf-8")
    with pytest.raises(ValueError):
        load_locale_config(path)


def test_load_config_rejects_language_without_grammar(tmp_path):
    path = tmp_path / "fr.json"
    path.write_text(json.dumps({"locales": {"en": {"language": "fr"}}}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="language"):
        load_locale_config(path)
