"""Locale and currency presets plus configuration-file loading."""

from __future__ import annotations

import json
import os
from collections import namedtuple

from .lexicon import fold_german
from .types import MAX_SCALE, make_through_new

_PLACEMENTS = ("prefix", "suffix")
# Languages the grammar, classifier and verbalizer have tables for.
_LANGUAGES = ("en", "de")


class Locale(namedtuple("Locale", "language thousands_separator decimal_mark currency_placement")):
    __slots__ = ()
    _make = classmethod(make_through_new)

    def __new__(cls, language: str, thousands_separator: str, decimal_mark: str,
                currency_placement: str) -> Locale:
        self = tuple.__new__(cls, (language, thousands_separator, decimal_mark,
                                   currency_placement))
        for name, value in zip(cls._fields, self):
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string")
        if not decimal_mark:
            raise ValueError("decimal mark must not be empty")
        if thousands_separator == decimal_mark:
            raise ValueError("thousands separator and decimal mark must differ")
        if any(map(str.isdigit, thousands_separator + decimal_mark)):
            # A digit mark would be read as part of the number it splits.
            raise ValueError("thousands separator and decimal mark must not hold a digit")
        if currency_placement not in _PLACEMENTS:
            raise ValueError(f"currency placement must be one of {_PLACEMENTS}")
        if language not in _LANGUAGES:
            raise ValueError(f"language must be one of {_LANGUAGES}, not {language!r}")
        return self


class CurrencyUnit(namedtuple("CurrencyUnit", "symbol minor_unit_digits")):
    """A currency's written form; registries key it by its code ("USD")."""

    __slots__ = ()
    _make = classmethod(make_through_new)

    def __new__(cls, symbol: str, minor_unit_digits: int = 2) -> CurrencyUnit:
        if not isinstance(symbol, str):
            raise ValueError("symbol must be a string")
        if any(map(str.isdigit, symbol)):
            # The extractor would find such a symbol inside plain numbers.
            raise ValueError("symbol must not hold a digit")
        if not isinstance(minor_unit_digits, int) or isinstance(minor_unit_digits, bool):
            raise ValueError("minor_unit_digits must be an integer")
        if not 0 <= minor_unit_digits <= MAX_SCALE:
            # An amount's value keeps at most MAX_SCALE digits after the point.
            raise ValueError(f"minor_unit_digits must be between 0 and {MAX_SCALE}")
        return tuple.__new__(cls, (symbol, minor_unit_digits))


EN = Locale("en", thousands_separator=",", decimal_mark=".", currency_placement="prefix")
DE = Locale("de", thousands_separator=".", decimal_mark=",", currency_placement="suffix")

DEFAULT_LOCALES: dict[str, Locale] = {"en": EN, "de": DE}

DEFAULT_CURRENCIES: dict[str, CurrencyUnit] = {
    "USD": CurrencyUnit("$"),
    "EUR": CurrencyUnit("€"),
    "GBP": CurrencyUnit("£"),
}

DEFAULT_CURRENCY_CODE = {"en": "USD", "de": "EUR"}

# Spoken currency words for verbalization, keyed by (code, language).
CURRENCY_SPOKEN = {
    ("USD", "en"): ("dollar", "dollars"),
    ("EUR", "en"): ("euro", "euros"),
    ("GBP", "en"): ("pound", "pounds"),
    ("USD", "de"): ("Dollar", "Dollar"),
    ("EUR", "de"): ("Euro", "Euro"),
    ("GBP", "de"): ("Pfund", "Pfund"),
}

# Spoken minor-unit words (singular, plural) for verbalization, by language.
MINOR_UNIT_SPOKEN = {"en": ("cent", "cents"), "de": ("Cent", "Cent")}

# Spoken unit word (folded) -> currency code, per language. A minor-unit
# word, in either language, maps to the locale's default currency and is
# handled separately.
MINOR_UNIT_WORDS = {fold_german(form) for forms in MINOR_UNIT_SPOKEN.values() for form in forms}
CURRENCY_WORDS: dict[str, dict[str, str]] = {
    language: {fold_german(form): code for (code, spoken_in), forms in CURRENCY_SPOKEN.items()
               if spoken_in == language for form in forms}
    for language in _LANGUAGES}


class LocaleConfig(namedtuple("LocaleConfig", "locales currencies")):
    """Codes to ``Locale`` and ``CurrencyUnit`` records, possibly extended via a config file."""

    __slots__ = ()

    def locale(self, code: str) -> Locale:
        try:
            return self.locales[code]
        except KeyError:
            raise KeyError(f"unknown locale: {code!r}") from None


DEFAULT_CONFIG = LocaleConfig(dict(DEFAULT_LOCALES), dict(DEFAULT_CURRENCIES))


# The fields a config entry may set, by section; the entry's key is its code.
_CONFIG_FIELDS = {"locales": set(Locale._fields), "currencies": set(CurrencyUnit._fields)}


def _section(raw: dict, name: str) -> dict:
    """The config's ``name`` section: each code mapped to a JSON object of known fields."""
    section = raw.get(name, {})
    if not isinstance(section, dict) or not all(isinstance(e, dict) for e in section.values()):
        raise ValueError(f"{name!r} must map each code to a JSON object")
    for code, entry in section.items():
        unknown = sorted(set(entry) - _CONFIG_FIELDS[name])
        if unknown:
            raise ValueError(f"{name!r} entry {code!r}: unknown fields {unknown}")
    return section


def load_locale_config(path: str | os.PathLike[str]) -> LocaleConfig:
    """Read a JSON config with optional "locales" and "currencies" sections.

    File entries are merged over the built-in presets, e.g.::

        {"locales": {"en-in": {"language": "en", "thousands_separator": ",",
                               "decimal_mark": ".", "currency_placement": "prefix"}},
         "currencies": {"USD": {"symbol": "US$"}}}
    """
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError("locale config must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_FIELDS))
    if unknown:
        raise ValueError(f"unknown config sections {unknown}")
    locales = dict(DEFAULT_LOCALES)
    for code, entry in _section(raw, "locales").items():
        # A new code starts from EN's marks, with the code as its language.
        base = locales[code]._asdict() if code in locales else {**EN._asdict(), "language": code}
        locales[code] = Locale(**{**base, **entry})
    currencies = dict(DEFAULT_CURRENCIES)
    for code, entry in _section(raw, "currencies").items():
        currencies[code] = currencies.get(code, CurrencyUnit(""))._replace(**entry)
    return LocaleConfig(locales, currencies)
