"""Byte-level pins of the clock layer in both directions.

Each test hashes every string one part of the clock layer produces over a
fixed grid, so a refactor of the clock vocabulary must keep all of them
exactly. The grid spells its phrases here, independently of the library's
tables, and includes phrases that do not parse today ("viertel nach 7",
"halb 2", "quarter to 0").
"""

import hashlib

from numitn.classify import choose, resolve_time
from numitn.grammar import parse_cardinal, parse_clock_phrase
from numitn.lexicon import verbalize_cardinal
from numitn.locales import DEFAULT_CONFIG
from numitn.tokenizer import tokenize
from numitn.types import TimeOfDay
from numitn.verbalize import (
    applicable_time_styles,
    enumerate_timestamp_phrasings,
    verbalize_time,
)

LOCALES = {"en": DEFAULT_CONFIG.locale("en"), "de": DEFAULT_CONFIG.locale("de")}
COUNTS = (1, 2, 29, 30, 31, 59)

# Phrase templates: {h} is the hour (as words or digits), {d} the hour as
# digits only, {m} a minute count as words.
TEMPLATES = {
    "en": ("quarter past {h}", "half past {h}", "quarter to {h}", "half to {h}",
           "Quarter past {h}",
           "{m} minutes past {h}", "{m} minute past {h}", "{m} past {h}",
           "{m} minutes to {h}", "{m} minute to {h}", "{m} to {h}",
           "{h} o'clock", "{h}", "{h} thirty", "{h} oh five", "{h} forty-five",
           "{d}:30", "{d}.05", "{d}:30pm", "{d}pm", "{d}am"),
    "de": ("viertel nach {h}", "halb {h}", "viertel vor {h}", "Halb {h}",
           "{m} Minuten nach {h}", "{m} Minute nach {h}", "{m} nach {h}",
           "{m} Minuten vor {h}", "{m} Minute vor {h}", "{m} vor {h}",
           "eine Minute nach {h}", "eine Minute vor {h}",
           "{h} Uhr", "{h} Uhr dreißig", "{h} Uhr 5", "{h} uhr fünfundvierzig",
           "{d}.45 Uhr", "{d}:45 Uhr", "{d}.45"),
}
SUFFIXES = {
    "en": ("", "am", "pm", "p.m.", "in the morning", "in the afternoon",
           "in the evening", "at night", "in the"),
    "de": ("", "morgens", "vormittags", "mittags", "nachmittags", "abends",
           "nachts", "pm", "Uhr"),
}


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _grid(language):
    for template in TEMPLATES[language]:
        counts = COUNTS if "{m}" in template else (None,)
        for hour in range(24):
            words = verbalize_cardinal(hour, language)
            forms = (str(hour),) if "{d}" in template else (words, str(hour))
            for form in forms:
                for count in counts:
                    m = "" if count is None else verbalize_cardinal(count, language)
                    phrase = template.format(h=form, d=form, m=m)
                    for suffix in SUFFIXES[language]:
                        yield f"{phrase} {suffix}".rstrip()


def _clock_lines(language):
    locale = LOCALES[language]
    for phrase in _grid(language):
        tokens = tokenize(phrase)
        readings = parse_clock_phrase(tokens, 0, locale, parse_cardinal(tokens, 0, locale))
        parse = choose(readings or [], tokens, language)
        if parse is None:
            yield f"{phrase}\t-"
            continue
        t = parse.value
        r = resolve_time(t)
        yield (f"{phrase}\t{parse.span.start}-{parse.span.end}\t{t.hour}:{t.minute}:"
               f"{t.period_hint.value}\t{r.hour}:{r.minute}")


def test_verbalize_time_pin():
    lines = []
    for language, locale in LOCALES.items():
        for hour in range(24):
            for minute in range(60):
                t = TimeOfDay(hour, minute)
                for style in applicable_time_styles(t, locale):
                    lines.append(f"{language}\t{hour}:{minute}\t{style}\t"
                                 f"{verbalize_time(t, locale, style)}")
    assert _digest(lines) == "4650e808f7a319c285700d8c72431c9f554a34bd6f0ce3edd3eb9559adfb6185"


def test_enumerate_timestamp_phrasings_pin():
    lines = [f"{language}\t{phrase}\t{t.hour}:{t.minute}:{t.period_hint.value}"
             for language, locale in LOCALES.items()
             for phrase, t in enumerate_timestamp_phrasings(locale)]
    assert _digest(lines) == "39857cd2e69b97d8766c71ef43f01cff6f677c554e00c6e6327a2f13bf725e81"


def test_parse_clock_phrase_pin():
    lines = [line for language in LOCALES for line in _clock_lines(language)]
    assert _digest(lines) == "8ae10ac0c2de51d762d1ef77abddd05fd92360033f8d6cc799f2ee9e7d6874b4"
