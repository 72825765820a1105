"""Each vocabulary is spelled once, in its home module.

The clock words live in ``numitn.lexicon``, the currency and minor-unit
words in ``numitn.locales``. Every other module reads them from those
tables, so a string constant elsewhere that equals one of the words is a
second spelling that the tables no longer govern.
"""

import ast
from pathlib import Path

import numitn
from numitn.lexicon import (
    CLOCK_STYLES,
    HOUR_NOUNS,
    MERIDIEMS,
    MINUTE_NOUNS,
    PERIOD_PHRASES,
    fold_german,
)
from numitn.locales import CURRENCY_SPOKEN, MINOR_UNIT_SPOKEN

# German "am" ("an dem") is a function word in classify's stopwords, not
# the English meridiem.
NOT_CLOCK_WORDS = {("classify.py", "am")}


def clock_spellings():
    phrases = []
    for language, styles in CLOCK_STYLES.items():
        phrases += [HOUR_NOUNS[language], *MINUTE_NOUNS[language], *MERIDIEMS[language]]
        phrases += [p for group in PERIOD_PHRASES[language].values() for p in group]
        for style in styles:
            if style.words:
                phrases += [style.words, *style.words.split()]
    return {fold_german(phrase) for phrase in phrases}


def currency_spellings():
    forms = [form for group in (*CURRENCY_SPOKEN.values(), *MINOR_UNIT_SPOKEN.values())
             for form in group]
    return {fold_german(form) for form in forms}


def string_constants(tree):
    """Every string constant in ``tree`` but the docstrings."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant):
            docstrings.add(id(node.body[0].value))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings]


def spellings_outside(home, spellings, exempt=frozenset()):
    """Each string constant of a ``numitn`` module but ``home`` that folds to a spelling.

    A constant is compared whole, stripped: " Cent" in an f-string counts,
    "Die Karte kostet {}." does not. ``exempt`` holds (file name, folded
    key) pairs that are other words with the same spelling.
    """
    found = []
    for path in sorted(Path(numitn.__file__).parent.glob("*.py")):
        if path.name == home:
            continue
        for node in string_constants(ast.parse(path.read_text(encoding="utf-8"))):
            key = fold_german(node.value.strip())
            if key in spellings and (path.name, key) not in exempt:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    return found


def test_spellings_cover_every_table():
    spellings = clock_spellings()
    for word in ("quarter", "past", "quarter to", "o'clock", "minuten", "in the morning",
                 "nachmittags", "halb", "pm"):
        assert word in spellings
    assert currency_spellings() == {"dollar", "dollars", "euro", "euros", "pound", "pounds",
                                    "pfund", "cent", "cents"}


def test_scan_finds_the_home_spellings():
    # Scanning from another home finds the tables themselves, so an empty
    # result below means no second spelling, not a blind scan.
    assert any(f.startswith("lexicon.py:") for f in spellings_outside("", clock_spellings()))
    assert any(f.startswith("locales.py:") for f in spellings_outside("", currency_spellings()))


def test_clock_words_are_spelled_only_in_lexicon():
    assert spellings_outside("lexicon.py", clock_spellings(), NOT_CLOCK_WORDS) == []


def test_currency_words_are_spelled_only_in_locales():
    assert spellings_outside("locales.py", currency_spellings()) == []
