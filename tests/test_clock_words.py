"""The clock vocabulary is spelled once, in ``numitn.lexicon``.

Every other module reads its clock words from the lexicon's tables, so a
string constant there that equals a clock word or phrase is a second
spelling that the tables no longer govern.
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


def test_spellings_cover_every_table():
    spellings = clock_spellings()
    for word in ("quarter", "past", "quarter to", "o'clock", "minuten", "in the morning",
                 "nachmittags", "halb", "pm"):
        assert word in spellings


def test_clock_words_are_spelled_only_in_lexicon():
    spellings = clock_spellings()
    found = []
    for path in sorted(Path(numitn.__file__).parent.glob("*.py")):
        if path.name == "lexicon.py":
            continue
        for node in string_constants(ast.parse(path.read_text(encoding="utf-8"))):
            key = fold_german(node.value.strip())
            if key in spellings and (path.name, key) not in NOT_CLOCK_WORDS:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []
