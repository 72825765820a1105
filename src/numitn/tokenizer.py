"""Whitespace tokenizer that splits sentence punctuation off word edges.

Interior punctuation stays attached, so "o'clock", "forty-five", "4:30pm"
and "1.000,50€" each survive as a single token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .lexicon import fold_german

_CHUNK_RE = re.compile(r"\S+")

# Characters peeled from token edges. Currency symbols are deliberately
# absent so "$5" and "1.000,50€" stay whole.
_PEEL = set(".,!?;:\"()[]{}…«»„“”'’–—")


@dataclass(frozen=True)
class Token:
    surface: str
    lowercased: str
    # Lowercase with umlauts and ß spelled out: the German lookup key.
    folded: str
    index: int
    is_word: bool
    start: int
    end: int


def _make_token(sentence: str, start: int, end: int, index: int) -> Token:
    surface = sentence[start:end]
    return Token(
        surface=surface,
        lowercased=surface.lower(),
        folded=fold_german(surface),
        index=index,
        is_word=any(ch.isalnum() for ch in surface),
        start=start,
        end=end,
    )


def tokenize(sentence: str) -> list[Token]:
    """Split ``sentence`` into tokens that cover it losslessly.

    Concatenating the token surfaces with the original inter-token gaps
    reconstructs the input exactly.
    """
    tokens: list[Token] = []
    for chunk in _CHUNK_RE.finditer(sentence):
        a, b = chunk.start(), chunk.end()
        i, j = a, b
        lead: list[tuple[int, int]] = []
        while i < j and sentence[i] in _PEEL:
            lead.append((i, i + 1))
            i += 1
        trail: list[tuple[int, int]] = []
        while j > i and sentence[j - 1] in _PEEL:
            trail.append((j - 1, j))
            j -= 1
        pieces = lead + ([(i, j)] if i < j else []) + list(reversed(trail))
        for s, e in pieces:
            tokens.append(_make_token(sentence, s, e, len(tokens)))
    return tokens
