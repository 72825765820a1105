"""Whitespace tokenizer that splits sentence punctuation off word edges.

Interior punctuation stays attached, so "o'clock", "forty-five", "4:30pm"
and "1.000,50€" each survive as a single token.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .lexicon import fold_german

# Characters peeled from token edges. Currency symbols are deliberately
# absent so "$5" and "1.000,50€" stay whole.
_PEEL = set(".,!?;:\"()[]{}…«»„“”'’–—")

_P = re.escape("".join(sorted(_PEEL)))
# One peeled edge character, or a core that starts and ends outside _PEEL.
_TOKEN_RE = re.compile(rf"[{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?")
# \w is str.isalnum() plus "_".
_ALNUM_RE = re.compile(r"[^\W_]")


class Token(NamedTuple):
    surface: str
    # Lowercase with umlauts and ß spelled out: the key every table lookup reads.
    folded: str
    start: int
    end: int

    @property
    def is_word(self) -> bool:
        return _ALNUM_RE.search(self.surface) is not None


def tokenize(sentence: str) -> list[Token]:
    """Split ``sentence`` into tokens that cover it losslessly.

    Concatenating the token surfaces with the original inter-token gaps
    reconstructs the input exactly.
    """
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(sentence):
        surface = match.group()
        tokens.append(Token(surface, fold_german(surface), *match.span()))
    return tokens
