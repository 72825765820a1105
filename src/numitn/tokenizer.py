"""Whitespace tokenizer that peels sentence punctuation off word edges into parallel lists.

Interior punctuation stays attached, so "o'clock", "forty-five", "4:30pm"
and "1.000,50€" each survive as a single token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .lexicon import fold_german

# Characters peeled from token edges. Currency symbols are deliberately
# absent so "$5" and "1.000,50€" stay whole.
_PEEL = set(".,!?;:\"()[]{}…«»„“”'’–—")

_P = re.escape("".join(sorted(_PEEL)))
# One peeled edge character, or a core that starts and ends outside _PEEL.
_TOKEN_RE = re.compile(rf"[{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?")


@dataclass(slots=True)
class Tokens:
    surfaces: list[str]
    # Lowercase with umlauts and ß spelled out: the key every table lookup reads.
    keys: list[str]
    spans: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.surfaces)


def tokenize(sentence: str) -> Tokens:
    """Split ``sentence`` into tokens that cover it losslessly.

    Concatenating the token surfaces with the original inter-token gaps
    reconstructs the input exactly.
    """
    spans = [match.span() for match in _TOKEN_RE.finditer(sentence)]
    surfaces = [sentence[start:end] for start, end in spans]
    if sentence.isascii():
        # ASCII lowercasing keeps every offset, and the fold maps only non-ASCII.
        lowered = sentence.lower()
        return Tokens(surfaces, [lowered[start:end] for start, end in spans], spans)
    return Tokens(surfaces, list(map(fold_german, surfaces)), spans)
