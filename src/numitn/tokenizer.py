"""Whitespace tokenizer that peels sentence punctuation off word edges into parallel lists.

Interior punctuation stays attached, so "o'clock", "forty-five", "4:30pm"
and "1.000,50€" each survive as a single token.
"""

from __future__ import annotations

import re

from .lexicon import fold_german

# Characters peeled from token edges. Currency symbols are deliberately
# absent so "$5" and "1.000,50€" stay whole.
_PEEL = set(".,!?;:\"()[]{}…«»„“”'’–—")

_P = re.escape("".join(sorted(_PEEL)))
# One peeled edge character, or a core that starts and ends outside _PEEL.
_TOKEN_RE = re.compile(rf"[{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?")


class Tokens:
    """Parallel lists of surfaces, keys and char spans; ``len`` counts tokens."""

    __slots__ = ("surfaces", "keys", "spans")

    def __init__(self, surfaces: list[str], keys: list[str],
                 spans: list[tuple[int, int]]) -> None:
        # Keys are lowercase with umlauts and ß spelled out: what every table lookup reads.
        self.surfaces, self.keys, self.spans = surfaces, keys, spans

    def __len__(self) -> int:
        return len(self.surfaces)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Tokens and (self.surfaces, self.keys, self.spans) == (
            other.surfaces, other.keys, other.spans)

    def __repr__(self) -> str:
        return f"Tokens(surfaces={self.surfaces!r}, keys={self.keys!r}, spans={self.spans!r})"


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
