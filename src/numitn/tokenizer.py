"""Whitespace tokenizer that peels sentence punctuation off word edges.

Interior punctuation stays attached, so "o'clock", "forty-five", "4:30pm"
and "1.000,50€" each survive as a single token. One regex split gives a
line's parts: gap, token, gap, …, gap. The keys are one fold of the
surfaces joined by spaces: no token holds a space, and ``lower()`` reads
no context across one, not even for a final sigma.
"""

from __future__ import annotations

import re
from itertools import accumulate

from .lexicon import fold_german

# Characters peeled from token edges. Currency symbols are deliberately
# absent so "$5" and "1.000,50€" stay whole.
_PEEL = set(".,!?;:\"()[]{}…«»„“”'’–—")

_P = re.escape("".join(sorted(_PEEL)))
# One peeled edge character, or a core that starts and ends outside _PEEL;
# the group makes ``split`` keep the tokens between the gaps.
_TOKEN_RE = re.compile(rf"([{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?)")


class Tokens:
    """A line's parts, its token surfaces ``parts[1::2]`` and their keys; ``len`` counts tokens."""

    __slots__ = ("parts", "surfaces", "keys")

    def __init__(self, parts: list[str], surfaces: list[str], keys: list[str]) -> None:
        # Keys are lowercase with umlauts and ß spelled out: what every table lookup reads.
        self.parts, self.surfaces, self.keys = parts, surfaces, keys

    def __len__(self) -> int:
        return len(self.surfaces)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Tokens and (self.parts, self.surfaces, self.keys) == (
            other.parts, other.surfaces, other.keys)

    def __repr__(self) -> str:
        return f"Tokens(parts={self.parts!r}, surfaces={self.surfaces!r}, keys={self.keys!r})"

    def offsets(self) -> list[int]:
        """Where each part ends: token ``i`` covers ``offsets[2 * i]:offsets[2 * i + 1]``."""
        return list(accumulate(map(len, self.parts)))


def tokenize(sentence: str) -> Tokens:
    """Split ``sentence`` into tokens that cover it losslessly."""
    parts = _TOKEN_RE.split(sentence)
    surfaces = parts[1::2]
    keys = fold_german(" ".join(surfaces)).split(" ") if surfaces else []
    return Tokens(parts, surfaces, keys)
