"""Word error rate and the rewrite guard built on it."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distance import edit_distance


def word_error_rate(reference: str, hypothesis: str) -> float:
    """Token-level edit distance over the reference length.

    Tokens are whitespace-separated words. An empty reference scores 0.0
    against itself and len(hypothesis) otherwise; the max(len, 1) floor
    keeps the division defined.
    """
    ref_tokens = reference.split()
    hyp_tokens = hypothesis.split()
    distance = edit_distance(ref_tokens, hyp_tokens)
    return distance / max(len(ref_tokens), 1)


@dataclass(frozen=True)
class GuardConfig:
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold) or self.threshold < 0:
            raise ValueError("threshold must be finite and non-negative")


@dataclass(frozen=True)
class GuardDecision:
    kept: bool
    wer: float
    text: str


def guard(source: str, rewritten: str, config: GuardConfig = GuardConfig()) -> GuardDecision:
    """Accept a rewrite unless it drifted too far from the source.

    The comparison is exact at the boundary: a rewrite scoring exactly the
    threshold is kept. Distances and token counts are small integers, so
    the float ratio is exact for the k/2k cases the default cares about.
    """
    rate = word_error_rate(source, rewritten)
    if rate <= config.threshold:
        return GuardDecision(True, rate, rewritten)
    return GuardDecision(False, rate, source)
