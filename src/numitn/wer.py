"""Word error rate and the rewrite guard built on it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def edit_distance(reference: Sequence[str], hypothesis: Sequence[str]) -> int:
    """Levenshtein distance with unit costs over token sequences.

    Symmetric in its arguments. Bit-parallel: Myers 1999 ("A fast
    bit-vector algorithm for approximate string matching based on dynamic
    programming") in the global form of Hyyrö 2003 ("A bit-vector
    algorithm for computing Levenshtein and Damerau edit distances"). The
    longer side is the pattern, one bit per token, and a DP column is held
    as its vertical +1/-1 deltas (``pv``/``mv``) in Python ints, which
    need no blocking however long the line. The cost is about min(n, m)
    word-sized steps of a dozen integer operations each; an operation
    spans max(n, m) bits, one machine word up to 64 tokens.
    """
    if len(reference) < len(hypothesis):
        reference, hypothesis = hypothesis, reference
    if not hypothesis:
        return len(reference)
    peq: dict[str, int] = {}
    for i, token in enumerate(reference):
        peq[token] = peq.get(token, 0) | 1 << i
    mask = (1 << len(reference)) - 1
    top = 1 << (len(reference) - 1)
    pv, mv, score = mask, 0, len(reference)
    for token in hypothesis:
        eq = peq.get(token, 0)
        x = eq | mv
        d0 = (((x & pv) + pv) ^ pv) | x
        hp = mv | ~(d0 | pv)
        hn = pv & d0
        if hp & top:
            score += 1
        elif hn & top:
            score -= 1
        # Row 0 of the global DP grows by one per column: carry a +1 in.
        hp = hp << 1 | 1
        pv = (hn << 1 | ~(d0 | hp)) & mask
        mv = hp & d0
    return score


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
