"""Word-level edit distance, shared by WER, the guard and corpus scoring."""

from __future__ import annotations

from collections.abc import Sequence


def edit_distance(reference: Sequence[str], hypothesis: Sequence[str]) -> int:
    """Levenshtein distance with unit costs over token sequences.

    Symmetric in its arguments. The tokens the two sides share at their
    start and at their end are stripped first; this is exact, since some
    optimal alignment matches equal end tokens. What remains is scored
    bit-parallel: Myers 1999 ("A fast bit-vector algorithm for approximate
    string matching based on dynamic programming") in the global form of
    Hyyrö 2003 ("A bit-vector algorithm for computing Levenshtein and
    Damerau edit distances"). The longer middle is the pattern, one bit
    per token, and a DP column is held as its vertical +1/-1 deltas
    (``pv``/``mv``) in Python ints, which need no blocking however long
    the line. Every complement is ``y ^ mask`` rather than ``~y``, so all
    vectors stay non-negative and at most n + 2 bits wide: ``~y`` and
    ``y ^ mask`` agree on the low n bits, and carries and left shifts move
    bits only upward. The score is read once, from the last column: row 0
    plus its deltas. The cost is about min(n, m) steps of 17 integer
    operations each, where n and m are the middles' lengths; an operation
    spans about max(n, m) bits, one machine word up to 64 tokens.
    """
    if len(reference) < len(hypothesis):
        reference, hypothesis = hypothesis, reference
    n, m = len(reference), len(hypothesis)
    start = 0
    while start < m and reference[start] == hypothesis[start]:
        start += 1
    while m > start and reference[n - 1] == hypothesis[m - 1]:
        n -= 1
        m -= 1
    if m == start:
        return n - m
    peq: dict[str, int] = {}
    bit = 1
    for token in reference[start:n]:
        peq[token] = peq.get(token, 0) | bit
        bit <<= 1
    mask = bit - 1
    pv, mv = mask, 0
    for token in hypothesis[start:m]:
        x = peq.get(token, 0) | mv
        d0 = (((x & pv) + pv) ^ pv) | x
        hp = mv | ((d0 | pv) ^ mask)
        hn = pv & d0
        # Row 0 of the global DP grows by one per column: carry a +1 in.
        hp = hp << 1 | 1
        pv = (hn << 1 | ((d0 | hp) ^ mask)) & mask
        mv = hp & d0
    # mv needs no mask, by induction from mv = 0. Its bit n is set only
    # where hp's top bit before the shift and d0's bit n both are. The
    # first needs pv's top bit clear (pv and mv are disjoint); the second
    # is then a carry out of (x & pv) + pv, which needs that bit set.
    return m - start + pv.bit_count() - mv.bit_count()
