"""Checks that do not ask the code under test what the right answer is."""

from __future__ import annotations

import re
from typing import Iterable, Sequence

# The verbalizer appends a day period to 12-hour phrasings ("quarter past
# seven in the evening") and the normalizer keeps that phrase after the
# literal it writes, so a round trip may only differ by it.
_PERIOD_AFTER_TIME = re.compile(
    r"(\d:\d\d)(?: in the (?:morning|afternoon|evening)| (?:morgens|nachmittags|abends))")


def reference_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Textbook Levenshtein DP over tokens, one row at a time."""
    row = list(range(len(b) + 1))
    for i, token in enumerate(a, start=1):
        diagonal, row[0] = row[0], i
        for j, other in enumerate(b, start=1):
            diagonal, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1,
                                           diagonal + (token != other))
    return row[-1]


def bit_vector_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """The same distance by Myers' bit-vector algorithm (Hyyrö 2003 form).

    Column j of the DP is kept as vertical +1/-1 deltas in ``pv``/``mv``,
    one bit per token of ``a``. It checks the later passes, where the
    textbook DP would cost more than the measured calls; every run first
    requires it to agree with ``reference_distance`` on pass one."""
    if not a:
        return len(b)
    peq: dict[str, int] = {}
    for i, token in enumerate(a):
        peq[token] = peq.get(token, 0) | 1 << i
    mask, top = (1 << len(a)) - 1, 1 << (len(a) - 1)
    pv, mv, score = mask, 0, len(a)
    for token in b:
        eq = peq.get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) & mask
        mh = pv & xh
        score += (ph & top != 0) - (mh & top != 0)
        # Row 0 of the DP grows by one per column, hence the 1 shifted in.
        ph = (ph << 1 | 1) & mask
        mh = (mh << 1) & mask
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def round_trip_ok(normalized_back: object, written: str) -> bool:
    """verbalize then normalize gives the written line back."""
    if not isinstance(normalized_back, str):
        return False
    return (normalized_back == written
            or _PERIOD_AFTER_TIME.sub(r"\1", normalized_back) == written)


def verbalize_ok(output: object) -> bool:
    """A verbalized line carries no digits (the probe line aside)."""
    return isinstance(output, str) and not any(ch.isdigit() for ch in output)


def guard_ok(decision: object, source: str, rewritten: str, distance: int,
             threshold: float) -> bool:
    """WER equals the reference distance over the source length, and the
    decision keeps the rewrite exactly when WER is at most the threshold."""
    rate = distance / max(len(source.split()), 1)
    kept = rate <= threshold
    return (getattr(decision, "wer", None) == rate
            and getattr(decision, "kept", None) == kept
            and getattr(decision, "text", None) == (rewritten if kept else source))


def report_ok(report: object) -> bool:
    """Self-evaluation: WER 0 and 100.0 on every type present."""
    counts = getattr(report, "counts", None)
    if not counts or getattr(report, "wer_distance", None) != 0:
        return False
    return all(c.total > 0 and c.correct == c.total for c in counts.values())


def split_ok(parts: Sequence[Iterable[tuple[str, tuple[str, ...]]]], all_ids: set[str]) -> bool:
    """Splits are non-empty, pairwise surface-disjoint and lose no record.

    Each part is a list of (record id, expression surfaces)."""
    surfaces: list[set[str]] = []
    ids: list[str] = []
    for part in parts:
        part = list(part)
        if not part:
            return False
        ids.extend(record_id for record_id, _ in part)
        surfaces.append({s for _, found in part for s in found})
    disjoint = all(not (surfaces[i] & surfaces[j])
                   for i in range(len(surfaces)) for j in range(i + 1, len(surfaces)))
    return disjoint and len(ids) == len(set(ids)) and set(ids) == all_ids
