"""Fixed pieces of pure-Python work that gauge how fast the machine runs.

On the 2-vCPU virtual machine this benchmark was built on, the same code
runs up to about twice as slowly for seconds to minutes at a time. Nothing
inside the machine shows it: the other vCPU is idle and no steal time is
counted, so the cause is outside (most likely another tenant on the same
physical core). A run that falls wholly into a slow spell would move every
timing by far more than any bound worth setting.

So each measured call is followed by samples of a control, which is the
benchmark's own code and does not change when ``numitn`` does: one, plus
one for every ``EVERY_NS`` the call took, so that the samples spread over
a pass the way its measured time does. A pass's times are scaled by how
fast the control ran during that pass (``speed``): a reported time is what
the call would take at the speed where one sample takes its reference time.

A slow spell does not slow all code alike. On that machine, interpreted
loops over lists slowed most and work done inside C (regular expressions,
``str`` methods, sorting) about two thirds as much, measured as the slope
of log time against the loop control's log time over 1.5 s windows: the
guard's edit distance 1.06, normalize 0.79, verbalize 0.66, a corpus round
0.61, the ``LOOP`` control 1 and the ``TEXT`` control 0.64. Each workload
therefore names the control whose slope is nearest its own, and normalize,
between the two, takes both (``MIXED``).
"""

from __future__ import annotations

import random
import re
import statistics
import time

import inputs
import oracles

LOOP, TEXT, MIXED = "loop", "text", "mixed"
# One more sample for every quarter millisecond of a measured call, up to
# a hundred more.
EVERY_NS, MAX_EXTRA = 250_000, 100

_RNG = random.Random(7)
_PAIR = inputs.numeric_sentence(_RNG, "de", "quantity")
_TEXT = " ".join(inputs.numeric_sentence(_RNG, language, expr_type)[1]
                 for language in inputs.LOCALES for expr_type in inputs.TYPES)
_NUMBER = re.compile(r"\d+(?:[.,:]\d+)*")


def _loop() -> None:
    # The textbook distance between a fixed sentence pair: list indexing
    # and integer arithmetic in the interpreter.
    spoken, written = _PAIR
    oracles.reference_distance(spoken.lower().split(), written.lower().split())


def _text() -> None:
    # Scanning, splitting, sorting and joining a fixed text, all in C.
    _NUMBER.findall(_TEXT)
    " ".join(sorted(_TEXT.split()))


_PARTS = {LOOP: (_loop,), TEXT: (_text,), MIXED: (_loop, _text)}
# About one sample's time on that machine when it runs at full speed.
REFERENCE_NS = {LOOP: 18_000, TEXT: 12_000, MIXED: 30_000}


def sample(kind: str) -> int:
    """Nanoseconds one round of the ``kind`` control takes now."""
    parts = _PARTS[kind]
    start = time.perf_counter_ns()
    for part in parts:
        part()
    return time.perf_counter_ns() - start


def after(kind: str, call_ns: int) -> list[int]:
    """The samples to take after a measured call that took ``call_ns``."""
    return [sample(kind) for _ in range(1 + min(call_ns // EVERY_NS, MAX_EXTRA))]


def speed(kind: str, samples: list[int]) -> float:
    """How fast the machine ran while ``samples`` were taken: 1.0 is the
    reference speed, 0.5 is twice as slow. The median keeps a sample that
    a collector pause or an interrupt stretched from moving it."""
    return REFERENCE_NS[kind] / statistics.median(samples)
