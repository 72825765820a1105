"""Corpus-level scoring: per-type literal accuracy plus pooled WER."""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from typing import Iterable, Mapping, Optional

from .types import ExpressionType
from .wer import edit_distance

_COLUMNS = (
    (ExpressionType.YEAR, "Years"),
    (ExpressionType.TIMESTAMP, "Timestamps"),
    (ExpressionType.CURRENCY, "Currency amounts"),
    (ExpressionType.QUANTITY, "Quantities"),
)

_TSV_FIELDS = ("wer_distance", "wer_tokens",
               "years_correct", "years_total",
               "timestamps_correct", "timestamps_total",
               "currencies_correct", "currencies_total",
               "quantities_correct", "quantities_total")


@dataclass(frozen=True)
class TypeCount:
    correct: int = 0
    total: int = 0


@dataclass(frozen=True)
class EvalItem:
    reference: str
    hypothesis: str
    expected: tuple[tuple[str, ExpressionType], ...] = ()


@dataclass(frozen=True)
class EvalReport:
    """Raw tallies; every percentage is derived on demand."""

    wer_distance: int = 0
    wer_tokens: int = 0
    counts: Mapping[ExpressionType, TypeCount] = field(default_factory=dict)

    @property
    def wer(self) -> float:
        return self.wer_distance / max(self.wer_tokens, 1)

    def accuracy(self, expr_type: ExpressionType) -> Optional[Decimal]:
        count = self.counts.get(expr_type)
        if count is None or count.total == 0:
            return None
        return _percent(count.correct, count.total)

    @property
    def average_accuracy(self) -> Optional[Decimal]:
        ratios = [Decimal(c.correct * 100) / Decimal(c.total)
                  for c in self.counts.values() if c.total]
        if not ratios:
            return None
        return _round1(sum(ratios) / len(ratios))


def _percent(numerator: int, denominator: int) -> Decimal:
    return _round1(Decimal(numerator * 100) / Decimal(denominator))


def _round1(value: Decimal) -> Decimal:
    return value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)


def literal_present(hypothesis: str, surface: str) -> bool:
    """Whether ``surface`` stands whole in ``hypothesis``.

    A match fails when a neighbour continues it: a letter or digit, or a
    ``.``, ``,`` or ``:`` with a digit on its far side, so "1,000" is not
    in "$1,000,000" nor "5" in "5.5". Sentence punctuation after the
    literal still ends it, as in "in 1945." and "In 1945, the war".
    """
    at = hypothesis.find(surface)
    while at != -1:
        end = at + len(surface)
        if not (_continues(hypothesis, at - 1, -1) or _continues(hypothesis, end, 1)):
            return True
        at = hypothesis.find(surface, at + 1)
    return False


def _continues(text: str, i: int, step: int) -> bool:
    """Whether ``text[i]``, beside a match, joins it to a longer word or number."""
    if not 0 <= i < len(text):
        return False
    if text[i].isalnum():
        return True
    far = i + step
    return text[i] in ".,:" and 0 <= far < len(text) and text[far].isdigit()


def evaluate(items: Iterable[EvalItem]) -> EvalReport:
    distance = 0
    tokens = 0
    tallies: dict[ExpressionType, list[int]] = {}
    for item in items:
        ref_tokens = item.reference.split()
        distance += edit_distance(ref_tokens, item.hypothesis.split())
        tokens += len(ref_tokens)
        for surface, expr_type in item.expected:
            tally = tallies.setdefault(expr_type, [0, 0])
            tally[1] += 1
            if literal_present(item.hypothesis, surface):
                tally[0] += 1
    counts = {t: TypeCount(c, n) for t, (c, n) in tallies.items()}
    return EvalReport(distance, tokens, counts)


def render_report(report: EvalReport, fmt: str = "table") -> str:
    if fmt == "tsv":
        values = [report.wer_distance, report.wer_tokens]
        for expr_type, _ in _COLUMNS:
            count = report.counts.get(expr_type, TypeCount())
            values.extend((count.correct, count.total))
        return "\t".join(_TSV_FIELDS) + "\n" + "\t".join(str(v) for v in values)
    if fmt != "table":
        raise ValueError(f"unknown report format: {fmt!r}")
    headers = ["WER"] + [label for _, label in _COLUMNS] + ["Average"]
    cells = [str(_percent(report.wer_distance, max(report.wer_tokens, 1)))]
    for expr_type, _ in _COLUMNS:
        acc = report.accuracy(expr_type)
        cells.append("-" if acc is None else str(acc))
    avg = report.average_accuracy
    cells.append("-" if avg is None else str(avg))
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    body = "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    return f"{head.rstrip()}\n{body.rstrip()}"

