"""Corpus-level scoring: per-type literal accuracy plus pooled WER."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from decimal import Decimal, ROUND_HALF_UP

from .distance import edit_distance
from .extract import literal_present
from .types import NO_COUNTS, ExpressionType

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


class TypeCount(namedtuple("TypeCount", "correct total", defaults=(0, 0))):
    __slots__ = ()


class EvalItem(namedtuple("EvalItem", "reference hypothesis expected", defaults=((),))):
    """A reference line, its hypothesis and the (surface, ``ExpressionType``) pairs expected."""

    __slots__ = ()


class EvalReport(namedtuple("EvalReport", "wer_distance wer_tokens counts",
                            defaults=(0, 0, NO_COUNTS))):
    """Raw tallies; every percentage is derived on demand.

    ``counts`` maps an ``ExpressionType`` to its ``TypeCount``.
    """

    __slots__ = ()

    def accuracy(self, expr_type: ExpressionType) -> Decimal | None:
        count = self.counts.get(expr_type)
        if count is None or count.total == 0:
            return None
        return _percent(count.correct, count.total)

    @property
    def average_accuracy(self) -> Decimal | None:
        ratios = [Decimal(c.correct * 100) / Decimal(c.total)
                  for c in self.counts.values() if c.total]
        if not ratios:
            return None
        return _round1(sum(ratios) / len(ratios))


def _percent(numerator: int, denominator: int) -> Decimal:
    return _round1(Decimal(numerator * 100) / Decimal(denominator))


def _round1(value: Decimal) -> Decimal:
    return value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)


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

