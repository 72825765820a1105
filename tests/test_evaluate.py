from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from numitn.evaluate import (
    EvalItem,
    EvalReport,
    TypeCount,
    evaluate,
    literal_present,
    render_report,
)
from numitn.types import ExpressionType


class TestLiteralPresent:
    @pytest.mark.parametrize("hypothesis,surface,expected", [
        ("The war ended in 1945.", "1945", True),
        ("The war ended in 1945", "1945", True),
        ("1945", "1945", True),
        ("It was 19450 then.", "1945", False),
        ("It was 21945 then.", "1945", False),
        ("at 19:45 sharp", "19:45", True),
        ("Pay $1,000.50 now", "$1,000.50", True),
        ("Pay $1,000.501 now", "$1,000.50", False),
        ("Es kostet 1.000,50€.", "1.000,50€", True),
        ("raised $9.1 million.", "$9.1 million", True),
        ("nothing here", "1945", False),
        # Later occurrence can satisfy the match when the first is embedded.
        ("x19:45 then 19:45.", "19:45", True),
        # A ".", "," or ":" with a digit beyond it continues the number.
        ("$1,000,000", "1,000", False),
        ("5.5", "5", False),
        ("19:45:30", "19:45", False),
        ("1.000.000€", "1.000", False),
        ("2.5 million", "2", False),
        ("In 1945, the war", "1945", True),
        ("in 1945.", "1945", True),
        ("Meet at 19:45: bring the map", "19:45", True),
        ("pay 5.5 or 5 now", "5", True),
    ])
    def test_table(self, hypothesis, surface, expected):
        assert literal_present(hypothesis, surface) is expected


class TestEvaluate:
    def test_counts_and_wer(self):
        items = [
            EvalItem("the war ended in 1945.", "the war ended in 1945.",
                     (("1945", ExpressionType.YEAR),)),
            EvalItem("pay $50 now", "pay 50 dollars now",
                     (("$50", ExpressionType.CURRENCY),)),
            EvalItem("meet at 19:45", "meet at 19:45",
                     (("19:45", ExpressionType.TIMESTAMP),)),
        ]
        report = evaluate(items)
        assert report.counts[ExpressionType.YEAR] == TypeCount(1, 1)
        assert report.counts[ExpressionType.CURRENCY] == TypeCount(0, 1)
        assert report.counts[ExpressionType.TIMESTAMP] == TypeCount(1, 1)
        # "pay $50 now" vs "pay 50 dollars now": one substitution plus one
        # insertion over 11 reference tokens total.
        assert report.wer_distance == 2
        assert report.wer_tokens == 11

    def test_literal_inside_longer_number_is_missed(self):
        items = [EvalItem("pay $1,000", "pay $1,000,000",
                          (("1,000", ExpressionType.QUANTITY),))]
        report = evaluate(items)
        assert report.counts[ExpressionType.QUANTITY] == TypeCount(0, 1)

    def test_empty(self):
        report = evaluate([])
        assert (report.wer_distance, report.wer_tokens) == (0, 0)
        assert report.average_accuracy is None

    def test_multiple_expressions_per_item(self):
        items = [EvalItem("a", "has 1945 and 19:45",
                          (("1945", ExpressionType.YEAR),
                           ("19:45", ExpressionType.TIMESTAMP)))]
        report = evaluate(items)
        assert report.counts[ExpressionType.YEAR].correct == 1
        assert report.counts[ExpressionType.TIMESTAMP].correct == 1


class TestRounding:
    def test_half_up(self):
        assert EvalReport(counts={ExpressionType.YEAR: TypeCount(1, 8)}) \
            .accuracy(ExpressionType.YEAR) == Decimal("12.5")
        assert EvalReport(counts={ExpressionType.YEAR: TypeCount(57649, 100000)}) \
            .accuracy(ExpressionType.YEAR) == Decimal("57.6")
        assert EvalReport(counts={ExpressionType.YEAR: TypeCount(57650, 100000)}) \
            .accuracy(ExpressionType.YEAR) == Decimal("57.7")

    def test_average_uses_unrounded_ratios(self):
        counts = {
            ExpressionType.YEAR: TypeCount(1, 3),        # 33.33...
            ExpressionType.TIMESTAMP: TypeCount(1, 2),   # 50.0
            ExpressionType.CURRENCY: TypeCount(2, 3),    # 66.66...
            ExpressionType.QUANTITY: TypeCount(3, 4),    # 75.0
        }
        # Mean of the exact ratios is 56.25 -> 56.3; averaging the rounded
        # cells (33.3, 50.0, 66.7, 75.0) would give 56.25 -> 56.3 too, but
        # (1/3, 1/3) style cases diverge, so pin the exact path.
        assert EvalReport(counts=counts).average_accuracy == Decimal("56.3")

    def test_average_skips_absent_types(self):
        counts = {ExpressionType.YEAR: TypeCount(1, 2),
                  ExpressionType.QUANTITY: TypeCount(0, 0)}
        assert EvalReport(counts=counts).average_accuracy == Decimal("50.0")

    def test_zero_total_accuracy_is_none(self):
        assert EvalReport().accuracy(ExpressionType.YEAR) is None


# The per-type columns of a TSV report, and the tally behind each.
_TSV_COLUMNS = (("years", ExpressionType.YEAR), ("timestamps", ExpressionType.TIMESTAMP),
                ("currencies", ExpressionType.CURRENCY), ("quantities", ExpressionType.QUANTITY))


def _tsv_fields(report):
    """Each column of a TSV report with the tally it must hold, in column order."""
    fields = [("wer_distance", report.wer_distance), ("wer_tokens", report.wer_tokens)]
    for name, expr_type in _TSV_COLUMNS:
        count = report.counts.get(expr_type, TypeCount())
        fields += [(f"{name}_correct", count.correct), (f"{name}_total", count.total)]
    return fields


def _read_tsv(text):
    header, values = text.split("\n")
    return list(zip(header.split("\t"), map(int, values.split("\t")), strict=True))


class TestRendering:
    REPORT = EvalReport(3, 100, {
        ExpressionType.YEAR: TypeCount(9, 10),
        ExpressionType.TIMESTAMP: TypeCount(8, 10),
        ExpressionType.CURRENCY: TypeCount(10, 10),
        ExpressionType.QUANTITY: TypeCount(7, 10),
    })

    def test_table(self):
        table = render_report(self.REPORT, "table")
        head, body = table.splitlines()
        assert head.split("  ")[0] == "WER"
        assert "Years" in head and "Currency amounts" in head and "Average" in head
        assert body.startswith("3.0")
        assert "90.0" in body and "85.0" in body

    def test_table_marks_missing_types(self):
        report = EvalReport(0, 10, {ExpressionType.YEAR: TypeCount(1, 1)})
        body = render_report(report, "table").splitlines()[1]
        assert "-" in body

    def test_tsv(self):
        tsv = render_report(self.REPORT, "tsv")
        header, values = tsv.splitlines()
        assert header.split("\t")[:3] == ["wer_distance", "wer_tokens", "years_correct"]
        assert values.split("\t") == [
            "3", "100", "9", "10", "8", "10", "10", "10", "7", "10"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(self.REPORT, "csv")

    def test_tsv_round_trip(self):
        assert _read_tsv(render_report(self.REPORT, "tsv")) == _tsv_fields(self.REPORT)


counts_strategy = st.dictionaries(
    st.sampled_from(list(ExpressionType)),
    st.tuples(st.integers(0, 50), st.integers(1, 50)).map(
        lambda t: TypeCount(min(t), max(t))),
    max_size=4)


@given(st.integers(0, 500), st.integers(1, 500), counts_strategy)
def test_tsv_round_trip_property(distance, tokens, counts):
    report = EvalReport(distance, tokens, counts)
    assert _read_tsv(render_report(report, "tsv")) == _tsv_fields(report)
