"""Locale-aware conversion between number words and numeric literals.

The normalizing direction turns spoken-form transcripts ("nineteen
forty-five", "viertel vor acht") into written form ("1945", "19:45"),
picking year, timestamp, currency or quantity formatting from context.
The verbalizing direction goes back to words. Around that core sit a
WER-based rewrite guard, corpus evaluation, and a synthetic-data
pipeline with manifest tooling.
"""

from .evaluate import EvalItem, EvalReport, evaluate, render_report
from .extract import LiteralMatch, extract_numeric_literals
from .locales import DEFAULT_CONFIG, CurrencyUnit, Locale, LocaleConfig
from .manifest import ManifestError, ManifestRecord, read_manifest, write_manifest
from .pipeline import NormalizationOutcome, NormalizedExpression, normalize_sentence, normalize_text
from .types import (
    ExpressionType,
    MoneyAmount,
    NumericValue,
    ParsedExpression,
    PeriodHint,
    Span,
    TimeOfDay,
)
from .verbalize import enumerate_timestamp_phrasings, verbalize_line, verbalize_value
from .wer import GuardConfig, GuardDecision, edit_distance, guard, word_error_rate

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONFIG",
    "CurrencyUnit",
    "EvalItem",
    "EvalReport",
    "ExpressionType",
    "GuardConfig",
    "GuardDecision",
    "LiteralMatch",
    "Locale",
    "LocaleConfig",
    "ManifestError",
    "ManifestRecord",
    "MoneyAmount",
    "NormalizationOutcome",
    "NormalizedExpression",
    "NumericValue",
    "ParsedExpression",
    "PeriodHint",
    "Span",
    "TimeOfDay",
    "edit_distance",
    "enumerate_timestamp_phrasings",
    "evaluate",
    "extract_numeric_literals",
    "guard",
    "normalize_sentence",
    "normalize_text",
    "read_manifest",
    "render_report",
    "verbalize_line",
    "verbalize_value",
    "word_error_rate",
    "write_manifest",
]
