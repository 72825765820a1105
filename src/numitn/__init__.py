"""Locale-aware conversion between number words and numeric literals.

The normalizing direction turns spoken-form transcripts ("nineteen
forty-five", "viertel vor acht") into written form ("1945", "19:45"),
picking year, timestamp, currency or quantity formatting from context.
The verbalizing direction goes back to words. Around that core sit a
WER-based rewrite guard, corpus evaluation, and a synthetic-data
pipeline with manifest tooling.

The package re-exports nothing, so importing it loads no submodule;
import from the submodules. The entry points most callers want are
``numitn.pipeline.normalize_text``, ``numitn.verbalize.verbalize_line``,
``numitn.wer.guard``, ``numitn.evaluate.evaluate`` and
``numitn.datagen.run_generation``.
"""

__version__ = "0.1.0"
