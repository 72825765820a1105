"""Line-oriented command line front end.

Data goes to standard output, diagnostics to standard error. Exit codes:
0 success, 1 operational error (or a line that failed and was reported
as "line N: reason"), 2 misaligned inputs or a usage error.

Each subcommand imports the modules it runs, so a call loads only what
its subcommand needs. The normalizer and the literal extractor are
imported here, where tests replace them by name.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from io import TextIOBase
from itertools import zip_longest

from .extract import extract_numeric_literals
from .locales import DEFAULT_CONFIG, Locale, LocaleConfig, load_locale_config
from .pipeline import normalize_text


class MisalignedInputs(RuntimeError):
    pass


_SENTINEL = object()


def _config(args: argparse.Namespace) -> LocaleConfig:
    if getattr(args, "config", None):
        return load_locale_config(args.config)
    return DEFAULT_CONFIG


def _locale(args: argparse.Namespace) -> tuple[LocaleConfig, Locale]:
    """The config and its ``--locale``; a code it does not define is a usage error."""
    cfg = _config(args)
    if args.locale not in cfg.locales:
        choices = ", ".join(map(repr, cfg.locales))
        args.parser.error(f"argument --locale: invalid choice: {args.locale!r} "
                          f"(choose from {choices})")
    return cfg, cfg.locales[args.locale]


@contextmanager
def _open_in(path: str | None) -> Iterator[TextIOBase]:
    if path in (None, "-"):
        yield sys.stdin
    else:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            yield handle


@contextmanager
def _open_out(path: str | None) -> Iterator[TextIOBase]:
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", errors="surrogateescape") as handle:
            yield handle


def _stripped(handle: TextIOBase) -> Iterator[str]:
    for line in handle:
        yield line.rstrip("\n")


def _paired(items: Iterable, lines: Iterable[str], lines_name: str,
            items_name: str) -> Iterator[tuple]:
    """Each item with its line; a count mismatch raises ``MisalignedInputs``."""
    for item, line in zip_longest(items, lines, fillvalue=_SENTINEL):
        if line is _SENTINEL:
            raise MisalignedInputs(f"{lines_name} has fewer lines than {items_name}")
        if item is _SENTINEL:
            raise MisalignedInputs(f"{lines_name} has more lines than {items_name}")
        yield item, line


def _each_line(args: argparse.Namespace, render: Callable[[int, str], str], *,
               pass_through: bool = True) -> int:
    """Write ``render(line_no, line)`` for every input line.

    A line whose rendering raises ``ValueError`` is reported on stderr as
    "line N: reason" and written unchanged (``pass_through``) or not at
    all; the stream goes on, and the exit status is 1 at the end.
    """
    status = 0
    with _open_in(args.input) as src, _open_out(args.output) as dst:
        for line_no, line in enumerate(_stripped(src), start=1):
            try:
                text = render(line_no, line)
            except ValueError as err:
                print(f"line {line_no}: {err}", file=sys.stderr)
                status = 1
                text = line + "\n" if pass_through else ""
            dst.write(text)
    return status


def _cmd_normalize(args: argparse.Namespace) -> int:
    cfg, locale = _locale(args)
    return _each_line(args, lambda _, line: normalize_text(line, locale, cfg.currencies) + "\n")


def _cmd_verbalize(args: argparse.Namespace) -> int:
    import random

    from .verbalize import verbalize_line

    cfg, locale = _locale(args)
    rng = random.Random(args.seed)
    return _each_line(args, lambda _, line: verbalize_line(line, locale, rng, cfg.currencies) + "\n")


def _cmd_extract(args: argparse.Namespace) -> int:
    cfg, locale = _locale(args)
    return _each_line(args, lambda line_no, line: "".join(
        f"{line_no}\t{expr_type.value}\t{m.group()}\n"
        for expr_type, m in extract_numeric_literals(line, locale, cfg.currencies)),
        pass_through=False)


def _cmd_eval(args: argparse.Namespace) -> int:
    """Score each manifest record against its hypothesis line.

    A bad record is reported as "line N: reason" and skipped with its
    hypothesis line, so the rest stay paired; the exit status is then 1.
    """
    from .evaluate import EvalItem, evaluate, render_report
    from .manifest import ManifestError, iter_manifest_lines
    from .types import ExpressionType

    cfg = _config(args)
    status = 0
    with _open_in(args.hypotheses) as handle:

        def items() -> Iterator[EvalItem]:
            nonlocal status
            for (line_no, record), hypothesis in _paired(
                    iter_manifest_lines(args.manifest), _stripped(handle),
                    "hypothesis file", "the manifest"):
                if args.normalize_before_wer and not isinstance(record, ManifestError) \
                        and record.locale not in cfg.locales:
                    record = ManifestError(f"record {record.id}: unknown locale {record.locale!r}")
                if isinstance(record, ManifestError):
                    print(f"line {line_no}: {record}", file=sys.stderr)
                    status = 1
                    continue
                if args.normalize_before_wer:
                    hypothesis = normalize_text(
                        hypothesis, cfg.locales[record.locale], cfg.currencies)
                expected = tuple((surface, ExpressionType(expr_type))
                                 for surface, expr_type in record.expressions)
                yield EvalItem(record.formatted, hypothesis, expected)

        report = evaluate(items())
    print(render_report(report, args.format))
    return status


def _cmd_guard(args: argparse.Namespace) -> int:
    from .wer import GuardConfig, guard

    config = GuardConfig(args.threshold)
    with _open_in(args.source) as src, _open_in(args.rewritten) as rew:
        pairs = _paired(_stripped(src), _stripped(rew), "rewritten file", "source")
        for line_no, (source, rewritten) in enumerate(pairs, start=1):
            decision = guard(source, rewritten, config)
            print(decision.text)
            verdict = "kept" if decision.kept else "reverted"
            print(f"line {line_no}: {verdict} wer={decision.wer:.3f}",
                  file=sys.stderr)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from .datagen import (
        DEFAULT_VOICES,
        GenerationError,
        GenerationPlan,
        MockSpeechSynthesizer,
        RuleBasedTextGenerator,
        run_generation,
    )
    from .manifest import write_manifest
    from .types import ExpressionType

    cfg, locale = _locale(args)
    counts = {
        ExpressionType.YEAR: args.years,
        ExpressionType.TIMESTAMP: args.timestamps,
        ExpressionType.CURRENCY: args.currencies,
        ExpressionType.QUANTITY: args.quantities,
    }
    plan = GenerationPlan(
        locale=locale,
        counts={t: n for t, n in counts.items() if n},
        sweep_timestamp_phrasings=args.sweep_timestamps,
        batch_size=args.batch_size,
        voices=tuple(args.voices.split(",")) if args.voices else DEFAULT_VOICES,
        seed=args.seed,
    )
    textgen = RuleBasedTextGenerator(locale, args.seed, cfg.currencies)
    try:
        records, stats = run_generation(plan, textgen, MockSpeechSynthesizer(), cfg.currencies)
    except GenerationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.out:
        write_manifest(records, args.out)
    else:
        for record in records:
            print(record.to_json())
    print(f"prompts={stats.prompts_issued} sentences={stats.sentences_generated} "
          f"accepted={stats.accepted} discarded={stats.discarded} "
          f"failures={len(stats.failures)}", file=sys.stderr)
    for failure in stats.failures:
        print(f"failure: {failure}", file=sys.stderr)
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    """Split the manifest; a line that holds no record is reported and left out."""
    import os

    from .datagen import SplitSpec, corpus_statistics, split_disjoint
    from .manifest import ManifestError, iter_manifest_lines, write_manifest

    spec = SplitSpec(args.train, args.dev, args.test, args.seed)
    records, status = [], 0
    for line_no, entry in iter_manifest_lines(args.manifest):
        if isinstance(entry, ManifestError):
            print(f"line {line_no}: {entry}", file=sys.stderr)
            status = 1
        else:
            records.append(entry)
    train, dev, test = split_disjoint(records, spec)
    os.makedirs(args.out_dir, exist_ok=True)
    named = {"train": train, "dev": dev, "test": test}
    for name, part in named.items():
        write_manifest(part, os.path.join(args.out_dir, f"{name}.jsonl"))
    print(corpus_statistics(named), file=sys.stderr)
    return status


def _parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="numitn",
        description="Normalize, verbalize and evaluate numeric expressions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_locale(p: argparse.ArgumentParser) -> None:
        p.add_argument("--locale", required=True,
                       help="en, de or a locale defined in --config")
        p.add_argument("--config", help="JSON file overriding locale conventions")
        p.set_defaults(parser=p)

    p = sub.add_parser("normalize", help="number words to numeric literals")
    add_locale(p)
    p.add_argument("input", nargs="?", help="input file, default stdin")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("verbalize", help="numeric literals to number words")
    add_locale(p)
    p.add_argument("input", nargs="?")
    p.add_argument("-o", "--output")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verbalize)

    p = sub.add_parser("extract", help="list formatted literals per line")
    add_locale(p)
    p.add_argument("input", nargs="?")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("eval", help="score hypotheses against a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--format", choices=("table", "tsv"), default="table")
    p.add_argument("--normalize-before-wer", action="store_true")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("guard", help="revert rewrites that drift too far")
    p.add_argument("source")
    p.add_argument("rewritten")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=_cmd_guard)

    p = sub.add_parser("gen", help="generate a synthetic corpus manifest")
    add_locale(p)
    p.add_argument("--years", type=int, default=0)
    p.add_argument("--timestamps", type=int, default=0)
    p.add_argument("--currencies", type=int, default=0)
    p.add_argument("--quantities", type=int, default=0)
    p.add_argument("--sweep-timestamps", action="store_true",
                   help="one sentence per timestamp phrase family and hour")
    p.add_argument("--batch-size", type=int, default=5)
    p.add_argument("--voices", help="comma-separated voice names")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="manifest path, default stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("split", help="pairwise-disjoint train/dev/test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--train", type=float, default=0.7)
    p.add_argument("--dev", type=float, default=0.1)
    p.add_argument("--test", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_split)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except MisalignedInputs as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
