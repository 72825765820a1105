import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numitn
from numitn.cli import main
from numitn.manifest import ManifestError, ManifestRecord, read_manifest

from test_locales import MALFORMED_CONFIGS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(numitn.__file__).resolve().parent.parent)


def run_process(*argv, stdin=b""):
    """The CLI in a child process in UTF-8 mode, with bytes in and out."""
    env = {**os.environ, "PYTHONUTF8": "1", "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", "import sys; from numitn.cli import main; sys.exit(main())",
         *argv], input=stdin, capture_output=True, env=env, check=False)


class TestNormalize:
    def test_file_to_stdout(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("The war ended in nineteen forty-five.\n"
                       "No numbers here.\n", encoding="utf-8")
        code, out, err = run(capsys, "normalize", "--locale", "en", str(src))
        assert code == 0
        assert out == "The war ended in 1945.\nNo numbers here.\n"

    def test_output_file(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("zweitausend Teile\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        code, out, _ = run(capsys, "normalize", "--locale", "de", str(src),
                           "-o", str(dst))
        assert code == 0
        assert out == ""
        assert dst.read_text(encoding="utf-8") == "2.000 Teile\n"

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "normalize", "--locale", "en",
                           "/nonexistent/input.txt")
        assert code == 1
        assert "error:" in err

    def test_config_override(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"currencies": {"USD": {"symbol": "US$"}}}',
                          encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("fifty dollars\n", encoding="utf-8")
        code, out, _ = run(capsys, "normalize", "--locale", "en",
                           "--config", str(config), str(src))
        assert code == 0
        assert out == "US$50\n"

    def test_to_hour_zero_passes_through(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("It is quarter to 0.\nfifty dollars\n", encoding="utf-8")
        code, out, err = run(capsys, "normalize", "--locale", "en", str(src))
        assert code == 0
        assert out == "It is quarter to 0.\n$50\n"
        assert err == ""

    def test_config_language_without_grammar_exits_1(self, tmp_path, capsys):
        config = tmp_path / "fr.json"
        config.write_text('{"locales": {"en": {"language": "fr"}}}',
                          encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("fifty dollars\n", encoding="utf-8")
        code, out, err = run(capsys, "normalize", "--locale", "en",
                             "--config", str(config), str(src))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestUndecodableBytes:
    """A byte that is not UTF-8 passes through a file as it does through stdin."""

    @pytest.mark.parametrize("command,data,expected", [
        ("normalize", b"five\n\xff bad\nsix\n", b"5\n\xff bad\n6\n"),
        ("verbalize", b"5\n\xff bad\n6\n", b"five\n\xff bad\nsix\n"),
    ])
    def test_file_and_stdin_give_the_same_bytes(self, tmp_path, command, data, expected):
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_bytes(data)
        piped = run_process(command, "--locale", "en", stdin=data)
        from_file = run_process(command, "--locale", "en", str(src))
        to_file = run_process(command, "--locale", "en", str(src), "-o", str(dst))
        assert (piped.returncode, piped.stdout, piped.stderr) == (0, expected, b"")
        assert (from_file.returncode, from_file.stdout, from_file.stderr) == (0, expected, b"")
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
        assert dst.read_bytes() == expected


class TestVerbalize:
    def test_round_trip(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("Pay $1,945 now.\n", encoding="utf-8")
        code, out, _ = run(capsys, "verbalize", "--locale", "en", str(src))
        assert code == 0
        assert out == "Pay one thousand nine hundred forty-five dollars now.\n"

    def test_seed_changes_styles(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("at 19:45\n" * 6, encoding="utf-8")
        outs = set()
        for seed in ("1", "2", "3"):
            _, out, _ = run(capsys, "verbalize", "--locale", "en", str(src),
                            "--seed", seed)
            outs.add(out)
        assert len(outs) > 1

    def test_seed_is_reproducible(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("at 19:45 we left\n", encoding="utf-8")
        _, a, _ = run(capsys, "verbalize", "--locale", "en", str(src),
                      "--seed", "7")
        _, b, _ = run(capsys, "verbalize", "--locale", "en", str(src),
                      "--seed", "7")
        assert a == b
        assert "19:45" not in a

    @pytest.mark.parametrize("locale,line,words", [
        ("de", "Es kostet 5 Millionen€.", "Es kostet fünf Millionen Euro."),
        ("de", "Es sind 5 Millionen.", "Es sind fünf Millionen."),
        ("en", "It cost $5 Million.", "It cost five Million dollars."),
        ("en", "They are 5 Million strong.", "They are five Million strong."),
    ])
    def test_config_symbol_inside_a_magnitude_word(self, tmp_path, capsys, locale, line, words):
        # "Mi" is the currency symbol the literal's pattern did not match.
        config = tmp_path / "cfg.json"
        config.write_text('{"currencies": {"XMI": {"symbol": "Mi"}}}', encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text(line + "\n", encoding="utf-8")
        code, out, err = run(capsys, "verbalize", "--locale", locale,
                             "--config", str(config), str(src))
        assert (code, out, err) == (0, words + "\n", "")


class TestExtract:
    def test_tsv_lines(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("Pay $50 at 19:45.\nnothing\nin 1999\n", encoding="utf-8")
        code, out, _ = run(capsys, "extract", "--locale", "en", str(src))
        assert code == 0
        assert out.splitlines() == [
            "1\tcurrency\t$50",
            "1\ttimestamp\t19:45",
            "3\tyear\t1999",
        ]

    @pytest.mark.parametrize("symbols,line", [
        # Symbols whose first characters must be escaped inside a class.
        (["^", "]x", "\\"], "pay ^5 and ]x7 and \\9 now"),
        # Symbols that share a first character.
        (["$$", "U$", "US$"], "pay $$5 and U$7 and US$9 now"),
    ])
    def test_config_prefix_symbols(self, tmp_path, capsys, symbols, line):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"currencies": {
            f"X{i}Y": {"symbol": symbol} for i, symbol in enumerate(symbols)}}),
            encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text(line + "\n", encoding="utf-8")
        code, out, err = run(capsys, "extract", "--locale", "en",
                             "--config", str(config), str(src))
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"1\tcurrency\t{symbol}{digit}"
                                    for symbol, digit in zip(symbols, "579")]


class TestGuard:
    def test_decisions(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        rew = tmp_path / "rew.txt"
        src.write_text("the cat sat on the mat\none two\n", encoding="utf-8")
        rew.write_text("the cat sat on the hat\nwildly different words here\n",
                       encoding="utf-8")
        code, out, err = run(capsys, "guard", str(src), str(rew))
        assert code == 0
        assert out.splitlines() == ["the cat sat on the hat", "one two"]
        assert "line 1: kept wer=0.167" in err
        assert "line 2: reverted wer=2.000" in err
        # A fresh interpreter, which imports the guard only when it runs,
        # writes the same bytes.
        done = run_process("guard", str(src), str(rew))
        assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())

    def test_threshold_flag(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        rew = tmp_path / "rew.txt"
        src.write_text("a b\n", encoding="utf-8")
        rew.write_text("a c\n", encoding="utf-8")
        code, out, _ = run(capsys, "guard", str(src), str(rew),
                           "--threshold", "0.4")
        assert code == 0
        assert out == "a b\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exits_1(self, tmp_path, capsys, threshold):
        src = tmp_path / "src.txt"
        src.write_text("a b\n", encoding="utf-8")
        code, out, err = run(capsys, "guard", str(src), str(src),
                             "--threshold", threshold)
        assert code == 1
        assert out == ""
        assert err.startswith("error: threshold")

    def test_misaligned_exits_2(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        rew = tmp_path / "rew.txt"
        src.write_text("one\ntwo\n", encoding="utf-8")
        rew.write_text("one\n", encoding="utf-8")
        code, _, err = run(capsys, "guard", str(src), str(rew))
        assert code == 2
        assert "fewer lines" in err


class TestGenSplitEval:
    def gen_manifest(self, tmp_path, capsys, locale="en"):
        tmp_path.mkdir(parents=True, exist_ok=True)
        path = tmp_path / "manifest.jsonl"
        code, _, err = run(capsys, "gen", "--locale", locale,
                           "--years", "6", "--timestamps", "6",
                           "--currencies", "6", "--quantities", "6",
                           "--seed", "3", "--out", str(path))
        assert code == 0
        assert "accepted=" in err
        return path

    def test_gen_writes_valid_manifest(self, tmp_path, capsys):
        path = self.gen_manifest(tmp_path, capsys)
        records = read_manifest(path)
        assert len(records) == 24
        assert {r.type for r in records} == \
            {"year", "timestamp", "currency", "quantity"}

    def test_gen_stdout_is_jsonl(self, capsys):
        code, out, _ = run(capsys, "gen", "--locale", "de", "--years", "2",
                           "--seed", "1")
        assert code == 0
        for line in out.splitlines():
            assert json.loads(line)["locale"] == "de"

    def test_gen_is_deterministic(self, tmp_path, capsys):
        a = self.gen_manifest(tmp_path / "a", capsys)
        b = self.gen_manifest(tmp_path / "b", capsys)
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")

    @pytest.mark.parametrize("locale,code,symbol,said", [
        ("en", "USD", "US$", "dollar"), ("de", "EUR", "EUR", "Euro")])
    def test_gen_formats_with_the_config_currencies(self, tmp_path, capsys, locale, code,
                                                    symbol, said):
        # normalize --config writes the config's symbol, so gen --config must too.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"currencies": {code: {"symbol": symbol}}}),
                          encoding="utf-8")
        code_, out, _ = run(capsys, "gen", "--locale", locale, "--currencies", "40",
                            "--seed", "0", "--config", str(config))
        assert code_ == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 40
        said_in = [r for r in records if said in r["verbalized"]]
        assert said_in and all(symbol in r["formatted"] for r in said_in)
        spoken = tmp_path / "spoken.txt"
        spoken.write_text("".join(r["verbalized"] + "\n" for r in records), encoding="utf-8")
        code_, out, _ = run(capsys, "normalize", "--locale", locale, "--config", str(config),
                            str(spoken))
        assert code_ == 0
        assert out.splitlines() == [r["formatted"] for r in records]

    @pytest.mark.parametrize("locale", ["en", "de"])
    def test_gen_types_expressions_as_the_prompt_asked(self, tmp_path, capsys, locale):
        # Without a thousands separator, seed 64 draws the quantity 1722,
        # which the extractor alone would guess is a year.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"locales": {locale: {"thousands_separator": ""}}}),
                          encoding="utf-8")
        code, out, _ = run(capsys, "gen", "--locale", locale, "--quantities", "100",
                           "--seed", "64", "--config", str(config))
        assert code == 0
        expressions = [pair for line in out.splitlines()
                       for pair in json.loads(line)["expressions"]]
        assert ["1722", "quantity"] in expressions
        assert {t for _, t in expressions} == {"quantity"}

    def test_split(self, tmp_path, capsys):
        path = self.gen_manifest(tmp_path, capsys)
        out_dir = tmp_path / "splits"
        code, _, err = run(capsys, "split", "--manifest", str(path),
                           "--out-dir", str(out_dir), "--seed", "5")
        assert code == 0
        parts = {name: read_manifest(out_dir / f"{name}.jsonl")
                 for name in ("train", "dev", "test")}
        total = sum(len(p) for p in parts.values())
        assert total == 24
        surfaces = {name: {s for r in part for s in r.surfaces()}
                    for name, part in parts.items()}
        assert surfaces["train"] & surfaces["dev"] == set()
        assert surfaces["train"] & surfaces["test"] == set()
        assert surfaces["dev"] & surfaces["test"] == set()
        assert "Subset" in err and "Utterances" in err

    def test_split_over_an_earlier_split_writes_what_a_fresh_one_does(self, tmp_path, capsys):
        big = self.gen_manifest(tmp_path, capsys)
        small = tmp_path / "small.jsonl"
        assert run(capsys, "gen", "--locale", "en", "--years", "2", "--currencies", "2",
                   "--quantities", "2", "--seed", "3", "--out", str(small))[0] == 0
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        for manifest, out_dir in ((big, reused), (small, reused), (small, fresh)):
            assert run(capsys, "split", "--manifest", str(manifest),
                       "--out-dir", str(out_dir))[0] == 0
        assert sorted(os.listdir(reused)) == sorted(os.listdir(fresh)) == \
            ["dev.jsonl", "test.jsonl", "train.jsonl"]
        for name in ("train", "dev", "test"):
            assert (reused / f"{name}.jsonl").read_bytes() == \
                (fresh / f"{name}.jsonl").read_bytes()

    def test_gen_to_dev_null(self, capsys):
        code, out, err = run(capsys, "gen", "--locale", "en", "--years", "2",
                             "--out", os.devnull)
        assert (code, out) == (0, "")
        assert err.startswith("prompts=") and err.count("\n") == 1

    def test_eval_perfect_hypotheses(self, tmp_path, capsys):
        path = self.gen_manifest(tmp_path, capsys)
        records = read_manifest(path)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(r.formatted + "\n" for r in records),
                       encoding="utf-8")
        code, out, _ = run(capsys, "eval", "--manifest", str(path),
                           "--hypotheses", str(hyp))
        assert code == 0
        head, body = out.splitlines()
        assert head.startswith("WER")
        assert body.split()[0] == "0.0"
        assert "100.0" in body

    def test_eval_tsv_format(self, tmp_path, capsys):
        path = self.gen_manifest(tmp_path, capsys)
        records = read_manifest(path)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(r.formatted + "\n" for r in records),
                       encoding="utf-8")
        code, out, _ = run(capsys, "eval", "--manifest", str(path),
                           "--hypotheses", str(hyp), "--format", "tsv")
        assert code == 0
        header, values = out.splitlines()
        assert header.split("\t")[0] == "wer_distance"
        assert values.split("\t")[0] == "0"

    def test_eval_normalize_before_wer(self, tmp_path, capsys):
        path = self.gen_manifest(tmp_path, capsys)
        records = read_manifest(path)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(r.verbalized + "\n" for r in records),
                       encoding="utf-8")
        code, out, _ = run(capsys, "eval", "--manifest", str(path),
                           "--hypotheses", str(hyp), "--normalize-before-wer")
        assert code == 0
        assert out.splitlines()[1].split()[0] == "0.0"

    def test_gen_failure_is_one_error_line(self, capsys, monkeypatch):
        from numitn import datagen

        def fail(plan, textgen, synthesizer, currencies):
            raise datagen.GenerationError("all records failed (1 errors); first: boom")

        monkeypatch.setattr(datagen, "run_generation", fail)
        code, out, err = run(capsys, "gen", "--locale", "en", "--years", "1")
        assert (code, out) == (1, "")
        assert err == "error: all records failed (1 errors); first: boom\n"

    def test_gen_split_eval_in_fresh_processes(self, tmp_path, capsys):
        """Each corpus command imports what it runs: a cold child writes
        what this process, which has every module loaded, writes."""
        path = self.gen_manifest(tmp_path / "warm", capsys)
        cold = tmp_path / "cold.jsonl"
        done = run_process("gen", "--locale", "en", "--years", "6", "--timestamps", "6",
                           "--currencies", "6", "--quantities", "6", "--seed", "3",
                           "--out", str(cold))
        assert done.returncode == 0 and done.stderr.startswith(b"prompts=")
        assert cold.read_bytes() == path.read_bytes()

        out_dir = tmp_path / "splits"
        done = run_process("split", "--manifest", str(cold), "--out-dir", str(out_dir),
                           "--seed", "5")
        assert done.returncode == 0 and b"Utterances" in done.stderr
        test = out_dir / "test.jsonl"
        records = read_manifest(test)
        assert records
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(r.verbalized + "\n" for r in records), encoding="utf-8")
        argv = ("eval", "--manifest", str(test), "--hypotheses", str(hyp),
                "--normalize-before-wer")
        done = run_process(*argv)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.decode().splitlines()[1].split()[0] == "0.0"
        assert done.stdout.decode() == run(capsys, *argv)[1]

    def test_eval_misaligned_exits_2(self, tmp_path, capsys):
        path = self.gen_manifest(tmp_path, capsys)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("only one line\n", encoding="utf-8")
        code, _, err = run(capsys, "eval", "--manifest", str(path),
                           "--hypotheses", str(hyp))
        assert code == 2
        assert "fewer lines" in err

    def test_eval_unknown_record_locale_exits_1(self, tmp_path, capsys):
        path = self.gen_manifest(tmp_path, capsys)
        lines = path.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first["locale"] = "en-gb"
        lines[0] = json.dumps(first)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(json.loads(line)["verbalized"] + "\n"
                               for line in lines), encoding="utf-8")
        argv = ("eval", "--manifest", str(path), "--hypotheses", str(hyp))
        code, out, err = run(capsys, *argv, "--normalize-before-wer")
        assert code == 1
        assert err == f"line 1: record {first['id']}: unknown locale 'en-gb'\n"
        # The record is skipped with its hypothesis line: the rest scores as
        # a manifest without it.
        rest, rest_hyp = tmp_path / "rest.jsonl", tmp_path / "rest.txt"
        rest.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        rest_hyp.write_text(hyp.read_text(encoding="utf-8").split("\n", 1)[1],
                            encoding="utf-8")
        assert run(capsys, "eval", "--manifest", str(rest), "--hypotheses",
                   str(rest_hyp), "--normalize-before-wer") == (0, out, "")
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")

    def broken_manifest(self, tmp_path, capsys):
        """A generated manifest whose lines 3 and 5 hold no record."""
        path = self.gen_manifest(tmp_path, capsys)
        lines = path.read_text(encoding="utf-8").splitlines()
        mistyped = json.loads(lines[4])
        mistyped["verbalized"] = 5
        lines[2], lines[4] = "{not json", json.dumps(mistyped)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, lines

    def test_split_skips_malformed_records(self, tmp_path, capsys):
        path, lines = self.broken_manifest(tmp_path, capsys)
        out_dir = tmp_path / "splits"
        code, _, err = run(capsys, "split", "--manifest", str(path),
                           "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith("line 3: invalid JSON: ")
        assert "\nline 5: fields must be strings: ['verbalized']\n" in err
        assert "Traceback" not in err
        total = sum(len(read_manifest(out_dir / f"{name}.jsonl"))
                    for name in ("train", "dev", "test"))
        assert total == len(lines) - 2

    def test_eval_skips_malformed_records_with_their_hypotheses(self, tmp_path, capsys):
        path, lines = self.broken_manifest(tmp_path, capsys)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join((json.loads(line)["formatted"] if i not in (2, 4) else "x")
                               + "\n" for i, line in enumerate(lines)), encoding="utf-8")
        code, out, err = run(capsys, "eval", "--manifest", str(path),
                             "--hypotheses", str(hyp))
        assert code == 1
        assert err.startswith("line 3: invalid JSON: ")
        assert err.endswith("\nline 5: fields must be strings: ['verbalized']\n")
        # Every kept record met its own hypothesis: a perfect score.
        assert out.splitlines()[1].split() == ["0.0"] + ["100.0"] * 5

    @staticmethod
    def year_lines():
        """Four year records as JSON lines; line 2 says "twelve"."""
        return [json.dumps({"id": f"en-year-{i}", "locale": "en", "type": "year",
                            "verbalized": f"in nineteen {word}", "formatted": f"in 19{n}",
                            "expressions": [[f"19{n}", "year"]]})
                for i, (word, n) in enumerate([("ten", 10), ("twelve", 12), ("fifteen", 15),
                                                ("twenty", 20)])]

    def undecodable_manifest(self, tmp_path):
        """Four records; one byte of line 2 is not UTF-8."""
        lines = [line.encode("utf-8") for line in self.year_lines()]
        lines[1] = lines[1].replace(b"twelve", b"tw\xfflve")
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        return path

    def test_split_skips_a_line_that_is_not_utf8(self, tmp_path, capsys):
        path = self.undecodable_manifest(tmp_path)
        out_dir = tmp_path / "splits"
        code, _, err = run(capsys, "split", "--manifest", str(path), "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith("line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in err
        ids = {r.id for name in ("train", "dev", "test")
               for r in read_manifest(out_dir / f"{name}.jsonl")}
        assert ids == {"en-year-0", "en-year-2", "en-year-3"}

    def test_eval_skips_a_line_that_is_not_utf8_with_its_hypothesis(self, tmp_path, capsys):
        path = self.undecodable_manifest(tmp_path)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("in 1910\nx\nin 1915\nin 1920\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "--manifest", str(path), "--hypotheses", str(hyp))
        assert code == 1
        assert err.startswith("line 2: not UTF-8: ")
        assert err.count("\n") == 1
        # Every kept record met its own hypothesis: a perfect score.
        assert out.splitlines()[1].split() == ["0.0", "100.0", "-", "-", "-", "100.0"]

    def lone_surrogate_manifest(self, tmp_path):
        """Four records; line 2 says a lone surrogate as a JSON escape."""
        lines = self.year_lines()
        lines[1] = lines[1].replace("twelve", "tw\\udcfflve")
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_split_skips_a_record_with_a_lone_surrogate(self, tmp_path, capsys):
        path = self.lone_surrogate_manifest(tmp_path)
        out_dir = tmp_path / "splits"
        code, _, err = run(capsys, "split", "--manifest", str(path), "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith(
            "line 2: record en-year-1: '\\udcff' is not UTF-8 (surrogates not allowed)\n")
        assert "Traceback" not in err
        ids = {r.id for name in ("train", "dev", "test")
               for r in read_manifest(out_dir / f"{name}.jsonl")}
        assert ids == {"en-year-0", "en-year-2", "en-year-3"}

    def test_eval_skips_a_record_with_a_lone_surrogate_with_its_hypothesis(self, tmp_path,
                                                                           capsys):
        path = self.lone_surrogate_manifest(tmp_path)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("in 1910\nx\nin 1915\nin 1920\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "--manifest", str(path), "--hypotheses", str(hyp))
        assert code == 1
        assert err.startswith("line 2: record en-year-1: '\\udcff' is not UTF-8")
        assert err.count("\n") == 1
        assert out.splitlines()[1].split() == ["0.0", "100.0", "-", "-", "-", "100.0"]

    MISTYPED = [("voice", ["x"], "fields must be strings or null: ['voice']"),
                ("audio", 5, "fields must be strings or null: ['audio']"),
                ("expressions", [[1912, "year"]],
                 "expressions must be [surface, type] pairs of strings")]

    def mistyped_manifest(self, tmp_path, field, value):
        """Four records; line 2's ``field`` holds ``value``."""
        lines = self.year_lines()
        lines[1] = json.dumps({**json.loads(lines[1]), field: value})
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("field,value,reason", MISTYPED)
    def test_split_skips_a_mistyped_optional_field_or_pair(self, tmp_path, capsys,
                                                          field, value, reason):
        path = self.mistyped_manifest(tmp_path, field, value)
        out_dir = tmp_path / "splits"
        code, _, err = run(capsys, "split", "--manifest", str(path), "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith(f"line 2: {reason}\nSubset")
        ids = {r.id for name in ("train", "dev", "test")
               for r in read_manifest(out_dir / f"{name}.jsonl")}
        assert ids == {"en-year-0", "en-year-2", "en-year-3"}

    @pytest.mark.parametrize("field,value,reason", MISTYPED)
    def test_eval_skips_a_mistyped_optional_field_or_pair(self, tmp_path, capsys,
                                                         field, value, reason):
        path = self.mistyped_manifest(tmp_path, field, value)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("in 1910\nx\nin 1915\nin 1920\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "--manifest", str(path), "--hypotheses", str(hyp))
        assert (code, err) == (1, f"line 2: {reason}\n")
        assert out.splitlines()[1].split() == ["0.0", "100.0", "-", "-", "-", "100.0"]

    @pytest.mark.parametrize("field", ["id", "verbalized", "formatted", "voice", "surface"])
    def test_record_strings_must_encode_as_utf8(self, field):
        def record(text):
            obj = {"id": "a", "locale": "en", "type": "year", "verbalized": "in the year",
                   "formatted": "in 1910 the year", "expressions": [["1910", "year"]],
                   "voice": None}
            if field == "surface":
                obj["formatted"] += f" {text}"
                obj["expressions"].append([text, "year"])
            else:
                obj[field] = f"{obj[field] or ''}{text}"
            return ManifestRecord.from_obj(obj)

        # A surrogate pair in JSON is one character, here an emoji.
        emoji = json.loads('"\\ud83d\\ude00"')
        assert emoji == "\U0001F600"
        record(emoji)
        with pytest.raises(ManifestError, match="is not UTF-8"):
            record(json.loads('"\\udcff"'))

    @pytest.mark.parametrize("train", ["nan", "inf"])
    def test_non_finite_split_ratio_exits_1(self, tmp_path, capsys, train):
        path = self.gen_manifest(tmp_path, capsys)
        out_dir = tmp_path / "splits"
        code, out, err = run(capsys, "split", "--manifest", str(path), "--out-dir", str(out_dir),
                             "--train", train, "--dev", "0.5", "--test", "0.5")
        assert (code, out, err) == (1, "", "error: split ratios must be finite\n")
        assert not out_dir.exists()

    def test_split_needs_enough_groups(self, tmp_path, capsys):
        path = tmp_path / "tiny.jsonl"
        record = {"id": "a", "locale": "en", "type": "year",
                  "verbalized": "in nineteen ten", "formatted": "in 1910",
                  "expressions": [["1910", "year"]], "audio": None,
                  "voice": None}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "split", "--manifest", str(path),
                           "--out-dir", str(tmp_path / "s"))
        assert code == 1
        assert "disjoint" in err


class TestPerLineErrors:
    """A line that cannot be handled is passed through and reported; the
    stream goes on and the exit status is 1 at the end."""

    def test_verbalize_out_of_range_literal(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("a 1\nThe counter read 123456789012345678901.\nb 2\n",
                       encoding="utf-8")
        code, out, err = run(capsys, "verbalize", "--locale", "en", str(src))
        assert code == 1
        assert out.splitlines() == [
            "a one",
            "The counter read 123456789012345678901.",
            "b two",
        ]
        assert err == "line 2: mantissa out of range: 123456789012345678901\n"
        assert "Traceback" not in err

    def test_verbalize_too_many_cent_digits(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("It cost $1.5.\nIt cost $1.505.\n", encoding="utf-8")
        code, out, err = run(capsys, "verbalize", "--locale", "en", str(src))
        assert code == 1
        assert out == "It cost one dollar and fifty cents.\nIt cost $1.505.\n"
        assert err == "line 2: '$1.505' has more than 2 fraction digits for USD\n"

    @pytest.mark.parametrize("language,currency,literal,good,said", [
        ("en", "USD", "$5.5", "$5.05", "five dollars and fifty cents"),
        ("de", "EUR", "5,5€", "5,05€", "fünf Euro und fünfzig Cent"),
    ])
    def test_verbalize_minor_part_past_spoken_limit(self, tmp_path, capsys, language,
                                                    currency, literal, good, said):
        # With three minor digits "5.5" is 500 cents, which no spoken amount
        # says and normalize would not read back; "5.05" is 50 cents.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"currencies": {currency: {"minor_unit_digits": 3}}}),
                          encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text(f"x {literal} y\nx {good} y\n", encoding="utf-8")
        code, out, err = run(capsys, "verbalize", "--locale", language,
                             "--config", str(config), str(src))
        assert code == 1
        assert out == f"x {literal} y\nx {said} y\n"
        assert err == (f"line 1: 500 minor units of {currency} cannot be said: "
                       "a spoken amount has fewer than 100\n")

    @pytest.mark.parametrize("language,lines,said,errors", [
        ("en", ["It cost $1,500 million.", "We saw 12345000000000 birds.",
                "We saw 12345000000000.5 birds.",
                "It cost $1,234.5 billion.", "We saw 999,999,999,999 birds."],
         ["It cost one thousand two hundred thirty-four point five billion dollars.",
          "We saw nine hundred ninety-nine billion nine hundred ninety-nine million nine "
          "hundred ninety-nine thousand nine hundred ninety-nine birds."],
         ["count 1500 before 'million' does not read back as one number: at most 999",
          "count 12345000000000 does not read back as one number: at most 999999999999",
          "count 12345000000000 does not read back as one number: at most 999999999999"]),
        ("de", ["Es kostet 1.234 Milliarden€.", "Wir sahen 12345000000000 Vögel.",
                "Es kostet 1.234,5 Milliarden€.", "Wir sahen 999.999.999.999 Vögel."],
         ["Es kostet eintausendzweihundertvierunddreißig Komma fünf Milliarden Euro.",
          "Wir sahen neunhundertneunundneunzig Milliarden neunhundertneunundneunzig Millionen "
          "neunhundertneunundneunzigtausendneunhundertneunundneunzig Vögel."],
         ["count 1234 before 'Milliarden' does not read back as one number: at most 999",
          "count 12345000000000 does not read back as one number: at most 999999999999"]),
    ])
    def test_verbalize_count_that_does_not_read_back(self, tmp_path, capsys, language, lines,
                                                     said, errors):
        # The counts would be said as "one thousand five hundred million" and
        # "twelve thousand three hundred forty-five billion", which normalize
        # reads as two numbers; the counts below the limits round-trip.
        failing = len(errors)
        src = tmp_path / "in.txt"
        src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code, out, err = run(capsys, "verbalize", "--locale", language, str(src))
        assert code == 1
        assert out.splitlines() == lines[:failing] + said
        assert err.splitlines() == [f"line {n}: {error}" for n, error in enumerate(errors, 1)]
        spoken = tmp_path / "said.txt"
        spoken.write_text("".join(line + "\n" for line in said), encoding="utf-8")
        code, out, _ = run(capsys, "normalize", "--locale", language, str(spoken))
        assert code == 0
        assert out.splitlines() == lines[failing:]

    def test_normalize_minor_part_past_minor_digits(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"currencies": {"USD": {"minor_unit_digits": 0}}}),
                          encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("It cost five dollars and fifty cents.\nIt cost five dollars.\n",
                       encoding="utf-8")
        code, out, err = run(capsys, "normalize", "--locale", "en",
                             "--config", str(config), str(src))
        assert code == 1
        assert out == "It cost five dollars and fifty cents.\nIt cost $5.\n"
        assert err == ("line 1: 50 minor units need more than the currency's "
                       "0 minor-unit digits\n")

    def test_verbalize_currency_without_words(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"currencies": {"INR": {"symbol": "₹"}}}),
                          encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("x ₹50\ny 2\n", encoding="utf-8")
        code, out, err = run(capsys, "verbalize", "--locale", "en",
                             "--config", str(config), str(src))
        assert code == 1
        assert out == "x ₹50\ny two\n"
        assert err == "line 1: no 'en' words for currency 'INR'\n"

    def test_normalize_failing_line(self, tmp_path, capsys, monkeypatch):
        from numitn import cli

        def normalize(line, locale, currencies):
            if line == "bad":
                raise ValueError("broken")
            return line.upper()

        monkeypatch.setattr(cli, "normalize_text", normalize)
        src = tmp_path / "in.txt"
        src.write_text("x\nbad\ny\n", encoding="utf-8")
        code, out, err = run(capsys, "normalize", "--locale", "en", str(src))
        assert code == 1
        assert out == "X\nbad\nY\n"
        assert err == "line 2: broken\n"

    def test_extract_failing_line_writes_no_rows(self, tmp_path, capsys, monkeypatch):
        from numitn import cli
        real = cli.extract_numeric_literals

        def extract(line, locale, currencies):
            found = real(line, locale, currencies)
            if "bad" in line:
                # Fail after the first literal, so a partial row would show.
                yield from found[:1]
                raise ValueError("broken")
            yield from found

        monkeypatch.setattr(cli, "extract_numeric_literals", extract)
        src = tmp_path / "in.txt"
        src.write_text("$5\nbad $6 $7\nin 1999\n", encoding="utf-8")
        code, out, err = run(capsys, "extract", "--locale", "en", str(src))
        assert code == 1
        assert out.splitlines() == ["1\tcurrency\t$5", "3\tyear\t1999"]
        assert err == "line 2: broken\n"


class TestConfigLocales:
    CONFIG = {"locales": {"en-in": {"language": "en", "thousands_separator": ",",
                                    "decimal_mark": ".", "currency_placement": "prefix"}}}

    def test_config_locale_selectable(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(self.CONFIG), encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("It cost fifty dollars in twenty twenty.\n", encoding="utf-8")
        code, out, err = run(capsys, "normalize", "--locale", "en-in",
                             "--config", str(config), str(src))
        assert (code, err) == (0, "")
        assert out == "It cost $50 in 2020.\n"

    def test_locale_missing_from_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(self.CONFIG), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "--locale", "en-gb", "--config", str(config)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "'en-gb'" in err and "'en-in'" in err

    def test_config_only_locale_needs_the_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "--locale", "en-in"])
        assert exc.value.code == 2

    def test_unloadable_config_exits_1(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("[1, 2]", encoding="utf-8")
        code, out, err = run(capsys, "normalize", "--locale", "en-in",
                             "--config", str(config), str(config))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["normalize", "verbalize"])
    @pytest.mark.parametrize("digits", [30, 300000])
    def test_minor_unit_digits_above_max_scale_exits_1(self, tmp_path, capsys, command,
                                                        digits):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"currencies": {"USD": {"minor_unit_digits": digits}}}),
                          encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("It cost five dollars and fifty cents.\nIt cost $5.50.\n",
                       encoding="utf-8")
        code, out, err = run(capsys, command, "--locale", "en", "--config", str(config),
                             str(src))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "minor_unit_digits" in err

    @pytest.mark.parametrize("command", ["normalize", "verbalize", "extract"])
    @pytest.mark.parametrize("raw", MALFORMED_CONFIGS, ids=json.dumps)
    def test_malformed_config_exits_1(self, tmp_path, capsys, command, raw):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("five point two costs $5.20\n", encoding="utf-8")
        code, out, err = run(capsys, command, "--locale", "en", "--config", str(config),
                             str(src))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestParser:
    def test_unknown_locale_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["normalize", "--locale", "fr"])

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestImports:
    """Importing the package or the CLI loads only what every command needs."""

    @staticmethod
    def loaded_after(statement):
        code = f"import sys\nsys.path.insert(0, {SRC!r})\n{statement}\nprint(*sys.modules)"
        done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                              text=True, check=True)
        return set(done.stdout.split())

    def test_package_loads_no_submodule(self):
        loaded = self.loaded_after("import numitn")
        assert "numitn" in loaded
        assert {name for name in loaded if name.startswith("numitn.")} == set()

    def test_cli_leaves_the_corpus_guard_and_verbalize_modules_unloaded(self):
        loaded = self.loaded_after("import numitn.cli")
        assert {"numitn.cli", "numitn.pipeline", "numitn.extract"} <= loaded
        assert loaded.isdisjoint({"numitn.datagen", "numitn.manifest", "numitn.evaluate",
                                  "numitn.wer", "numitn.verbalize", "decimal"})

    @pytest.mark.parametrize("call", [
        "from numitn.pipeline import normalize_text\n"
        "normalize_text('it cost five dollars in nineteen ninety', locale, cfg.currencies)",
        "import random\nfrom numitn.verbalize import verbalize_line\n"
        "verbalize_line('It cost $5.50 at 7:30 in 1990.', locale, random.Random(0), cfg.currencies)",
    ], ids=["normalize", "verbalize"])
    def test_a_line_command_loads_neither_typing_nor_dataclasses(self, tmp_path, call):
        config = tmp_path / "c.json"
        config.write_text('{"locales": {"en-gb": {"language": "en"}}}', encoding="utf-8")
        loaded = self.loaded_after(
            "import numitn.cli\nfrom numitn.locales import load_locale_config\n"
            f"cfg = load_locale_config({str(config)!r})\nlocale = cfg.locale('en-gb')\n{call}")
        assert "numitn.locales" in loaded
        assert loaded.isdisjoint({"typing", "dataclasses", "inspect"})

    @pytest.mark.parametrize("command,runs,unloaded", [
        ("gen", "numitn.datagen",
         {"typing", "dataclasses", "inspect", "numitn.wer", "numitn.evaluate", "pathlib"}),
        ("split", "numitn.datagen",
         {"typing", "dataclasses", "inspect", "numitn.wer", "numitn.evaluate", "pathlib"}),
        ("eval", "numitn.evaluate",
         {"typing", "dataclasses", "inspect", "numitn.wer", "pathlib"}),
        ("guard", "numitn.wer", {"typing"}),
    ], ids=["gen", "split", "eval", "guard"])
    def test_a_corpus_command_leaves_its_budget_unloaded(self, tmp_path, capsys, command, runs,
                                                         unloaded):
        manifest = tmp_path / "m.jsonl"
        assert run(capsys, "gen", "--locale", "en", "--years", "3", "--currencies", "3",
                   "--out", str(manifest))[0] == 0
        spoken = tmp_path / "spoken.txt"
        spoken.write_text("".join(r.verbalized + "\n" for r in read_manifest(manifest)),
                          encoding="utf-8")
        argv = {
            "gen": ["gen", "--locale", "en", "--years", "2", "--out", str(tmp_path / "g.jsonl")],
            "split": ["split", "--manifest", str(manifest), "--out-dir", str(tmp_path / "s")],
            "eval": ["eval", "--manifest", str(manifest), "--hypotheses", str(spoken),
                     "--normalize-before-wer"],
            "guard": ["guard", str(spoken), str(spoken)],
        }[command]
        loaded = self.loaded_after(
            "import contextlib, io\nfrom numitn.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            f"contextlib.redirect_stderr(io.StringIO()):\n    assert main({argv!r}) == 0")
        assert runs in loaded
        assert loaded.isdisjoint(unloaded), sorted(loaded & unloaded)

    def test_the_benchmark_corpus_warm_up_leaves_the_guard_unloaded(self, tmp_path):
        # The statements the benchmark's corpus set-up child runs, with its
        # empty config file.
        config = tmp_path / "locales.json"
        config.write_text("{}\n", encoding="utf-8")
        loaded = self.loaded_after(
            "import numitn.cli\nfrom numitn.locales import load_locale_config\n"
            f"cfg = load_locale_config({str(config)!r})\n"
            "from numitn import datagen\n"
            "from numitn.evaluate import EvalItem, evaluate\n"
            "from numitn.types import ExpressionType\n"
            "locale = cfg.locale('en')\n"
            "records, _ = datagen.run_generation(\n"
            "    datagen.GenerationPlan(locale=locale, counts={ExpressionType.YEAR: 1}),\n"
            "    datagen.RuleBasedTextGenerator(locale),\n"
            "    datagen.MockSpeechSynthesizer(datagen.ClientConfig(max_concurrency=1)))\n"
            "evaluate([EvalItem(r.formatted, r.formatted) for r in records])\n")
        guard = {"dataclasses", "inspect", "numitn.wer"}
        assert {"numitn.datagen", "numitn.evaluate", "numitn.distance"} <= loaded
        assert loaded.isdisjoint(guard), sorted(loaded & guard)
