import hashlib
import json
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from numitn.datagen import (
    ANTI_ENUMERATION,
    ClientConfig,
    GenerationError,
    GenerationPlan,
    MockSpeechSynthesizer,
    RuleBasedTextGenerator,
    SplitSpec,
    TextGenerator,
    build_conversion_prompt,
    build_sentence_prompt,
    build_timestamp_prompt,
    corpus_statistics,
    run_generation,
    split_disjoint,
    validate_record,
)
from numitn.extract import extract_numeric_literals
from numitn.grammar import scan_tokens
from numitn.locales import DEFAULT_CONFIG
from numitn.manifest import ManifestRecord
from numitn.pipeline import normalize_text
from numitn.tokenizer import tokenize
from numitn.types import ExpressionType
from numitn.verbalize import enumerate_timestamp_phrasings

from test_extract import triples

EN = DEFAULT_CONFIG.locale("en")
DE = DEFAULT_CONFIG.locale("de")

_TYPE_VALUES = [t.value for t in ExpressionType]
# Text with what a JSON string escapes or might get wrong: quotes,
# backslashes, C0 controls, DEL, the JavaScript line separators and
# characters outside the BMP. A lone surrogate is left out: it is not
# UTF-8, so no record may hold one.
_JSON_TEXT = st.text(
    st.sampled_from(['"', "\\", "\x7f", "\u2028", "\u2029", "\U0001f600", "\u00fc"])
    | st.characters(max_codepoint=0x1f) | st.characters(exclude_categories=("Cs",)),
    max_size=12)


class TestPrompts:
    def test_sentence_prompt_en(self):
        got = build_sentence_prompt(3, ExpressionType.TIMESTAMP, EN)
        assert got == ("Generate 3 diverse sentences containing a timestamp "
                       "written down using number words. " + ANTI_ENUMERATION)

    def test_sentence_prompt_de_marker(self):
        got = build_sentence_prompt(1, ExpressionType.CURRENCY, DE)
        assert "diverse German sentences" in got
        assert "currency amount" in got

    def test_conversion_prompt(self):
        assert build_conversion_prompt(ExpressionType.YEAR) == \
            "Convert the year in the sentences to numeric literals."

    def test_conversion_prompts_distinct(self):
        prompts = {build_conversion_prompt(t) for t in ExpressionType}
        assert len(prompts) == 4

    def test_timestamp_prompt(self):
        got = build_timestamp_prompt("quarter to eight", EN)
        assert "containing the timestamp quarter to eight" in got
        assert got.endswith(ANTI_ENUMERATION)

    def test_timestamp_prompt_de_marker(self):
        assert "German sentence" in build_timestamp_prompt("halb zwei", DE)

    def test_zero_sentences_rejected(self):
        with pytest.raises(ValueError):
            build_sentence_prompt(0, ExpressionType.YEAR, EN)

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError):
            build_timestamp_prompt("   ", EN)


class TestValidateRecord:
    def test_accepts_clean_conversion(self):
        assert validate_record("The war ended in nineteen forty-five.",
                               "The war ended in 1945.", EN)

    def test_accepts_german_conversion(self):
        assert validate_record("Es kostet eintausend Euro und fünfzig Cent.",
                               "Es kostet 1.000,50€.", DE)

    def test_rejects_missing_literal(self):
        assert not validate_record("The war ended in nineteen forty-five.",
                                   "The war ended then.", EN)

    def test_rejects_digits_in_verbalized(self):
        assert not validate_record("The war ended in 1945.",
                                   "The war ended in 1945.", EN)

    def test_rejects_edited_carrier_text(self):
        assert not validate_record("The war ended in nineteen forty-five.",
                                   "The conflict ended in 1945.", EN)

    def test_rejects_dropped_words(self):
        assert not validate_record("The war finally ended in nineteen forty-five.",
                                   "The war ended in 1945.", EN)

    def test_accepts_multiple_expressions(self):
        assert validate_record(
            "Pay fifty dollars at ten o'clock for two thousand pieces.",
            "Pay $50 at 10:00 for 2,000 pieces.", EN)

    @pytest.mark.parametrize("verbalized,converted,locale", [
        ("Pay fifty dollars at ten o'clock for two thousand pieces.",
         "Pay $50 at 10:00 for 2,000 pieces.", EN),
        ("Es kostet eintausend Euro und fünfzig Cent.", "Es kostet 1.000,50€.", DE),
    ])
    def test_accepted_pair_returns_its_literals(self, verbalized, converted, locale):
        literals = validate_record(verbalized, converted, locale)
        assert literals
        assert triples(literals) == triples(extract_numeric_literals(converted, locale))

    @pytest.mark.parametrize("verbalized,converted", [
        ("The war ended in 1945.", "The war ended in 1945."),  # digits in the spoken side
        ("The war ended in nineteen forty-five.", "The war ended then."),  # no literal
        ("The war ended in nineteen forty-five.", "The conflict ended in 1945."),  # edited
        ("The war finally ended in nineteen forty-five.", "The war ended in 1945."),  # dropped
    ])
    def test_each_rejection_returns_no_literals(self, verbalized, converted):
        assert validate_record(verbalized, converted, EN) == []


def make_record(rid, surfaces, formatted=None):
    return ManifestRecord(
        id=rid, locale="en", type="year",
        verbalized="spoken words only",
        formatted=formatted or " ".join(surfaces),
        expressions=tuple((s, "year") for s in surfaces),
    )


class TestSplit:
    def test_too_few_groups(self):
        records = [make_record("a", ["1945"]), make_record("b", ["1945"])]
        with pytest.raises(ValueError, match="3 disjoint"):
            split_disjoint(records, SplitSpec(0.7, 0.1, 0.2))

    def test_three_groups_forced(self):
        records = [make_record(str(i), [str(1900 + i)]) for i in range(3)]
        train, dev, test = split_disjoint(records, SplitSpec(0.98, 0.01, 0.01))
        assert all(len(split) == 1 for split in (train, dev, test))

    def test_shared_surface_stays_together(self):
        records = [make_record(str(i), [str(1900 + i)]) for i in range(20)]
        records += [
            make_record("x1", ["19:45"], "at 19:45"),
            make_record("x2", ["19:45", "2025"], "19:45 in 2025"),
            make_record("x3", ["2025"], "in 2025"),
        ]
        splits = split_disjoint(records, SplitSpec(0.7, 0.1, 0.2, seed=5))
        for split in splits:
            ids = {r.id for r in split}
            assert ids.isdisjoint({"x1", "x2", "x3"}) or \
                {"x1", "x2", "x3"} <= ids

    def test_ratio_deviation_at_most_one_group(self):
        records = [make_record(str(i), [str(i + 3000)]) for i in range(100)]
        train, dev, test = split_disjoint(records, SplitSpec(0.7, 0.1, 0.2))
        assert abs(len(train) - 70) <= 1
        assert abs(len(dev) - 10) <= 1
        assert abs(len(test) - 20) <= 1

    def test_partition_is_exact(self):
        records = [make_record(str(i), [str(i + 3000)]) for i in range(37)]
        train, dev, test = split_disjoint(records, SplitSpec(0.6, 0.2, 0.2))
        ids = [r.id for r in train + dev + test]
        assert sorted(ids) == sorted(r.id for r in records)
        assert len(set(ids)) == len(records)

    def test_seed_determinism(self):
        records = [make_record(str(i), [str(i + 3000)]) for i in range(50)]
        a = split_disjoint(records, SplitSpec(0.7, 0.1, 0.2, seed=1))
        b = split_disjoint(records, SplitSpec(0.7, 0.1, 0.2, seed=1))
        c = split_disjoint(records, SplitSpec(0.7, 0.1, 0.2, seed=2))
        assert a == b
        assert a != c

    @pytest.mark.parametrize("ratios", [
        (0.0, 0.5, 0.5), (-0.1, 0.6, 0.5), (0.5, 0.3, 0.3), (0.3, 0.3, 0.3),
    ])
    def test_bad_ratios_rejected(self, ratios):
        with pytest.raises(ValueError):
            SplitSpec(*ratios)


class TestClients:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClientConfig(max_concurrency=0)

    def test_mock_synthesizer_returns_nothing(self):
        assert MockSpeechSynthesizer().synthesize("hello there", "alloy") is None


class TestRuleBasedGenerator:
    def test_sentence_batch(self):
        gen = RuleBasedTextGenerator(EN, seed=1)
        prompt = build_sentence_prompt(5, ExpressionType.YEAR, EN)
        lines = gen.complete(prompt).splitlines()
        assert len(lines) == 5
        for line in lines:
            assert not any(ch.isdigit() for ch in line)

    # Checked by hand: each sentence says the value its gold line writes.
    SENTENCE_GOLD = {
        "en": [
            ("The family moved abroad in one thousand one hundred twenty-nine.",
             "The family moved abroad in 1129."),
            ("The treaty was signed in two thousand fourteen.",
             "The treaty was signed in 2014."),
            ("Doors open at twenty-four minutes past eight in the evening.",
             "Doors open at 20:24 in the evening."),
            ("The meeting starts at three oh one pm.", "The meeting starts at 15:01."),
            ("He donated seven hundred thirteen billion pounds last spring.",
             "He donated £713 billion last spring."),
            ("The invoice came to six hundred six million pounds.",
             "The invoice came to £606 million."),
            ("We walked twenty-three thousand four hundred eight kilometers together.",
             "We walked 23,408 kilometers together."),
            ("They ordered five hundred fifty-six million boxes for the fair.",
             "They ordered 556 million boxes for the fair."),
        ],
        "de": [
            ("Seit eintausendeinhundertneunundzwanzig wohnt sie in der Stadt.",
             "Seit 1129 wohnt sie in der Stadt."),
            ("Der Vertrag wurde im Jahr zweitausendvierzehn unterzeichnet.",
             "Der Vertrag wurde im Jahr 2014 unterzeichnet."),
            ("Die Türen öffnen um vierundzwanzig Minuten nach acht abends.",
             "Die Türen öffnen um 20:24 abends."),
            ("Das Treffen beginnt um fünfzehn Uhr eins.", "Das Treffen beginnt um 15:01."),
            ("Sie zahlten fünfunddreißig Euro für die Reparatur.",
             "Sie zahlten 35€ für die Reparatur."),
            ("Sie zahlten dreitausendsiebenhundertneunundvierzig Euro und "
             "sechsundsiebzig Cent für die Reparatur.",
             "Sie zahlten 3.749,76€ für die Reparatur."),
            ("Das Lager fasst fünfzig Komma drei Kisten.", "Das Lager fasst 50,3 Kisten."),
            ("Das Lager fasst sechshunderteinundachtzigtausendeinhundert Kisten.",
             "Das Lager fasst 681.100 Kisten."),
        ],
    }

    @pytest.mark.parametrize("locale", [EN, DE], ids=["en", "de"])
    def test_sentences_convert_to_their_value_gold(self, locale):
        gen = RuleBasedTextGenerator(locale, seed=1)
        sentences = []
        for expr_type in ExpressionType:
            sentences += gen.complete(build_sentence_prompt(2, expr_type, locale)).splitlines()
        converted = gen.complete(build_conversion_prompt(ExpressionType.YEAR) + "\n"
                                 + "\n".join(sentences)).splitlines()
        assert list(zip(sentences, converted)) == self.SENTENCE_GOLD[locale.language]

    def test_sweep_phrase_converts_to_its_time(self):
        gen = RuleBasedTextGenerator(EN, seed=1)
        sentence = gen.complete(build_timestamp_prompt("quarter to one", EN))
        converted = gen.complete(build_conversion_prompt(ExpressionType.TIMESTAMP)
                                 + "\n" + sentence)
        assert converted == sentence.replace("quarter to one", "12:45")

    def test_unknown_sentence_is_not_converted(self):
        gen = RuleBasedTextGenerator(EN, seed=1)
        prompt = build_conversion_prompt(ExpressionType.YEAR) + \
            "\nThe treaty was signed in nineteen forty-five."
        with pytest.raises(ValueError, match="not a sentence this generator produced"):
            gen.complete(prompt)
        # Neither is a sweep prompt's sentence when its phrase is no sweep phrase.
        sentence = gen.complete(build_timestamp_prompt("nine thirty", EN))
        with pytest.raises(ValueError, match="not a sentence this generator produced"):
            gen.complete(build_conversion_prompt(ExpressionType.TIMESTAMP) + "\n" + sentence)

    @pytest.mark.parametrize("locale", [EN, DE], ids=["en", "de"])
    def test_gold_agrees_with_the_normalizer(self, locale):
        # The gold comes from the drawn value, not from normalize_text, so
        # this is an agreement between two independent writers.
        gen = RuleBasedTextGenerator(locale, seed=15)
        for expr_type in ExpressionType:
            sentences = gen.complete(build_sentence_prompt(2_000, expr_type, locale)).splitlines()
            gold = gen.complete(build_conversion_prompt(expr_type) + "\n"
                                + "\n".join(sentences)).splitlines()
            assert len(sentences) == len(gold) == 2_000
            assert [(s, normalize_text(s, locale)) for s in sentences] == \
                list(zip(sentences, gold))
        sweep = [gen.complete(build_timestamp_prompt(phrase, locale))
                 for phrase, _ in enumerate_timestamp_phrasings(locale)]
        gold = gen.complete(build_conversion_prompt(ExpressionType.TIMESTAMP) + "\n"
                            + "\n".join(sweep)).splitlines()
        assert len(sweep) == len(gold) >= 72
        assert [(s, normalize_text(s, locale)) for s in sweep] == list(zip(sweep, gold))

    def test_timestamp_prompt_embeds_phrase(self):
        gen = RuleBasedTextGenerator(DE, seed=1)
        got = gen.complete(build_timestamp_prompt("viertel vor acht", DE))
        assert "viertel vor acht" in got
        assert len(got.splitlines()) == 1

    def test_unknown_prompt_rejected(self):
        with pytest.raises(ValueError):
            RuleBasedTextGenerator(EN).complete("What is the weather?")

    def test_seeded_determinism(self):
        prompt = build_sentence_prompt(8, ExpressionType.CURRENCY, EN)
        a = RuleBasedTextGenerator(EN, seed=9).complete(prompt)
        b = RuleBasedTextGenerator(EN, seed=9).complete(prompt)
        assert a == b


class EnumeratingGenerator(TextGenerator):
    """Misbehaving client that numbers its output lines."""

    def __init__(self, locale):
        super().__init__()
        self._locale = locale
        self._inner = RuleBasedTextGenerator(locale, seed=3)

    def complete(self, prompt):
        reply = self._inner.complete(prompt)
        if prompt.startswith("Generate"):
            reply = "\n".join(f"{i + 1}. {line}"
                              for i, line in enumerate(reply.splitlines()))
        return reply


class NumberlessGenerator(TextGenerator):
    def complete(self, prompt):
        if prompt.startswith("Generate"):
            return "A sentence without anything countable."
        return prompt.splitlines()[-1]


class FailingGenerator(TextGenerator):
    calls = 0

    def complete(self, prompt):
        type(self).calls += 1
        raise RuntimeError("backend down")


class FlakyGenerator(TextGenerator):
    """Fails its first call, then answers as the rule-based generator."""

    def __init__(self, locale):
        super().__init__()
        self._inner = RuleBasedTextGenerator(locale, seed=4)
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("transient")
        return self._inner.complete(prompt)


class ForeignSentenceGenerator(TextGenerator):
    """Answers its first sentence prompt with a sentence the rule-based
    generator never produced, and passes every other prompt through."""

    FOREIGN = "The treaty was signed in nineteen forty-five."

    def __init__(self, locale):
        super().__init__()
        self._inner = RuleBasedTextGenerator(locale, seed=5)
        self._replaced = False

    def complete(self, prompt):
        if prompt.startswith("Generate") and not self._replaced:
            self._replaced = True
            return self.FOREIGN
        return self._inner.complete(prompt)


class RecordingGenerator(TextGenerator):
    """Logs each (prompt, reply) in call order, the reply None for a failed
    call, and fails the calls whose numbers (from 1) are in ``fail``."""

    def __init__(self, locale, fail=()):
        super().__init__()
        self._inner = RuleBasedTextGenerator(locale, seed=7)
        self.fail = set(fail)
        self.calls = []

    def complete(self, prompt):
        self.calls.append((prompt, None))
        if len(self.calls) in self.fail:
            raise RuntimeError("backend down")
        reply = self._inner.complete(prompt)
        self.calls[-1] = (prompt, reply)
        return reply

    def kinds(self):
        return ["conversion" if prompt.startswith("Convert") else "sentence"
                for prompt, _ in self.calls]


class RecordingSynthesizer(MockSpeechSynthesizer):
    """Logs (thread, text, voice) per call; raises for the sentence ``fail``."""

    def __init__(self, fail=None):
        super().__init__()
        self.calls = []
        self.fail = fail

    def synthesize(self, text, voice):
        self.calls.append((threading.get_ident(), text, voice))
        if text == self.fail:
            raise RuntimeError("voice offline")


class TestRunGeneration:
    def plan(self, **kwargs):
        defaults = dict(locale=EN,
                        counts={ExpressionType.YEAR: 4,
                                ExpressionType.CURRENCY: 4},
                        seed=11)
        defaults.update(kwargs)
        return GenerationPlan(**defaults)

    def test_round_trip_consistency(self):
        records, stats = run_generation(
            self.plan(), RuleBasedTextGenerator(EN, seed=2),
            MockSpeechSynthesizer())
        assert stats.accepted == len(records) == 8
        assert stats.discarded == 0
        for rec in records:
            assert normalize_text(rec.verbalized, EN) == rec.formatted
            assert rec.audio is None
            assert rec.voice in GenerationPlan(locale=EN).voices

    def test_ids_are_unique_and_typed(self):
        records, _ = run_generation(
            self.plan(), RuleBasedTextGenerator(EN, seed=2),
            MockSpeechSynthesizer())
        ids = [r.id for r in records]
        assert len(set(ids)) == len(ids)
        assert all(r.id.startswith(f"en-{r.type}-") for r in records)

    def test_batching(self):
        plan = self.plan(counts={ExpressionType.YEAR: 7}, batch_size=5)
        _, stats = run_generation(plan, RuleBasedTextGenerator(EN, seed=2),
                                  MockSpeechSynthesizer())
        # Two sentence prompts (5 + 2) and two conversion prompts.
        assert stats.prompts_issued == 4
        assert stats.sentences_generated == 7

    def test_enumeration_prefixes_are_stripped(self):
        records, stats = run_generation(
            self.plan(counts={ExpressionType.YEAR: 5}),
            EnumeratingGenerator(EN), MockSpeechSynthesizer())
        assert stats.accepted == 5
        for rec in records:
            assert not rec.verbalized[0].isdigit()

    def test_numberless_sentences_are_discarded(self):
        plan = self.plan(counts={ExpressionType.YEAR: 1})
        records, stats = run_generation(plan, NumberlessGenerator(),
                                        MockSpeechSynthesizer())
        assert records == []
        assert stats.discarded == 1

    def test_total_failure_raises(self):
        plan = self.plan(counts={ExpressionType.YEAR: 1})
        with pytest.raises(GenerationError):
            run_generation(plan, FailingGenerator(), MockSpeechSynthesizer())

    def test_unknown_sentence_counts_as_conversion_failure(self):
        plan = self.plan(counts={ExpressionType.YEAR: 2}, batch_size=1)
        records, stats = run_generation(plan, ForeignSentenceGenerator(EN),
                                        MockSpeechSynthesizer())
        assert stats.failures == (
            "conversion failed: not a sentence this generator produced: "
            f"{ForeignSentenceGenerator.FOREIGN!r}",)
        assert stats.sentences_generated == 2
        assert stats.accepted == len(records) == 1
        assert stats.discarded == 0
        assert records[0].verbalized != ForeignSentenceGenerator.FOREIGN

    def test_failed_call_is_recorded_once_and_not_retried(self):
        plan = self.plan(counts={ExpressionType.YEAR: 2}, batch_size=1)
        textgen = FlakyGenerator(EN)
        records, stats = run_generation(plan, textgen, MockSpeechSynthesizer())
        assert stats.failures == ("sentence prompt failed: transient",)
        assert textgen.calls == stats.prompts_issued == 3
        assert stats.accepted == len(records) == 1

    def test_each_batch_is_converted_before_the_next_is_asked(self):
        textgen = RecordingGenerator(EN)
        plan = self.plan(counts={ExpressionType.YEAR: 3, ExpressionType.QUANTITY: 2},
                         batch_size=2, sweep_timestamp_phrasings=True)
        _, stats = run_generation(plan, textgen, MockSpeechSynthesizer())
        # Sentence prompts: 2 for the years, 1 for the quantities, 1 per sweep phrasing.
        assert textgen.kinds() == ["sentence", "conversion"] * (3 + 72)
        # Each conversion carries the sentences of the reply just before it.
        for (_, reply), (conversion, _) in zip(textgen.calls[::2], textgen.calls[1::2]):
            assert conversion.splitlines()[1:] == reply.splitlines()
        assert stats.prompts_issued == len(textgen.calls)

    def test_a_failed_sentence_prompt_issues_no_conversion(self):
        textgen = RecordingGenerator(EN, fail={3})
        plan = self.plan(counts={ExpressionType.YEAR: 6}, batch_size=2)
        records, stats = run_generation(plan, textgen, MockSpeechSynthesizer())
        assert textgen.kinds() == ["sentence", "conversion", "sentence",
                                   "sentence", "conversion"]
        assert stats.failures == ("sentence prompt failed: backend down",)
        assert stats.prompts_issued == len(textgen.calls) == 5
        assert stats.sentences_generated == stats.accepted == len(records) == 4

    def test_sweep_covers_all_phrasings(self):
        plan = GenerationPlan(locale=DE, sweep_timestamp_phrasings=True, seed=1)
        records, stats = run_generation(plan, RuleBasedTextGenerator(DE, seed=6),
                                        MockSpeechSynthesizer())
        assert stats.prompts_issued >= 72
        assert stats.accepted >= 70
        assert all(r.type == "timestamp" for r in records)

    def test_seeded_run_is_reproducible(self):
        args = (self.plan(), RuleBasedTextGenerator(EN, seed=2),
                MockSpeechSynthesizer())
        a, _ = run_generation(*args)
        b, _ = run_generation(self.plan(), RuleBasedTextGenerator(EN, seed=2),
                              MockSpeechSynthesizer())
        assert a == b

    def test_synthesis_runs_inline_in_sentence_order(self):
        synth = RecordingSynthesizer()
        records, stats = run_generation(
            self.plan(), RuleBasedTextGenerator(EN, seed=2), synth)
        assert stats.sentences_generated == len(records) == 8
        assert {ident for ident, _, _ in synth.calls} == {threading.get_ident()}
        assert [(text, voice) for _, text, voice in synth.calls] == \
            [(r.verbalized, r.voice) for r in records]

    def test_synthesis_failure_is_recorded_once(self):
        expected, _ = run_generation(
            self.plan(), RuleBasedTextGenerator(EN, seed=2), MockSpeechSynthesizer())
        target = expected[2].verbalized
        synth = RecordingSynthesizer(fail=target)
        records, stats = run_generation(
            self.plan(), RuleBasedTextGenerator(EN, seed=2), synth)
        assert [text for _, text, _ in synth.calls].count(target) == 1
        assert stats.failures == (f"synthesis failed for {target!r}: voice offline",)
        assert records == expected

    @staticmethod
    def pinned_records():
        records = []
        for locale, seed in ((EN, 21), (DE, 22)):
            plan = GenerationPlan(locale=locale,
                                  counts={t: 3 for t in ExpressionType},
                                  sweep_timestamp_phrasings=True,
                                  batch_size=2, seed=seed)
            records += run_generation(
                plan, RuleBasedTextGenerator(locale, seed=seed),
                MockSpeechSynthesizer())[0]
        return records

    def test_pinned_output(self):
        # Pinned so that a restructured run_generation keeps the corpus byte for byte.
        lines = [r.to_json() for r in self.pinned_records()]
        assert len(lines) == 168
        assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == \
            "d60eb4d44c954eb5323dc0b060cd57d032c9baa402e452fc0bd37a8b061055de"

    def test_to_json_is_json_dumps(self):
        # to_json writes field by field the line json.dumps writes.
        odd = ManifestRecord(
            id="de-\u00e9\U0001f600", locale="de", type="currency",
            verbalized="f\u00fcnf \u201eEuro\u201c\t\u2028\"\\ \u00fc",
            formatted="5\u20ac \u00fc", expressions=(("5\u20ac", "currency"),),
            voice="\u00f8")
        for rec in [*self.pinned_records(), odd]:
            assert rec.to_json() == json.dumps(rec._asdict(), ensure_ascii=False)

    @settings(max_examples=300)
    @given(id=_JSON_TEXT, locale=_JSON_TEXT, type=st.sampled_from(_TYPE_VALUES),
           verbalized=_JSON_TEXT.map(lambda text: "".join(c for c in text if not c.isdigit())),
           text=_JSON_TEXT,
           expressions=st.lists(st.tuples(_JSON_TEXT.filter(bool), st.sampled_from(_TYPE_VALUES)),
                                min_size=1, max_size=3).map(tuple),
           audio=st.none() | _JSON_TEXT, voice=st.none() | _JSON_TEXT)
    def test_to_json_is_json_dumps_on_any_record(self, text, **fields):
        # Spaces keep every surface whole in the formatted side.
        rec = ManifestRecord(
            formatted=" ".join([text, *(surface for surface, _ in fields["expressions"])]),
            **fields)
        line = rec.to_json()
        assert line == json.dumps(rec._asdict(), ensure_ascii=False)
        assert ManifestRecord.from_obj(json.loads(line)) == rec


class TestCorpusStatistics:
    def test_table(self):
        splits = {
            "train": [make_record(str(i), [str(3000 + i)]) for i in range(3)],
            "dev": [make_record("d", ["4001"])],
            "test": [],
        }
        lines = corpus_statistics(splits).splitlines()
        assert lines[0].split() == ["Subset", "Utterances"]
        assert lines[1].split() == ["train", "3"]
        assert lines[2].split() == ["dev", "1"]
        assert lines[3].split() == ["test", "0"]


_CONVERTED_PIECES = ["Pay", "x", " ", "  ", "$50", "$9.1 million", "10:00", "2,000", "1945",
                     "(", ")", ".", ",", "5€", "a5", "_", "19", ":", "million", "v1.2"]


@settings(max_examples=500)
@given(text=st.lists(st.sampled_from(_CONVERTED_PIECES), max_size=14).map("".join),
       locale=st.sampled_from([EN, DE]))
@example(text="Pay $9.1 million at 10:00 for 2,000.", locale=EN)
@example(text="(1945)x5€ 19:", locale=DE)
@example(text="Pay 5€x now", locale=DE)
@example(text="Pay v1.2 now", locale=EN)
def test_literal_cut_keeps_the_tokens_of_the_any_rule(text, locale):
    # validate_record drops exactly the converted tokens some literal span
    # contains. The spoken side is what the any-rule keeps, less the tokens
    # with a digit, which no spoken line may hold: the pair passes exactly
    # when no kept token had a digit and the spoken side reads no number.
    tokens = tokenize(text)
    offsets = tokens.offsets()
    literals = extract_numeric_literals(text, locale)
    kept = [surface for i, surface in enumerate(tokens.surfaces)
            if not any(m.start() <= offsets[2 * i] and offsets[2 * i + 1] <= m.end()
                       for _, m in literals)]
    spoken = [surface for surface in kept if not any(map(str.isdigit, surface))]
    verbalized = " ".join(spoken)
    passes = spoken == kept and not scan_tokens(tokenize(verbalized), locale)
    assert triples(validate_record(verbalized, text, locale)) == (triples(literals) if passes else [])
