"""Seeded benchmark inputs, built without calling the code under test.

Spoken lines come from a small number-word generator kept here, and each
written line is formatted here too, so the expected output of
``normalize`` is known without asking ``numitn`` (the independent oracle
for the transcripts workload). Only the corpus workload feeds the
library's own generator, because that generator is what it measures.

Every timed pass gets inputs of its own, built from (seed, pass index),
so no call repeats an earlier one and a cache across calls gains nothing
a user with fresh text would see. Sizes are stratified rather than drawn:
every pass gets the same number of lines of each kind and the same
paragraph lengths, so the index changes the words but not the amount of
work, which keeps passes and runs comparable.

The mix (how many lines carry a number, how many are perturbed, how big a
corpus round is) is a chosen stand-in, not a measured one: the repository
holds no real transcripts. The traced run reports the share of scan
positions where no parser matched (``grammar.no_parse_share``) so the
mix's weight on the failed-parse path is on record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

LOCALES = ("en", "de")
TYPES = ("year", "timestamp", "currency", "quantity")

# --- number words --------------------------------------------------------------

EN_UNITS = ("zero one two three four five six seven eight nine ten eleven twelve "
            "thirteen fourteen fifteen sixteen seventeen eighteen nineteen").split()
EN_TENS = ("", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy",
           "eighty", "ninety")
DE_UNITS = ("null eins zwei drei vier fünf sechs sieben acht neun zehn elf zwölf "
            "dreizehn vierzehn fünfzehn sechzehn siebzehn achtzehn neunzehn").split()
DE_TENS = ("", "", "zwanzig", "dreißig", "vierzig", "fünfzig", "sechzig",
           "siebzig", "achtzig", "neunzig")


def en_under_100(n: int) -> str:
    if n < 20:
        return EN_UNITS[n]
    tens, unit = divmod(n, 10)
    return f"{EN_TENS[tens]}-{EN_UNITS[unit]}" if unit else EN_TENS[tens]


def en_under_1000(n: int) -> str:
    hundreds, rest = divmod(n, 100)
    if not hundreds:
        return en_under_100(rest)
    head = f"{EN_UNITS[hundreds]} hundred"
    return f"{head} {en_under_100(rest)}" if rest else head


def en_int(n: int) -> str:
    """1..999999 without "and"."""
    thousands, rest = divmod(n, 1000)
    parts = [f"{en_under_1000(thousands)} thousand"] if thousands else []
    if rest:
        parts.append(en_under_1000(rest))
    return " ".join(parts)


def de_under_100(n: int, final: bool = True) -> str:
    if n == 1:
        return "eins" if final else "ein"
    if n < 20:
        return DE_UNITS[n]
    tens, unit = divmod(n, 10)
    if not unit:
        return DE_TENS[tens]
    return ("ein" if unit == 1 else DE_UNITS[unit]) + "und" + DE_TENS[tens]


def de_under_1000(n: int, final: bool = True) -> str:
    hundreds, rest = divmod(n, 100)
    if not hundreds:
        return de_under_100(rest, final)
    head = ("ein" if hundreds == 1 else DE_UNITS[hundreds]) + "hundert"
    return head + de_under_100(rest, final) if rest else head


def de_int(n: int) -> str:
    """1..999999 as one compound token."""
    thousands, rest = divmod(n, 1000)
    if not thousands:
        return de_under_1000(rest)
    head = ("ein" if thousands == 1 else de_under_1000(thousands, False)) + "tausend"
    return head + de_under_1000(rest) if rest else head


def group(n: int, separator: str) -> str:
    return f"{n:,}".replace(",", separator)


# --- spoken/written phrase pairs ---------------------------------------------------

EN_MONEY = (("$", "dollars"), ("€", "euros"), ("£", "pounds"))
DE_MONEY = (("€", "Euro"), ("$", "Dollar"), ("£", "Pfund"))
EN_UNIT_NOUNS = ("boxes", "residents", "kilometers", "crates", "pages",
                 "visitors", "liters", "tickets")
DE_UNIT_NOUNS = ("Kisten", "Einwohner", "Kilometer", "Seiten", "Besucher",
                 "Liter", "Karten", "Mitglieder")


def _en_year(rng: random.Random) -> tuple[str, str]:
    year = rng.randint(1100, 2099)
    high, low = divmod(year, 100)
    if high == 20 and low < 10:
        spoken = en_int(year)
    elif low == 0:
        spoken = f"{en_under_100(high)} hundred"
    elif low < 10:
        spoken = f"{en_under_100(high)} oh {EN_UNITS[low]}"
    else:
        spoken = f"{en_under_100(high)} {en_under_100(low)}"
    return spoken, str(year)


def _de_year(rng: random.Random) -> tuple[str, str]:
    year = rng.randint(1100, 2099)
    high, low = divmod(year, 100)
    if year < 2000:
        spoken = de_under_100(high, False) + "hundert" + (de_under_100(low) if low else "")
    else:
        spoken = de_int(year)
    return spoken, str(year)


def _en_time(rng: random.Random) -> tuple[str, str]:
    face = rng.randint(1, 12)
    words = en_under_100(face)
    style = rng.randrange(6)
    if style == 0:
        return f"{words} o'clock", f"{face}:00"
    if style == 1:
        return f"quarter past {words}", f"{face}:15"
    if style == 2:
        return f"half past {words}", f"{face}:30"
    if style == 3:
        return f"quarter to {words}", f"{face - 1 or 12}:45"
    if style == 4:
        minute = rng.randint(2, 29)
        return f"{en_under_100(minute)} minutes past {words}", f"{face}:{minute:02d}"
    hour, minute = rng.randint(0, 23), rng.randint(1, 59)
    middle = f"oh {EN_UNITS[minute]}" if minute < 10 else en_under_100(minute)
    meridiem = "am" if hour < 12 else "pm"
    return f"{en_under_100(hour % 12 or 12)} {middle} {meridiem}", f"{hour}:{minute:02d}"


def _de_time(rng: random.Random) -> tuple[str, str]:
    style = rng.randrange(5)
    if style < 2:
        hour = rng.randint(2, 23)
        head = f"{de_under_100(hour, False)} Uhr"
        if style == 0:
            return head, f"{hour}:00"
        minute = rng.randint(1, 59)
        return f"{head} {de_under_100(minute)}", f"{hour}:{minute:02d}"
    face = rng.randint(2, 12)
    words = de_under_100(face)
    if style == 2:
        return f"viertel nach {words}", f"{face}:15"
    if style == 3:
        return f"halb {words}", f"{face - 1}:30"
    return f"viertel vor {words}", f"{face - 1}:45"


def _money(rng: random.Random, language: str) -> tuple[str, str]:
    de = language == "de"
    symbol, noun = rng.choice(DE_MONEY if de else EN_MONEY)
    number, sep, mark = (de_int, ".", ",") if de else (en_int, ",", ".")
    shape = rng.randrange(3)
    if shape == 0:
        amount = rng.randint(2, 99999)
        spoken, body = f"{number(amount)} {noun}", group(amount, sep)
    elif shape == 1:
        amount, cents = rng.randint(2, 99999), rng.randint(2, 99)
        conj, cent_noun = ("und", "Cent") if de else ("and", "cents")
        spoken = f"{number(amount)} {noun} {conj} {number(cents)} {cent_noun}"
        body = f"{group(amount, sep)}{mark}{cents:02d}"
    else:
        count = rng.randint(2, 999)
        magnitude = rng.choice(("Millionen", "Milliarden") if de else ("million", "billion"))
        spoken, body = f"{number(count)} {magnitude} {noun}", f"{count} {magnitude}"
    return spoken, (body + symbol if de else symbol + body)


def _quantity(rng: random.Random, language: str) -> tuple[str, str]:
    de = language == "de"
    unit = rng.choice(DE_UNIT_NOUNS if de else EN_UNIT_NOUNS)
    number, sep, mark = (de_int, ".", ",") if de else (en_int, ",", ".")
    shape = rng.randrange(3)
    if shape == 0:
        value = rng.randint(2, 999999)
        return f"{number(value)} {unit}", f"{group(value, sep)} {unit}"
    if shape == 1:
        whole = rng.randint(2, 9999)
        digits = [rng.randrange(10) for _ in range(rng.randint(1, 2))]
        names = DE_UNITS if de else EN_UNITS
        point = "Komma" if de else "point"
        spoken_digits = " ".join(names[d] for d in digits)
        written_digits = "".join(str(d) for d in digits)
        return (f"{number(whole)} {point} {spoken_digits} {unit}",
                f"{group(whole, sep)}{mark}{written_digits} {unit}")
    count = rng.randint(2, 999)
    magnitude = rng.choice(("Millionen", "Milliarden") if de else ("million", "billion"))
    return f"{number(count)} {magnitude} {unit}", f"{count} {magnitude} {unit}"


# Years always follow a year cue so typing never depends on the reading.
CARRIERS = {
    ("en", "year"): ("The treaty was signed in {}.", "Nothing much has changed since {}.",
                     "The archive covers the year {}.", "The shop stayed open until {}."),
    ("en", "timestamp"): ("The meeting starts at {}.", "The train leaves at {}.",
                          "She called me at {}.", "Doors open at {}."),
    ("en", "currency"): ("The ticket costs {}.", "They paid {} for the repairs.",
                         "The invoice came to {}.", "He donated {} last spring."),
    ("en", "quantity"): ("They ordered {} for the fair.", "The report lists {} in total.",
                         "We counted {} along the road.", "The warehouse stores {} today."),
    ("de", "year"): ("Der Vertrag wurde im Jahr {} unterzeichnet.", "Seit {} wohnt sie in der Stadt.",
                     "Die Brücke stammt aus dem Jahr {}.", "Bis {} blieb alles beim Alten."),
    ("de", "timestamp"): ("Das Treffen beginnt um {}.", "Der Zug fährt um {} ab.",
                          "Sie rief mich um {} an.", "Die Türen öffnen um {}."),
    ("de", "currency"): ("Die Karte kostet {}.", "Die Rechnung belief sich auf {}.",
                         "Er spendete {} im Frühjahr.", "Sie zahlten {} für die Reparatur."),
    ("de", "quantity"): ("Sie bestellten {} für das Fest.", "Der Bericht nennt {} insgesamt.",
                         "Wir zählten {} am Straßenrand.", "Das Lager fasst heute {}."),
}

# Number-free sentences: subject, verb phrase, tail. No word here is a
# number word in either language, so normalize must return them as is.
PLAIN = {
    "en": (("The committee", "Our neighbours", "The old bridge", "Most visitors",
            "The orchestra", "My sister", "The river", "Every student", "The garden"),
           ("stayed calm", "looked tired", "seemed quiet", "waited patiently",
            "moved slowly", "listened carefully", "changed little", "grew restless"),
           ("all afternoon", "during the storm", "after the long speech",
            "near the station", "despite the noise", "under the grey sky",
            "without any complaint", "for the whole season")),
    "de": (("Der Ausschuss", "Unsere Nachbarn", "Die alte Brücke", "Die meisten Gäste",
            "Das Orchester", "Meine Schwester", "Der Fluss", "Jeder Schüler", "Der Garten"),
           ("blieb ruhig", "wirkte müde", "war still", "wartete geduldig",
            "bewegte sich langsam", "hörte genau zu", "veränderte sich kaum", "wurde unruhig"),
           ("den ganzen Nachmittag", "während des Sturms", "nach der langen Rede",
            "nahe dem Bahnhof", "trotz des Lärms", "unter dem grauen Himmel",
            "ohne jede Klage", "die ganze Saison")),
}


def numeric_sentence(rng: random.Random, language: str, expr_type: str) -> tuple[str, str]:
    """One carrier sentence holding one expression: (spoken, written)."""
    if expr_type == "year":
        spoken, written = (_de_year if language == "de" else _en_year)(rng)
    elif expr_type == "timestamp":
        spoken, written = (_de_time if language == "de" else _en_time)(rng)
    elif expr_type == "currency":
        spoken, written = _money(rng, language)
    else:
        spoken, written = _quantity(rng, language)
    carrier = rng.choice(CARRIERS[(language, expr_type)])
    return carrier.format(spoken), carrier.format(written)


def plain_sentence(rng: random.Random, language: str) -> str:
    subjects, verbs, tails = PLAIN[language]
    return f"{rng.choice(subjects)} {rng.choice(verbs)} {rng.choice(tails)}."


def _mixed_sentence(rng: random.Random, language: str, at: int) -> tuple[str, str]:
    # Two numeric sentences for every number-free one.
    if at % 3 == 2:
        line = plain_sentence(rng, language)
        return line, line
    return numeric_sentence(rng, language, TYPES[rng.randrange(4)])


# --- transcripts -----------------------------------------------------------------


@dataclass(frozen=True)
class TranscriptLine:
    """One line of the transcripts workload.

    ``spoken`` goes through normalize and must come out as ``written``;
    ``written`` goes through verbalize and must round-trip. A probe runs
    one direction only: a normalize probe must give ``written``, and a
    verbalize probe (``spoken`` is None) must give its input back.
    """

    locale: str
    kind: str
    spoken: Optional[str]
    written: str
    probe: bool = False


# Known defects from the open robustness items, each with the output a
# correct program gives. They stay in the stream so a fix shows as a drop
# in error_rate.
PROBES = (
    TranscriptLine("en", "probe", "It happened in two thousand and five.",
                   "It happened in 2005.", True),
    TranscriptLine("en", "probe", "No one came", "No one came", True),
    TranscriptLine("de", "probe", "ein paar Leute", "ein paar Leute", True),
    TranscriptLine("en", "probe", None, "The counter read 123456789012345678901.", True),
)

# Per locale: 40 single sentences per type, 80 number-free lines and 8
# multi-sentence lines of each length 2..8; one probe per 100 lines.
# Chosen, not measured: about seven in ten sentences carry a number.
SINGLES_PER_TYPE = 40
PLAIN_LINES = 80
MULTI_PER_LENGTH = 8
PROBE_EVERY = 100


def verbalize_seed(seed: int, index: int) -> int:
    """The verbalizer's random seed for pass ``index``; the CLI gets the same."""
    return seed * 1_000_000 + index


def transcript_lines(seed: int, index: int = 0, scale: float = 1.0) -> list[TranscriptLine]:
    """The lines of pass ``index``, en and de interleaved half and half."""
    rng = random.Random(f"transcripts/{seed}/{index}")
    per_locale: dict[str, list[TranscriptLine]] = {}
    for language in LOCALES:
        lines: list[TranscriptLine] = []
        for expr_type in TYPES:
            for _ in range(max(1, round(SINGLES_PER_TYPE * scale))):
                spoken, written = numeric_sentence(rng, language, expr_type)
                lines.append(TranscriptLine(language, expr_type, spoken, written))
        for _ in range(max(1, round(PLAIN_LINES * scale))):
            line = plain_sentence(rng, language)
            lines.append(TranscriptLine(language, "plain", line, line))
        for length in range(2, 9):
            for _ in range(max(1, round(MULTI_PER_LENGTH * scale))):
                pairs = [_mixed_sentence(rng, language, at) for at in range(length)]
                rng.shuffle(pairs)
                lines.append(TranscriptLine(language, "multi",
                                            " ".join(s for s, _ in pairs),
                                            " ".join(w for _, w in pairs)))
        rng.shuffle(lines)
        per_locale[language] = lines
    mixed: list[TranscriptLine] = []
    for en_line, de_line in zip(per_locale["en"], per_locale["de"]):
        mixed.extend((en_line, de_line))
    out: list[TranscriptLine] = []
    for at, line in enumerate(mixed):
        if at % PROBE_EVERY == PROBE_EVERY - 1:
            out.append(PROBES[(at // PROBE_EVERY) % len(PROBES)])
        out.append(line)
    return out


# --- paragraphs -------------------------------------------------------------------

# Twenty long pairs leave twelve beyond the 75th percentile of pair
# latency, and thirty short ones put the median among lines of 16 tokens
# or fewer.
PARAGRAPHS = 20
SHORT_PAIRS = 30
SHORT_TOKENS = (2, 16)
MIN_TOKENS = 16
MAX_TOKENS = 1000
PERTURBED_SHARE = 0.25
NOISE_WORDS = ("lorem", "ipsum", "dolor", "amet", "velit", "tempor", "magna",
               "aliqua", "veniam", "nostrud")


@dataclass(frozen=True)
class ParagraphPair:
    source: str
    rewritten: str


def _pair(rng: random.Random, language: str, target: int, perturb: bool) -> ParagraphPair:
    spoken: list[str] = []
    written: list[str] = []
    tokens = 0
    while True:
        s, w = _mixed_sentence(rng, language, len(spoken))
        if tokens + len(s.split()) > target:
            break
        spoken.append(s)
        written.append(w)
        tokens += len(s.split())
    # Top up with number-free words so the source has exactly the
    # target length on every pass.
    while tokens < target:
        words = plain_sentence(rng, language).split()[:target - tokens]
        spoken.append(" ".join(words))
        written.append(" ".join(words))
        tokens += len(words)
    rewritten = " ".join(written).split()
    if perturb:
        for i in rng.sample(range(len(rewritten)), round(0.8 * len(rewritten))):
            rewritten[i] = rng.choice(NOISE_WORDS)
    return ParagraphPair(" ".join(spoken), " ".join(rewritten))


def paragraph_pairs(seed: int, index: int = 0, count: int = PARAGRAPHS,
                    short: int = SHORT_PAIRS) -> list[ParagraphPair]:
    """(source, rewritten) pairs of pass ``index``: ``count`` long ones
    whose source lengths are log-uniform, and ``short`` short ones.

    Long source lengths sit exactly at the midpoints of ``count`` equal
    strata of the log-uniform law on [16, 1000] tokens, and short ones
    cycle through 2..16 tokens, so every pass does nearly the same amount
    of edit-distance work. A seeded quarter of the pairs has 80% of its
    rewritten tokens replaced, which puts it past the guard's 0.5
    threshold; the rest differ only where numbers were written out.
    """
    rng = random.Random(f"paragraphs/{seed}/{index}")
    low, high = SHORT_TOKENS
    ratio = MAX_TOKENS / MIN_TOKENS
    targets = ([round(MIN_TOKENS * ratio ** ((at + 0.5) / count)) for at in range(count)]
               + [low + at % (high - low + 1) for at in range(short)])
    perturbed = set(rng.sample(range(len(targets)), round(len(targets) * PERTURBED_SHARE)))
    pairs = [_pair(rng, LOCALES[at % 2], target, at in perturbed)
             for at, target in enumerate(targets)]
    rng.shuffle(pairs)
    return pairs


# --- corpus -----------------------------------------------------------------------

# Forty rounds leave ten beyond the 75th percentile of round latency. The
# timestamp sweep (every phrasing the locale knows, about four times the
# records of a round without it) runs in every third round, so the tail
# is a sweep round and a pass stays short.
CORPUS_PLANS = 40
CORPUS_PER_TYPE = 3
SWEEP_EVERY = 3


@dataclass(frozen=True)
class CorpusPlan:
    locale: str
    per_type: int
    seed: int
    sweep: bool


def corpus_plans(seed: int, index: int = 0, per_type: int = CORPUS_PER_TYPE,
                 plans: int = CORPUS_PLANS) -> list[CorpusPlan]:
    """Generation rounds of pass ``index``, alternating en and de."""
    rng = random.Random(f"corpus/{seed}/{index}")
    return [CorpusPlan(LOCALES[at % 2], per_type, rng.randrange(2**31), at % SWEEP_EVERY == 0)
            for at in range(plans)]
