"""One lookup key per token: every table is read with ``Tokens.keys``.

The grammar and ``classify`` look each token up by its folded form
alone, English number words and idiom openers included. That is
sound for English because no such key can tell a folded token from a
lowercase one, and sound for punctuation because no key is all
punctuation. The tests here check both facts on the tables
themselves, and pin ``normalize_text`` byte for byte over a seeded grid of
mixed spellings, so a change to how tokens are keyed must keep it exactly.
"""

import hashlib
import random

from numitn import grammar, lexicon
from numitn.lexicon import AND_KEYS, POINT_KEYS, UNIT_STOPWORDS, YEAR_CUES, fold_german
from numitn.locales import CURRENCY_WORDS, DEFAULT_CONFIG, MINOR_UNIT_WORDS
from numitn.pipeline import normalize_text

LANGUAGES = ("en", "de")
# What the German fold writes for an umlaut or ß.
FOLD_PAIRS = ("ae", "oe", "ue", "ss")


def _phrase_keys(spellings):
    """Every key of every phrase in one of the grammar's spelling tables."""
    return {key for keys in spellings[0] for key in keys}


def grammar_keys(language):
    """Every key the grammar and ``classify`` look a token up in, for one language."""
    keys = {POINT_KEYS[language], AND_KEYS[language], grammar._HOUR_NOUN[language],
            *grammar._MINUTE_NOUNS[language], *grammar._MERIDIEMS[language],
            *_phrase_keys(grammar._IDIOMS[language]), *_phrase_keys(grammar._COUNTED[language]),
            *_phrase_keys(grammar._PERIODS[language]), *CURRENCY_WORDS[language],
            *MINOR_UNIT_WORDS, *YEAR_CUES[language], *UNIT_STOPWORDS[language]}
    if language == "de":
        return keys | {*lexicon.DE_GROUPS, *lexicon.SCALE_WORDS["de"],
                       *lexicon.DE_NUMBER_STARTS}
    spellings = (*lexicon.EN_GROUPS, *lexicon.EN_PAIR_HUNDREDS, *lexicon.EN_DIGIT_PAIRS)
    return keys | {key for spelling in spellings for key in spelling} | {*lexicon.SCALE_WORDS["en"]}


def english_word_keys():
    """The English number words and idiom openers, once read by the lowercase word."""
    return {*grammar._EN_START_WORDS, *lexicon.SCALE_WORDS["en"], lexicon.EN_HUNDRED,
            lexicon.EN_OH}


def test_english_word_keys_are_their_own_fold():
    assert {"forty-five", "million", "hundred", "oh", "quarter", "half"} <= english_word_keys()
    for key in english_word_keys():
        assert key.isascii() and key == key.lower(), key
        assert not any(pair in key for pair in FOLD_PAIRS), key


def test_every_key_holds_a_letter_or_digit():
    # A punctuation token has neither, so its folded form equals no key.
    for language in LANGUAGES:
        for key in grammar_keys(language):
            assert any(ch.isalnum() for ch in key), (language, key)


def _variants(key):
    """Case forms of ``key``, and each form with one letter or letter pair marked.

    "u" becomes "ü" and so does "ue"; "s" becomes "ß" and so does "ss".
    """
    yield from (key, key.upper(), key.capitalize())
    for plain, marked in (("a", "ä"), ("o", "ö"), ("u", "ü"), ("s", "ß"),
                          ("ae", "ä"), ("oe", "ö"), ("ue", "ü"), ("ss", "ß")):
        at = key.find(plain)
        while at >= 0:
            yield key[:at] + marked + key[at + len(plain):]
            at = key.find(plain, at + 1)


def test_english_lookup_by_fold_finds_what_lowercase_finds():
    keys = english_word_keys()
    for key in sorted(keys):
        for word in _variants(key):
            assert (fold_german(word) in keys) == (word.lower() in keys), word


# --- normalize pin -------------------------------------------------------------

# The grid spells its words here, independently of the library's tables, and
# includes lookalikes that are not numerals.
WORDS = {
    "en": ("zero one two three four five six seven eight nine ten eleven twelve thirteen "
           "nineteen twenty thirty forty-five fifty ninety hundred thousand million billion "
           "oh point and dollar dollars cent cents euros pounds quarter half past to "
           "o'clock am pm p.m. minute minutes morning evening night in the at since year "
           "by pieces people it was fives onesie hundreds").split(),
    "de": ("null eins ein eine zwei drei vier fünf sechs sieben acht neun zehn elf zwölf "
           "dreizehn neunzehn zwanzig dreißig vierzig fünfzig neunzig hundert tausend "
           "einhundert zweitausend fünfundvierzig neunzehnhundertfünfundvierzig "
           "zweitausendeinhundertfünf Million Millionen Milliarde Milliarden Komma und "
           "Euro Cent Dollar Pfund Uhr halb viertel nach vor Minute Minuten morgens "
           "nachmittags abends nachts seit Jahr bis Straße Grüße Leute Teile Hund "
           "achten einmal Zweifel").split(),
}
DIGIT_FORMS = ("7", "12", "2024", "4:30pm", "15.45", "$5", "1.000,50€", "9,5")
PUNCTUATION = (",", ".", "!", "?", ":", "(", ")", '"', "«", "—")


def _spell(rng, word):
    """``word`` as an ASR transcript might write it."""
    form = rng.randrange(6)
    if form == 1:
        word = word.capitalize()
    elif form == 2:
        word = word.upper()
    elif form == 3:
        word = word.replace("ä", "ae").replace("ö", "oe").replace("ü", "ue").replace("ß", "ss")
    elif form == 4:
        word = word.replace("ue", "ü").replace("ss", "ß")
    return word


def _grid(language, rng, lines):
    for _ in range(lines):
        pieces = []
        for _ in range(rng.randint(1, 10)):
            draw = rng.random()
            if draw < 0.08:
                pieces.append(rng.choice(DIGIT_FORMS))
                continue
            word = _spell(rng, rng.choice(WORDS[language]))
            if draw > 0.85:
                mark = rng.choice(PUNCTUATION)
                word = mark + word if mark in "(\"«" else word + mark
            pieces.append(word)
        yield " ".join(pieces)


def _normalize_lines():
    rng = random.Random(20240917)
    for language in LANGUAGES:
        locale = DEFAULT_CONFIG.locale(language)
        for line in _grid(language, rng, 600):
            try:
                out = normalize_text(line, locale)
            except ValueError as err:
                out = f"ValueError: {err}"
            yield f"{language}\t{line}\t{out}"


def test_normalize_text_pin():
    lines = list(_normalize_lines())
    # The grid is not vacuous: many lines change and some keep their text.
    changed = sum(line.split("\t")[1] != line.split("\t")[2] for line in lines)
    assert 300 < changed < len(lines)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == "ee4d25713743f0545b0babb51aec90c8def9bc2b4d2f035b380d147786dd95d8"
