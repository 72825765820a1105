import re

import pytest
from hypothesis import given, strategies as st

from numitn.lexicon import fold_german
from numitn.tokenizer import _PEEL, Tokens, tokenize


def reference_tokenize(sentence):
    """Chunk on whitespace, then peel _PEEL characters off each edge one by one.

    Returns the surfaces, the folded keys and the spans, one entry per token.
    """
    surfaces, keys, spans = [], [], []
    for chunk in re.finditer(r"\S+", sentence):
        i, j = chunk.start(), chunk.end()
        lead = []
        while i < j and sentence[i] in _PEEL:
            lead.append((i, i + 1))
            i += 1
        trail = []
        while j > i and sentence[j - 1] in _PEEL:
            trail.append((j - 1, j))
            j -= 1
        pieces = lead + ([(i, j)] if i < j else []) + list(reversed(trail))
        for s, e in pieces:
            surfaces.append(sentence[s:e])
            keys.append(fold_german(sentence[s:e]))
            spans.append((s, e))
    return surfaces, keys, spans


def test_keeps_interior_punctuation():
    surfaces = tokenize("It's at 4:30pm, o'clock forty-five!").surfaces
    assert surfaces == ["It's", "at", "4:30pm", ",", "o'clock", "forty-five", "!"]


def test_peels_nested_punctuation():
    surfaces = tokenize('She said ("really?").').surfaces
    assert surfaces == ["She", "said", "(", '"', "really", "?", '"', ")", "."]


def test_currency_symbols_stay_attached():
    surfaces = tokenize("Costs $1,000.50 or 1.000,50€ today.").surfaces
    assert "$1,000.50" in surfaces
    assert "1.000,50€" in surfaces


def char_spans(tokens):
    """(start, end) char offsets of each token, read from ``offsets()``."""
    offsets = tokens.offsets()
    return list(zip(offsets[0::2], offsets[1::2]))


def test_offsets_point_into_source():
    text = "Um 15.45 Uhr, wirklich."
    tokens = tokenize(text)
    assert [text[start:end] for start, end in char_spans(tokens)] == tokens.surfaces
    assert tokens.offsets()[-1] == len(text)


def test_folded_key():
    assert tokenize("Fünfundzwanzig Uhr").keys == ["fuenfundzwanzig", "uhr"]
    assert tokenize("Forty").keys == ["forty"]
    assert tokenize("STRASSE Straße").keys == ["strasse", "strasse"]
    assert tokenize("GROẞ, Fünf").keys == ["gross", ",", "fuenf"]


@given(st.text(max_size=80))
def test_parts_rebuild_the_input(text):
    # The gaps and tokens alternate and cover the input exactly.
    tokens = tokenize(text)
    assert "".join(tokens.parts) == text
    assert tokens.parts[1::2] == tokens.surfaces


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
               min_size=1, max_size=20))
def test_single_word_is_one_token(word):
    tokens = tokenize(word)
    assert len(tokens) == 1
    assert tokens.surfaces == [word]


# Dense in peel characters and the edge cases of \s and \w: Unicode spaces,
# an information separator, "_", a superscript digit and non-Latin digits.
# Σ lowercases by its context, and İ and ẞ change length when lowercased or folded.
_EDGE_ALPHABET = st.sampled_from(
    sorted(_PEEL) + [" ", "\t", "\n", "\u00a0", "\u2009", "\u3000", "\x1c",
                     "_", "²", "٣", "७", "a", "Z", "ß", "Ü", "9", "$", "€", "-", "/",
                     "Σ", "ς", "İ", "ẞ"])


def _assert_matches_reference(text):
    tokens = tokenize(text)
    surfaces, keys, spans = reference_tokenize(text)
    assert tokens.surfaces == surfaces
    assert tokens.keys == keys
    assert char_spans(tokens) == spans
    assert len(tokens) == len(surfaces)


@given(st.text(alphabet=_EDGE_ALPHABET, max_size=40))
def test_matches_peel_loop(text):
    _assert_matches_reference(text)


@given(st.text(max_size=60))
def test_matches_peel_loop_on_any_text(text):
    _assert_matches_reference(text)


@given(st.text(alphabet=_EDGE_ALPHABET, max_size=40) | st.text(max_size=60))
def test_one_fold_per_line_is_the_fold_of_each_token(text):
    tokens = tokenize(text)
    assert tokens.keys == [fold_german(surface) for surface in tokens.surfaces]


def test_tokens_are_a_record_of_three_lists():
    tokens = tokenize(" Fünf!")
    assert tokens == Tokens([" ", "Fünf", "", "!", ""], ["Fünf", "!"], ["fuenf", "!"])
    assert len(tokens) == 2
    assert tokens.offsets() == [1, 5, 5, 6, 6]
    assert repr(tokens) == \
        "Tokens(parts=[' ', 'Fünf', '', '!', ''], surfaces=['Fünf', '!'], keys=['fuenf', '!'])"
    with pytest.raises(AttributeError):
        tokens.spans = [(1, 5)]

