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


def test_offsets_point_into_source():
    text = "Um 15.45 Uhr, wirklich."
    tokens = tokenize(text)
    assert [text[start:end] for start, end in tokens.spans] == tokens.surfaces


def test_folded_key():
    assert tokenize("Fünfundzwanzig Uhr").keys == ["fuenfundzwanzig", "uhr"]
    assert tokenize("Forty").keys == ["forty"]
    assert tokenize("STRASSE Straße").keys == ["strasse", "strasse"]
    assert tokenize("GROẞ, Fünf").keys == ["gross", ",", "fuenf"]


@given(st.text(max_size=80))
def test_reconstruction_from_offsets(text):
    # Tokens plus the gaps between them must cover the input exactly.
    tokens = tokenize(text)
    cursor = 0
    rebuilt = []
    for surface, (start, end) in zip(tokens.surfaces, tokens.spans):
        assert start >= cursor
        rebuilt.append(text[cursor:start])
        rebuilt.append(surface)
        cursor = end
    rebuilt.append(text[cursor:])
    assert "".join(rebuilt) == text


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
    assert tokens.spans == spans
    assert len(tokens) == len(surfaces)


@given(st.text(alphabet=_EDGE_ALPHABET, max_size=40))
def test_matches_peel_loop(text):
    _assert_matches_reference(text)


@given(st.text(max_size=60))
def test_matches_peel_loop_on_any_text(text):
    _assert_matches_reference(text)


def test_tokens_are_a_record_of_three_lists():
    tokens = tokenize("Fünf")
    assert tokens == Tokens(["Fünf"], ["fuenf"], [(0, 4)])
    assert len(tokens) == 1
    assert repr(tokens) == "Tokens(surfaces=['Fünf'], keys=['fuenf'], spans=[(0, 4)])"
    with pytest.raises(AttributeError):
        tokens.index = [0]
