import re

import pytest
from hypothesis import given, strategies as st

from numitn.lexicon import fold_german
from numitn.tokenizer import _PEEL, Token, tokenize


def reference_tokenize(sentence):
    """Chunk on whitespace, then peel _PEEL characters off each edge one by one."""
    tokens = []
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
            surface = sentence[s:e]
            tokens.append(Token(
                surface=surface,
                folded=fold_german(surface),
                start=s,
                end=e,
            ))
    return tokens


def reference_is_word(surface):
    return any(ch.isalnum() for ch in surface)


def test_keeps_interior_punctuation():
    surfaces = [t.surface for t in tokenize("It's at 4:30pm, o'clock forty-five!")]
    assert surfaces == ["It's", "at", "4:30pm", ",", "o'clock", "forty-five", "!"]


def test_peels_nested_punctuation():
    surfaces = [t.surface for t in tokenize('She said ("really?").')]
    assert surfaces == ["She", "said", "(", '"', "really", "?", '"', ")", "."]


def test_currency_symbols_stay_attached():
    surfaces = [t.surface for t in tokenize("Costs $1,000.50 or 1.000,50€ today.")]
    assert "$1,000.50" in surfaces
    assert "1.000,50€" in surfaces


def test_offsets_point_into_source():
    text = "Um 15.45 Uhr, wirklich."
    for token in tokenize(text):
        assert text[token.start:token.end] == token.surface


def test_word_flag():
    tokens = tokenize("Uhr! ²-$ _ ٣")
    assert [t.is_word for t in tokens] == [True, False, True, False, True]


def test_folded_key():
    fuenf, uhr = tokenize("Fünfundzwanzig Uhr")
    assert fuenf.folded == "fuenfundzwanzig"
    assert uhr.folded == "uhr"
    assert tokenize("Forty")[0].folded == "forty"
    assert tokenize("STRASSE Straße")[1].folded == "strasse"


@given(st.text(max_size=80))
def test_reconstruction_from_offsets(text):
    # Tokens plus the gaps between them must cover the input exactly.
    tokens = tokenize(text)
    cursor = 0
    rebuilt = []
    for token in tokens:
        assert token.start >= cursor
        rebuilt.append(text[cursor:token.start])
        rebuilt.append(token.surface)
        cursor = token.end
    rebuilt.append(text[cursor:])
    assert "".join(rebuilt) == text


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
               min_size=1, max_size=20))
def test_single_word_is_one_token(word):
    tokens = tokenize(word)
    assert len(tokens) == 1
    assert tokens[0].surface == word


# Dense in peel characters and the edge cases of \s and \w: Unicode spaces,
# an information separator, "_", a superscript digit and non-Latin digits.
_EDGE_ALPHABET = st.sampled_from(
    sorted(_PEEL) + [" ", "\t", "\n", "\u00a0", "\u2009", "\u3000", "\x1c",
                     "_", "²", "٣", "७", "a", "Z", "ß", "Ü", "9", "$", "€", "-", "/"])


def _assert_matches_reference(text):
    tokens = tokenize(text)
    assert tokens == reference_tokenize(text)
    assert [t.is_word for t in tokens] == [reference_is_word(t.surface) for t in tokens]


@given(st.text(alphabet=_EDGE_ALPHABET, max_size=40))
def test_matches_peel_loop(text):
    _assert_matches_reference(text)


@given(st.text(max_size=60))
def test_matches_peel_loop_on_any_text(text):
    _assert_matches_reference(text)


def test_token_is_an_immutable_record():
    token = tokenize("Fünf")[0]
    assert token == Token("Fünf", "fuenf", 0, 4)
    assert hash(token) == hash(Token("Fünf", "fuenf", 0, 4))
    assert repr(token) == "Token(surface='Fünf', folded='fuenf', start=0, end=4)"
    with pytest.raises(AttributeError):
        token.surface = "Sechs"
    with pytest.raises(AttributeError):
        token.is_word = False
