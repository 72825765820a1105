from hypothesis import given, strategies as st

from numitn.tokenizer import tokenize


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


def test_lowercased_and_flags():
    tokens = tokenize("Uhr!")
    assert tokens[0].lowercased == "uhr"
    assert tokens[0].is_word
    assert not tokens[1].is_word


def test_folded_key():
    fuenf, uhr = tokenize("Fünfundzwanzig Uhr")
    assert fuenf.folded == "fuenfundzwanzig"
    assert uhr.folded == "uhr"
    forty = tokenize("Forty")[0]
    assert forty.folded == forty.lowercased == "forty"


def test_indexes_are_sequential():
    assert [t.index for t in tokenize("a b c.")] == [0, 1, 2, 3]


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
