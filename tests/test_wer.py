import random

import pytest
from hypothesis import given, settings, strategies as st

from numitn import distance, evaluate, wer
from numitn.wer import GuardConfig, edit_distance, guard, word_error_rate

words = st.lists(st.sampled_from(["a", "b", "c", "dog"]), max_size=8)


def reference_distance(a, b):
    """Textbook Wagner-Fischer DP: the outside check for ``edit_distance``."""
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        current = [i]
        for j, y in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (x != y)))
        previous = current
    return previous[-1]


def seeded_tokens(length, alphabet_size, seed):
    rng = random.Random(seed)
    return [f"w{rng.randrange(alphabet_size)}" for _ in range(length)]


def perturbed(tokens, seed):
    """A copy with about a tenth of the tokens substituted, deleted or inserted."""
    rng = random.Random(seed)
    out = []
    for token in tokens:
        roll = rng.random()
        if roll < 0.03:
            continue
        out.append("x" if roll < 0.07 else token)
        if roll > 0.97:
            out.append("y")
    return out


# CPython ints hold 30-bit digits; these pattern lengths sit on both sides
# of the first digit boundaries and of a 64-bit machine word.
BOUNDARY_LENGTHS = [1, 29, 30, 31, 59, 60, 61, 63, 64, 65, 1000]


class TestEditDistance:
    @pytest.mark.parametrize("ref,hyp,d", [
        ([], [], 0),
        ([], ["a"], 1),
        (["a"], [], 1),
        (["a", "b"], ["a", "b"], 0),
        (["a", "b"], ["a", "c"], 1),
        (["a", "b", "c"], ["a", "c"], 1),
        (["a", "b"], ["b", "a"], 2),
        (["kitten"], ["sitting"], 1),
        (["a", "b", "c", "d"], ["x", "y"], 4),
    ])
    def test_table(self, ref, hyp, d):
        assert edit_distance(ref, hyp) == d

    @given(words, words)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(words)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(words, words, words)
    def test_triangle(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(words, words)
    def test_bounds(self, a, b):
        d = edit_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


    def test_wer_and_evaluate_bind_the_one_function(self):
        # The benchmark's tracer wraps numitn.wer.edit_distance by identity in
        # every module that binds it, so eval's calls count only through one object.
        assert wer.edit_distance is distance.edit_distance is evaluate.edit_distance


class TestAgainstReference:
    # A one-token alphabet makes every token match, which drives the longest
    # carry chains through ``(x & pv) + pv``.
    @pytest.mark.parametrize("alphabet_size", [1, 3, 50])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, alphabet_size, data):
        tokens = st.sampled_from([f"w{k}" for k in range(alphabet_size)])
        a = data.draw(st.lists(tokens, max_size=150))
        b = data.draw(st.lists(tokens, max_size=150))
        expected = reference_distance(a, b)
        assert edit_distance(a, b) == expected
        assert edit_distance(b, a) == expected

    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    @pytest.mark.parametrize("alphabet_size", [1, 3, 50])
    def test_digit_boundaries(self, length, alphabet_size):
        tokens = seeded_tokens(length, alphabet_size, seed=length)
        partners = [
            seeded_tokens(min(length, 7), alphabet_size, seed=length + 1),
            seeded_tokens(length, alphabet_size, seed=length + 2),
            perturbed(tokens, seed=length + 3),
        ]
        for partner in partners:
            expected = reference_distance(tokens, partner)
            assert edit_distance(tokens, partner) == expected
            assert edit_distance(partner, tokens) == expected

    # ``edit_distance`` strips the tokens both sides share at their start
    # and end before the bit-parallel core runs on what is left.
    @pytest.mark.parametrize("alphabet_size", [1, 2, 3, 50])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_shared_ends(self, alphabet_size, data):
        tokens = st.sampled_from([f"w{k}" for k in range(alphabet_size)])
        prefix = data.draw(st.lists(tokens, max_size=70))
        suffix = data.draw(st.lists(tokens, max_size=70))
        a = prefix + data.draw(st.lists(tokens, max_size=80)) + suffix
        b = prefix + data.draw(st.lists(tokens, max_size=80)) + suffix
        expected = reference_distance(a, b)
        assert edit_distance(a, b) == expected
        assert edit_distance(b, a) == expected

    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    @pytest.mark.parametrize("alphabet_size", [1, 3, 50])
    def test_prefix_or_suffix_of_the_other(self, length, alphabet_size):
        tokens = seeded_tokens(length, alphabet_size, seed=length)
        half = length // 2
        for partner in (tokens[:half], tokens[half:], tokens[:-1], tokens[1:]):
            expected = reference_distance(tokens, partner)
            assert edit_distance(tokens, partner) == expected
            assert edit_distance(partner, tokens) == expected

    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    @pytest.mark.parametrize("alphabet_size", [1, 3, 50])
    def test_middle_after_shared_ends(self, length, alphabet_size):
        # Distinct markers end each middle, so the longer one left after
        # the trim is exactly ``length`` tokens, on a digit boundary.
        head = seeded_tokens(100, alphabet_size, seed=-length)
        tail = seeded_tokens(37, alphabet_size, seed=-length - 1)
        body = seeded_tokens(length, alphabet_size, seed=length)
        middle = ["<", *body[1:-1], ">"][:length]
        other = ["[", *perturbed(body, seed=length)[1:length - 1], "]"][:length]
        a, b = head + middle + tail, head + other + tail
        expected = reference_distance(a, b)
        assert edit_distance(a, b) == expected
        assert edit_distance(b, a) == expected

    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_one_side_empty(self, length):
        tokens = seeded_tokens(length, 3, seed=length)
        assert edit_distance(tokens, []) == length
        assert edit_distance([], tokens) == length


class TestWordErrorRate:
    @pytest.mark.parametrize("ref,hyp,rate", [
        ("the cat sat", "the cat sat", 0.0),
        ("the cat sat", "the cat", 1 / 3),
        ("a b c d", "a x c d", 0.25),
        ("", "", 0.0),
        ("", "anything at all", 3.0),
        ("one two", "one two three four", 1.0),
    ])
    def test_table(self, ref, hyp, rate):
        assert word_error_rate(ref, hyp) == rate

    def test_whitespace_tokenization(self):
        assert word_error_rate("a  b\tc", "a b c") == 0.0

    def test_case_matters(self):
        assert word_error_rate("The cat", "the cat") == 0.5

    @given(st.text(max_size=40), st.text(max_size=40))
    def test_non_negative(self, a, b):
        assert word_error_rate(a, b) >= 0.0

    @given(st.text(max_size=40))
    def test_self_is_zero(self, a):
        assert word_error_rate(a, a) == 0.0


class TestGuard:
    def test_kept_below_threshold(self):
        decision = guard("the cat sat on the mat", "the cat sat on the hat")
        assert decision.kept
        assert decision.wer == pytest.approx(1 / 6)
        assert decision.text == "the cat sat on the hat"

    def test_reverted_above_threshold(self):
        decision = guard("one two", "totally different text here")
        assert not decision.kept
        assert decision.text == "one two"

    def test_boundary_is_kept(self):
        # 1 edit over 2 reference words lands exactly on the default 0.5.
        decision = guard("alpha beta", "alpha gamma")
        assert decision.wer == 0.5
        assert decision.kept

    def test_custom_threshold(self):
        config = GuardConfig(threshold=0.0)
        decision = guard("a b", "a c", config)
        assert not decision.kept

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            GuardConfig(threshold=-0.1)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError):
            GuardConfig(threshold=threshold)

    @given(st.text(max_size=30), st.text(max_size=30),
           st.floats(min_value=0, max_value=4, allow_nan=False))
    def test_decision_is_consistent(self, source, rewritten, threshold):
        decision = guard(source, rewritten, GuardConfig(threshold=threshold))
        assert decision.kept == (decision.wer <= threshold)
        assert decision.text == (rewritten if decision.kept else source)
