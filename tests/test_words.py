import pytest
from hypothesis import given
from hypothesis import strategies as st

from isomon import (FiniteIntSet, NatIsometry, NotInFiltrationError, Token,
                    Word, WordSyntaxError, decompose, decompose_filtered,
                    evaluate, format_word, gen_e, parse)
from isomon.harness import UniverseSpec, enumerate_universe
from isomon.natmonoid import identity

UNIVERSE = enumerate_universe(UniverseSpec("nat", 6, 3))


def test_parse_examples():
    assert parse("e[3] b a^3") == Word([Token("e", 1, 3), Token("b", 1), Token("a", 3)])
    assert parse("a^2b") == Word([Token("a", 2), Token("b", 1)])
    assert parse("I") == Word()
    assert parse("a I b") == Word([Token("a", 1), Token("b", 1)])
    assert parse("a a") == Word([Token("a", 2)])


def test_parse_errors_carry_offsets():
    with pytest.raises(WordSyntaxError) as err:
        parse("e[1]")
    assert err.value.offset == 2
    with pytest.raises(WordSyntaxError) as err:
        parse("a^0")
    assert err.value.offset == 2
    with pytest.raises(WordSyntaxError) as err:
        parse("a b?")
    assert err.value.offset == 3
    with pytest.raises(WordSyntaxError) as err:
        parse("e[12 b")
    assert err.value.offset == 4
    with pytest.raises(WordSyntaxError) as err:
        parse("e3")
    assert err.value.offset == 1
    with pytest.raises(WordSyntaxError) as err:
        parse("a^")
    assert err.value.offset == 2
    # only ASCII digits: str.isdigit also takes other scripts' digits
    for text in ("a^\u0663 e[\u0664]", "a^\u00b2", "e[\u0664]"):
        with pytest.raises(WordSyntaxError) as err:
            parse(text)
        assert err.value.offset == 2


def test_format_examples():
    assert format_word(Word([Token("e", 1, 3), Token("b", 1), Token("a", 3)])) == "e[3] b a^3"
    assert format_word(Word()) == "I"
    assert format_word(Word([Token("a", 2)])) == "a^2"


def test_word_validation():
    with pytest.raises(ValueError):
        Word([Token("a", 0)])
    with pytest.raises(ValueError):
        Word([Token("e", 1, 1)])
    with pytest.raises(ValueError):
        Word([Token("q", 1)])


tokens = st.one_of(
    st.builds(Token, st.sampled_from(["a", "b"]), st.integers(1, 9), st.just(0)),
    st.builds(Token, st.just("e"), st.integers(1, 3), st.integers(2, 9)),
)
words = st.builds(Word, st.lists(tokens, max_size=8))


@given(words)
def test_parse_and_format_are_mutually_inverse(w):
    assert parse(format_word(w)) == w


@given(words, words)
def test_evaluation_is_homomorphic(w1, w2):
    assert evaluate(w1 * w2) == evaluate(w1) * evaluate(w2)


def test_eval_examples():
    assert evaluate(parse("a b")) == identity()
    assert evaluate(parse("b a")) == NatIsometry(0, FiniteIntSet([1]))
    assert evaluate(parse("e[3] b a^3")) == NatIsometry(2, FiniteIntSet([1, 3]))


def test_eval_powers_match_iterated_composition():
    for text, base in (("a", "a"), ("b", "b"), ("e[4]", "e[4]")):
        for e in range(1, 7):
            iterated = identity()
            for _ in range(e):
                iterated = iterated * evaluate(parse(base))
            assert evaluate(parse(f"{text}^{e}")) == iterated


def test_decompose_examples():
    assert format_word(decompose(NatIsometry(2, FiniteIntSet([1, 3])))) == "e[3] b a^3"
    assert decompose(identity()) == Word()
    assert format_word(decompose(identity())) == "I"
    assert format_word(decompose(NatIsometry(-1, FiniteIntSet([1])))) == "b"


def test_decompose_round_trip_exhaustive():
    for g in UNIVERSE:
        w = decompose(g)
        assert evaluate(w) == g
        assert parse(format_word(w)) == w


def test_decompose_filtered_examples():
    g = NatIsometry(2, FiniteIntSet([1, 3]))
    w = decompose_filtered(g, 2)
    assert evaluate(w) == g
    assert all(t.kind in ("a", "b") or t.index == 2 for t in w.tokens)
    assert decompose_filtered(gen_e(2), 2) == Word([Token("e", 1, 2)])
    with pytest.raises(NotInFiltrationError):
        decompose_filtered(NatIsometry(0, FiniteIntSet([5])), 2)
    with pytest.raises(ValueError):
        decompose_filtered(identity(), 1)


def test_decompose_filtered_round_trip_exhaustive():
    for k in (2, 3, 4):
        for g in UNIVERSE:
            if g.gap() > k:
                continue
            w = decompose_filtered(g, k)
            assert evaluate(w) == g
            assert all(t.kind in ("a", "b") or t.index == k for t in w.tokens)
