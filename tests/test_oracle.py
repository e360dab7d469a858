import pytest

from cfrec.grammar import UnknownTokenError, augment, parse_grammar
from cfrec.oracle import LimitExceededError, derives, sentences_up_to, viable_prefix


def test_derives_basics(g1):
    assert derives(g1, ["a"])
    assert derives(g1, ["a", "*", "a"])
    assert derives(g1, ["a", "**", "a"])
    assert not derives(g1, ["a", "+", "a", "^", "a"])
    assert not derives(g1, [])
    assert not derives(g1, ["a", "a"])


def test_derives_right_nested_arrow(g1):
    # '^' nests to the right: a ^ a ^ a parses as a ^ (a ^ a).
    assert derives(g1, ["a", "^", "a", "^", "a"])
    assert derives(g1, ["a", "+", "a", "*", "a"])


def test_derives_unknown_token(g1):
    with pytest.raises(UnknownTokenError):
        derives(g1, ["a", "q"])


def test_viable_prefix_examples(g1):
    assert viable_prefix(g1, ["a", "+"])
    assert not viable_prefix(g1, ["a", "+", "a", "^"])
    assert viable_prefix(g1, [])
    assert viable_prefix(g1, ["a", "+", "a"])
    assert not viable_prefix(g1, ["+"])


def test_viable_prefix_empty_on_empty_language():
    g = augment(parse_grammar("start S\nS -> S 'a'"), )
    # start is unproductive (warning only), so nothing extends the empty prefix
    assert not viable_prefix(g, [])


def test_viable_prefix_detects_long_continuations():
    # completing the prefix requires more tokens than the prefix itself
    g = augment(parse_grammar("start S\nS -> 'a' B\nB -> 'b' 'b' 'b' 'b'"))
    assert viable_prefix(g, ["a"])
    assert viable_prefix(g, ["a", "b", "b"])
    assert not viable_prefix(g, ["a", "a"])


def test_viable_prefix_monotone(g1):
    w = ["a", "+", "a", "^", "a"]
    flags = [viable_prefix(g1, w[:k]) for k in range(len(w) + 1)]
    # once False, stays False on extensions
    assert flags == sorted(flags, reverse=True)


def test_derives_implies_viable(g1):
    for w in (["a"], ["a", "*", "a"], ["a", "+", "a"]):
        assert derives(g1, w) and viable_prefix(g1, w)


def test_sentences_up_to_g1(g1):
    got = sentences_up_to(g1, 3)
    assert got == frozenset(
        {("a",), ("a", "*", "a"), ("a", "**", "a"), ("a", "+", "a"), ("a", "^", "a")}
    )
    assert sentences_up_to(g1, 0) == frozenset()


def test_sentences_match_derives(g1):
    for s in sentences_up_to(g1, 5):
        assert derives(g1, s)


def test_sentences_single_rule():
    g = augment(parse_grammar("start S\nS -> 'a'"))
    assert sentences_up_to(g, 2) == frozenset({("a",)})


def test_sentences_cap():
    g = augment(parse_grammar("start S\nS -> 'a'"))
    with pytest.raises(LimitExceededError):
        sentences_up_to(g, 11)


def test_node_budget_is_an_error_not_an_answer(g1):
    with pytest.raises(LimitExceededError):
        derives(g1, ["a", "+", "a", "+", "a"], node_budget=2)


def test_oracle_tables_die_with_their_grammar():
    import gc
    import weakref

    g = augment(parse_grammar("start S\nS -> S 'a' | 'a'"))
    assert derives(g, ["a", "a"])
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
