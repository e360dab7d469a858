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
    assert not derives(g, ["a"])
    assert sentences_up_to(g, 3) == frozenset()


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


@pytest.mark.parametrize(
    "query, arg, message",
    [
        (derives, ["a", "+", "a", "+", "a"], "derivation search exceeded 2 expansions"),
        (viable_prefix, ["a", "+", "a"], "prefix search exceeded 2 expansions"),
        (sentences_up_to, 3, "sentence enumeration exceeded 2 expansions"),
    ],
    ids=["derives", "viable_prefix", "sentences_up_to"],
)
def test_node_budget_is_an_error_not_an_answer(g1, query, arg, message):
    with pytest.raises(LimitExceededError, match=message):
        query(g1, arg, node_budget=2)


def test_oracle_tables_die_with_their_grammar():
    import gc
    import weakref

    g = augment(parse_grammar("start S\nS -> S 'a' | 'a'"))
    assert derives(g, ["a", "a"])
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


# B is unproductive, so S -> 'a' B is a dead rule: never a form, but still an expansion.
DEAD_RULE_GRAMMAR = "start S\nS -> 'a' B | 'a' 'b' | C\nB -> B 'c'\nC -> 'c' C | 'd'"


@pytest.fixture(scope="module")
def dead_rule():
    return augment(parse_grammar(DEAD_RULE_GRAMMAR))


def test_dead_rules_answers(dead_rule):
    for w, viable in (("a", True), ("a b", True), ("c c", True), ("a c", False), ("b", False)):
        assert viable_prefix(dead_rule, w.split()) is viable, w
    for w, member in (("a b", True), ("c d", True), ("d", True), ("a c", False)):
        assert derives(dead_rule, w.split()) is member, w
    got = sentences_up_to(dead_rule, 4)
    assert got == frozenset(tuple(w.split()) for w in ("a b", "d", "c d", "c c d", "c c c d"))


@pytest.mark.parametrize(
    "grammar, query, arg, least",
    [
        ("g1", derives, "a + a", 30),
        ("g1", derives, "a * a ^ a", 81),
        ("g1", viable_prefix, "a + a", 30),
        ("g1", sentences_up_to, 4, 39),
        ("dead_rule", derives, "c c d", 9),
        ("dead_rule", viable_prefix, "c c d", 9),
        ("dead_rule", sentences_up_to, 4, 11),
    ],
)
def test_node_budget_counts_every_rule_tried(request, grammar, query, arg, least):
    # The least budget that answers.  A dead rule counts as one expansion;
    # skipping it uncounted would answer at 8, 8 and 10 on dead_rule.
    g = request.getfixturevalue(grammar)
    arg = arg.split() if isinstance(arg, str) else arg
    query(g, arg, node_budget=least)
    with pytest.raises(LimitExceededError):
        query(g, arg, node_budget=least - 1)
