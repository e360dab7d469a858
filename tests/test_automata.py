from dataclasses import FrozenInstanceError

import pytest

from cfrec.automata import (
    BudgetExhaustedError,
    Configuration,
    KindMismatchError,
    accepting_trace,
    explore,
    final_item,
    initial_configuration,
    recognize,
    successors,
    successors_with_clauses,
)
from cfrec.grammar import UnknownTokenError, nonterm, term
from cfrec.items import CPItem, ELRItem, LCItem, PLRItem, elr_item_is_valid

E, T, F = nonterm("E"), nonterm("T"), nonterm("F")
A_TOK = term("a")


def _g1_rule(g1, i):
    return g1.base.rules[i]


def test_lc_successors_from_init(g1):
    init = initial_configuration("lc", g1)
    succ = successors("lc", g1, ["a", "*", "a"], init)
    assert succ == (Configuration(init.stack + (LCItem(_g1_rule(g1, 6), 1),), 1),)


def test_lc_successors_four_way_choice_after_t_reduce(g1):
    start_rule = g1.rules_dagger[-1]
    # top is the completed [T -> F .], which reduces to T under the E context
    cfg = Configuration((LCItem(start_rule, 0), LCItem(_g1_rule(g1, 5), 1)), 1)
    got = successors_with_clauses("lc", g1, ["a", "*", "a"], cfg)
    stacks = [c.stack[-1] for _, c in got]
    assert [(_cl, c.pos) for _cl, c in got] == [(3, 1)] * 4
    # all four continuations whose rhs starts with T, in grammar rule order
    assert stacks == [
        LCItem(_g1_rule(g1, 1), 1),
        LCItem(_g1_rule(g1, 2), 1),
        LCItem(_g1_rule(g1, 3), 1),
        LCItem(_g1_rule(g1, 4), 1),
    ]


def test_elr_successors_single_merged_reduce(g1):
    sp = g1.start_prime
    cfg = Configuration(
        (ELRItem(frozenset({sp}), ()), ELRItem(frozenset({T}), (F,))), 1
    )
    succ = successors("elr", g1, ["a", "*", "a"], cfg)
    assert succ == (
        Configuration((ELRItem(frozenset({sp}), ()), ELRItem(frozenset({T, E}), (T,))), 1),
    )


def test_successors_kind_mismatch(g1):
    cfg = initial_configuration("cp", g1)
    with pytest.raises(KindMismatchError):
        successors("lc", g1, ["a"], cfg)


def test_successors_reject_items_of_another_grammar(g1, overlap):
    m_tok = term("m")
    foreign = {
        "lc": LCItem(overlap.base.rules[2], 1),
        "plr": PLRItem(nonterm("M"), (m_tok,)),
        "elr": ELRItem(frozenset({nonterm("M")}), (m_tok,)),
        "pseudo_elr": ELRItem(frozenset({T}), (m_tok,)),
        "cp": CPItem((m_tok,)),
    }
    for algo, item in foreign.items():
        cfg = Configuration(initial_configuration(algo, g1).stack + (item,), 1)
        with pytest.raises(KindMismatchError):
            successors_with_clauses(algo, g1, ["a", "*"], cfg)
        with pytest.raises(KindMismatchError):
            successors(algo, g1, ["a", "*"], cfg)


def test_successors_reject_an_empty_stack(g1):
    with pytest.raises(KindMismatchError):
        successors_with_clauses("lc", g1, ["a"], Configuration((), 0))


@pytest.mark.parametrize("algo", ["lc", "plr", "elr", "pseudo_elr", "cp"])
def test_successors_reject_a_position_outside_the_input(g1, algo):
    # Python would read -1 as the last token; past the input nothing is scanned.
    tokens = ["a", "*", "a"]
    init = initial_configuration(algo, g1)
    for pos in (-1, len(tokens) + 1):
        with pytest.raises(ValueError, match=f"position {pos} is outside 0..3"):
            successors_with_clauses(algo, g1, tokens, Configuration(init.stack, pos))
        with pytest.raises(ValueError):
            successors(algo, g1, tokens, Configuration(init.stack, pos))
    assert successors_with_clauses(algo, g1, tokens, Configuration(init.stack, len(tokens))) == ()


@pytest.mark.parametrize("algo", ["elr", "pseudo_elr"])
def test_successors_reject_set_items_no_rule_allows(g1, algo):
    # T has no rule through 'a', E is not the start rule's lhs, and a set
    # item's set is never empty.
    for item in (ELRItem(frozenset({T}), (A_TOK,)), ELRItem(frozenset({E}), ()), ELRItem(frozenset(), (T,))):
        assert not elr_item_is_valid(item.delta, item.alpha, g1)
        with pytest.raises(KindMismatchError):
            successors_with_clauses(algo, g1, ["a", "*", "a"], Configuration((item,), 0))


def test_recognize_examples(g1):
    assert recognize("lc", g1, ["a", "*", "a"]).accepted
    assert not recognize("cp", g1, ["a", "+", "a", "^", "a"]).accepted
    assert not recognize("elr", g1, []).accepted


def test_recognize_agrees_across_algorithms(g1):
    for tokens in (["a"], ["a", "^", "a"], ["a", "+", "a", "*", "a"], ["a", "*"], []):
        verdicts = {algo: recognize(algo, g1, tokens).accepted for algo in ("lc", "plr", "elr", "pseudo_elr", "cp")}
        assert len(set(verdicts.values())) == 1, verdicts


def test_unknown_token(g1):
    with pytest.raises(UnknownTokenError):
        recognize("lc", g1, ["a", "q"])


def test_budget_exhaustion_flag(g1):
    res = recognize("cp", g1, ["a", "+", "a", "+", "a"], budget=3)
    assert res.budget_exhausted and not res.accepted
    full = recognize("cp", g1, ["a", "+", "a", "+", "a"])
    assert full.accepted and not full.budget_exhausted


def test_accepting_trace_budget_error(g1):
    with pytest.raises(BudgetExhaustedError):
        accepting_trace("cp", g1, ["a", "+", "a", "+", "a"], budget=3)


def _lc_trace_stacks(g1):
    start_rule = g1.rules_dagger[-1]
    r = lambda i: _g1_rule(g1, i)
    bottom = LCItem(start_rule, 0)
    return [
        ((bottom,), 0),
        ((bottom, LCItem(r(6), 1)), 1),
        ((bottom, LCItem(r(5), 1)), 1),
        ((bottom, LCItem(r(3), 1)), 1),
        ((bottom, LCItem(r(3), 2)), 2),
        ((bottom, LCItem(r(3), 2), LCItem(r(6), 1)), 3),
        ((bottom, LCItem(r(3), 3)), 3),
        ((bottom, LCItem(r(2), 1)), 3),
        ((LCItem(start_rule, 1),), 3),
    ]


def test_lc_accepting_trace_is_the_eight_step_run(g1):
    trace = accepting_trace("lc", g1, ["a", "*", "a"])
    assert trace is not None
    expected = _lc_trace_stacks(g1)
    got = [(trace.initial.stack, trace.initial.pos)] + [
        (cfg.stack, cfg.pos) for _, cfg in trace.steps
    ]
    assert got == [
        (stack, pos) for stack, pos in expected
    ]
    assert [clause for clause, _ in trace.steps] == [1, 3, 3, 2, 1, 4, 3, 4]


def test_plr_accepting_trace_rows(g1):
    sp = g1.start_prime
    trace = accepting_trace("plr", g1, ["a", "*", "a"])
    assert trace is not None and len(trace.steps) == 8
    stacks = [cfg.stack for _, cfg in trace.steps]
    bottom = PLRItem(sp, ())
    assert stacks[0] == (bottom, PLRItem(F, (A_TOK,)))
    assert stacks[1] == (bottom, PLRItem(T, (F,)))
    assert stacks[2] == (bottom, PLRItem(T, (T,)))
    assert stacks[3] == (bottom, PLRItem(T, (T, term("*"))))
    assert stacks[7] == (PLRItem(sp, (E,)),)


def test_elr_accepting_trace_rows(g1):
    sp = g1.start_prime
    trace = accepting_trace("elr", g1, ["a", "*", "a"])
    assert trace is not None and len(trace.steps) == 8
    stacks = [cfg.stack for _, cfg in trace.steps]
    bottom = ELRItem(frozenset({sp}), ())
    assert stacks[0] == (bottom, ELRItem(frozenset({F}), (A_TOK,)))
    assert stacks[1] == (bottom, ELRItem(frozenset({T}), (F,)))
    assert stacks[2] == (bottom, ELRItem(frozenset({T, E}), (T,)))
    assert stacks[3] == (bottom, ELRItem(frozenset({T}), (T, term("*"))))
    assert stacks[7] == (ELRItem(frozenset({sp}), (E,)),)


def test_cp_rejection_visits_overshooting_configuration(g1):
    tokens = ["a", "+", "a", "^", "a"]
    assert accepting_trace("cp", g1, tokens) is None
    ex = explore("cp", g1, tokens)
    witness = Configuration(
        (CPItem(()), CPItem((E, term("+"))), CPItem((T, term("^")))), 4
    )
    assert witness in ex.visited


def test_filtered_algorithms_stop_at_the_bad_token(g1):
    tokens = ["a", "+", "a", "^", "a"]
    for algo in ("lc", "plr", "elr"):
        ex = explore(algo, g1, tokens)
        assert max(c.pos for c in ex.visited) < 4


def test_pseudo_filter_reads_past_the_bad_token(pseudo_trap):
    tokens = ["a", "y"]
    full = explore("elr", pseudo_trap, tokens)
    loose = explore("pseudo_elr", pseudo_trap, tokens)
    assert not full.accepted and not loose.accepted
    assert max(c.pos for c in full.visited) == 1
    assert max(c.pos for c in loose.visited) == 2


def test_pseudo_visits_superset_of_elr_shapes(g1):
    for tokens in (["a", "*", "a"], ["a", "+", "a", "^", "a"], ["a", "**", "a"]):
        full = explore("elr", g1, tokens)
        loose = explore("pseudo_elr", g1, tokens)
        shadow = {(c.pos, tuple(i.alpha for i in c.stack)) for c in loose.visited}
        for c in full.visited:
            assert (c.pos, tuple(i.alpha for i in c.stack)) in shadow


def test_exploration_is_frozen(g1):
    ex = explore("lc", g1, ["a"])
    with pytest.raises(FrozenInstanceError):
        ex.visited = set()
    with pytest.raises(FrozenInstanceError):
        ex.accepted = False
    with pytest.raises(AttributeError):
        ex.visited.add(initial_configuration("lc", g1))
    assert ex.accepted and initial_configuration("lc", g1) in ex.visited


def test_final_items(g1):
    sp = g1.start_prime
    assert final_item("lc", g1) == LCItem(g1.rules_dagger[-1], 1)
    assert final_item("plr", g1) == PLRItem(sp, (E,))
    assert final_item("elr", g1) == ELRItem(frozenset({sp}), (E,))
    assert final_item("cp", g1) == CPItem((E,))


def test_metrics_shape(g1):
    res = recognize("lc", g1, ["a", "*", "a"])
    assert res.configurations_explored > 0
    assert res.max_frontier >= 1
    assert res.choice_points >= 1
    assert not res.budget_exhausted


def test_unproductive_symbols_defeat_the_corner_filter():
    # The top-down filter only inspects rule shapes, so a reachable
    # nonterminal that derives nothing (B below) still licenses
    # predictions; the automaton then consumes tokens beyond the last
    # viable prefix.  Keeping grammars productive restores the guarantee,
    # which is why the random sweep corpus filters for productivity.
    from cfrec.grammar import augment, parse_grammar
    from cfrec.oracle import sentences_up_to, viable_prefix

    g = augment(parse_grammar("start S\nS -> 'a' | 'a' 'a' | C B\nC -> 'a' S\nB -> B 'b'"))
    assert sorted(sentences_up_to(g, 6)) == [("a",), ("a", "a")]
    assert not viable_prefix(g, ["a", "a", "a"])
    for algo in ("lc", "plr", "elr"):
        ex = explore(algo, g, ["a", "a", "a"])
        assert not ex.accepted
        assert max(c.pos for c in ex.visited) == 3
