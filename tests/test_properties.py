import itertools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfrec.automata import recognize
from cfrec.grammar import (
    Grammar,
    Rule,
    augment,
    left_corner,
    left_corner_star,
    nonterm,
    parse_grammar,
    term,
    validate,
)
from cfrec.items import cp_items, elr_item_is_valid, lc_items, plr_items
from cfrec.oracle import derives, sentences_up_to, viable_prefix
from cfrec.random_grammars import _candidate
from cfrec.tabular import tabular_cp, tabular_elr

_NTS = tuple(nonterm(x) for x in "SABC")
_TS = tuple(term(x) for x in "ab")


@st.composite
def small_grammars(draw):
    nts = list(_NTS[: draw(st.integers(1, 4))])
    ts = list(_TS[: draw(st.integers(1, 2))])
    n_rules = draw(st.integers(1, 6))
    rules = []
    seen = set()
    for _ in range(n_rules):
        lhs = draw(st.sampled_from(nts))
        rhs = tuple(draw(st.lists(st.sampled_from(ts + nts), min_size=1, max_size=3)))
        if (lhs, rhs) not in seen:
            seen.add((lhs, rhs))
            rules.append(Rule(lhs, rhs))
    g = Grammar(
        terminals=frozenset(ts),
        nonterminals=frozenset(nts),
        rules=tuple(rules),
        start=nts[0],
    )
    assume(validate(g).ok)
    return augment(g)


@given(small_grammars())
def test_item_universes_are_successive_quotients(g):
    assert len(cp_items(g)) <= len(plr_items(g)) <= len(lc_items(g))


@given(small_grammars())
def test_closure_is_reflexive_transitive_and_idempotent(g):
    rel = left_corner(g)
    star = left_corner_star(rel, g)
    assert rel.pairs <= star.pairs
    for n in g.nonterminals:
        assert (n, n) in star
    assert left_corner_star(star, g).pairs == star.pairs


def _corner_reachable(g, target, root, depth):
    # leftmost-corner chains: root -> first symbol of a root rule -> ...
    frontier = {root}
    seen = {root}
    for _ in range(depth):
        new = set()
        for a in frontier:
            for r in g.rules_dagger:
                if r.lhs == a and r.rhs and r.rhs[0].is_nonterminal and r.rhs[0] not in seen:
                    new.add(r.rhs[0])
        seen |= new
        frontier = new
        if target in seen:
            return True
    return target in seen


@given(small_grammars())
def test_closure_pairs_are_witnessed_by_leftmost_derivations(g):
    star = left_corner_star(left_corner(g), g)
    for b, a in star.pairs:
        assert b == a or _corner_reachable(g, b, a, depth=8)


def _unit_steps(g, root):
    # nonterminals one to len(nonterminals) unit rules below root, layer by layer
    found = set()
    layer = {root}
    for _ in range(len(g.nonterminals)):
        layer = {
            r.rhs[0]
            for r in g.rules
            if r.lhs in layer and len(r.rhs) == 1 and r.rhs[0].is_nonterminal and r.rhs[0] in g.nonterminals
        }
        found |= layer
    return found


def test_unit_cycle_subjects_are_the_mutual_unit_reachability_classes():
    rng = random.Random(20261019)
    with_two = 0
    for _ in range(3000):
        g = _candidate(rng)
        below = {a: _unit_steps(g, a) for a in g.nonterminals}
        want = []
        for a in sorted(g.nonterminals):
            cls = sorted(b for b in below[a] if a in below[b])
            if cls and cls[0] == a:
                want.append(", ".join(b.name for b in cls))
        got = [d.subject for d in validate(g).diagnostics if d.code == "UNIT_CYCLE"]
        assert got == want
        with_two += len(want) >= 2
    assert with_two >= 10


@given(small_grammars())
def test_augment_round_trip(g):
    assert g.rules_dagger[:-1] == g.base.rules
    assert g.start_prime not in g.base.nonterminals


@given(small_grammars())
def test_prefix_items_lift_to_valid_set_items(g):
    cp_prefixes = {i.alpha for i in cp_items(g)}
    for item in plr_items(g):
        assert elr_item_is_valid({item.lhs}, item.alpha, g)
        assert item.alpha in cp_prefixes


@given(small_grammars())
@settings(max_examples=30, deadline=None)
def test_oracle_consistency(g):
    sentences = sentences_up_to(g, 4)
    for s in sentences:
        assert derives(g, s)
        for k in range(len(s) + 1):
            assert viable_prefix(g, s[:k])
    # derives agrees with enumeration on every short input
    names = sorted(t.name for t in g.terminals)
    for ln in range(4):
        for combo in itertools.product(names, repeat=ln):
            assert derives(g, combo) == (combo in sentences)


@given(small_grammars())
@settings(max_examples=25, deadline=None)
def test_all_engines_agree_with_the_oracle_on_short_inputs(g):
    names = sorted(t.name for t in g.terminals)
    sentences = sentences_up_to(g, 3)
    for ln in range(4):
        for combo in itertools.product(names, repeat=ln):
            want = combo in sentences
            for algo in ("lc", "plr", "elr", "pseudo_elr", "cp"):
                assert recognize(algo, g, combo).accepted == want
            assert tabular_cp(g, combo).accepted == want
            assert tabular_cp(g, combo, td_filter=False).accepted == want
            for variant in ("merged", "predict_sets", "naive"):
                assert tabular_elr(g, combo, variant=variant).accepted == want


def test_unfiltered_and_naive_agree_on_the_expression_grammar(g1):
    names = sorted(t.name for t in g1.terminals)
    sentences = sentences_up_to(g1, 3)
    for ln in range(4):
        for combo in itertools.product(names, repeat=ln):
            want = combo in sentences
            assert tabular_cp(g1, combo, td_filter=False).accepted == want
            assert tabular_elr(g1, combo, variant="naive").accepted == want


def test_viable_prefix_monotone_on_random_corpus():
    from cfrec.random_grammars import random_validated_grammars

    for g in (augment(x) for x in random_validated_grammars(7, 5)):
        names = sorted(t.name for t in g.terminals)
        for ln in range(4):
            for combo in itertools.product(names, repeat=ln):
                if viable_prefix(g, combo):
                    for k in range(len(combo) + 1):
                        assert viable_prefix(g, combo[:k])


def test_derivation_termination_on_left_recursion():
    g = augment(parse_grammar("start S\nS -> S 'a' | 'a'"))
    assert derives(g, ["a", "a", "a"])
    assert not derives(g, [])
    assert recognize("lc", g, ["a"] * 5).accepted
    assert recognize("cp", g, ["a"] * 5).accepted


def test_sweep_side_invariants(sweep):
    # stack-level correct-prefix for the fully filtered machines,
    # chart-level correct-prefix for the merged set-item chart, and the
    # simplified filter covering every full-filter configuration shape
    assert sweep.correct_prefix_violations == []
    assert sweep.chart_prefix_violations == []
    assert sweep.pseudo_coverage_violations == []


def test_merged_chart_is_the_collapsed_per_antecedent_chart(sweep):
    # per cell and prefix, merging equals unioning the naive items' sets
    assert sweep.merge_projection_mismatches == []
    assert sweep.unfiltered_mismatches == []
