import itertools

import pytest

from cfrec.grammar import augment, nonterm, parse_grammar, term
from cfrec.items import (
    CPItem,
    ELRItem,
    LCItem,
    PLRItem,
    cp_items,
    elr_item_is_valid,
    item_kind,
    lc_items,
    plr_items,
    render_item,
)
from cfrec.random_grammars import random_validated_grammars
from cfrec.tabular import tabular_elr

from conftest import load_grammar

E, T, F = nonterm("E"), nonterm("T"), nonterm("F")


def test_lc_items_count_and_members(g1):
    items = lc_items(g1)
    assert len(items) == 17
    start_rule = g1.rules_dagger[-1]
    assert LCItem(start_rule, 0) in items
    assert LCItem(start_rule, 1) in items
    star_rule = g1.base.rules[3]
    assert LCItem(star_rule, 1) in items
    plus_rule = g1.base.rules[0]
    assert LCItem(plus_rule, 0) not in items


def test_lc_items_single_rule_grammar():
    g = augment(parse_grammar("start S\nS -> 'a'"))
    sr = g.rules_dagger[-1]
    base = g.base.rules[0]
    assert lc_items(g) == frozenset({LCItem(sr, 0), LCItem(sr, 1), LCItem(base, 1)})


def test_plr_items_merge_dot_positions(g1):
    items = plr_items(g1)
    assert PLRItem(T, (T,)) in items
    assert PLRItem(E, (T,)) in items
    # one prefix item for both starred rules, rather than two dotted items
    covering = [i for i in items if i.lhs == T and i.alpha == (T,)]
    assert len(covering) == 1


def test_plr_items_single_rule_grammar():
    g = augment(parse_grammar("start S\nS -> 'a'"))
    sp = g.start_prime
    s = nonterm("S")
    assert plr_items(g) == frozenset({PLRItem(sp, ()), PLRItem(sp, (s,)), PLRItem(s, (term("a"),))})


def test_cp_items_include_empty_prefix(g1):
    items = cp_items(g1)
    assert CPItem(()) in items
    assert CPItem((T,)) in items
    assert CPItem((E, term("+"))) in items


def test_cp_items_single_rule_grammar():
    g = augment(parse_grammar("start S\nS -> 'a'"))
    s = nonterm("S")
    assert cp_items(g) == frozenset({CPItem(()), CPItem((s,)), CPItem((term("a"),))})


def test_item_universe_sizes_shrink(g1):
    assert len(cp_items(g1)) <= len(plr_items(g1)) <= len(lc_items(g1))


def test_elr_item_validity(g1):
    assert elr_item_is_valid({T, E}, (T,), g1)
    assert elr_item_is_valid({g1.start_prime}, (), g1)
    assert not elr_item_is_valid(set(), (T,), g1)
    assert not elr_item_is_valid({T}, (), g1)
    assert not elr_item_is_valid({F}, (T,), g1)


def test_item_kind_rejects_an_unknown_algorithm(g1):
    with pytest.raises(ValueError, match="unknown algorithm 'slr'"):
        item_kind("slr", g1)


def test_duplicate_rules_start_once():
    g = augment(parse_grammar("start S\nS -> 'a' | 'a' | S 'b'"))
    a = g.idx.ids[term("a")]
    assert item_kind("lc", g).start(a, g.idx.all_nonterminals) == [(0, 1)]


def test_plr_item_pairs_with_singleton_delta_are_valid_elr_items(g1):
    for item in plr_items(g1):
        assert elr_item_is_valid({item.lhs}, item.alpha, g1)


def test_dropping_delta_yields_a_valid_prefix(g1):
    prefixes = {i.alpha for i in cp_items(g1)}
    assert all(
        ELRItem(frozenset({i.lhs}), i.alpha).alpha in prefixes for i in plr_items(g1)
    )


def test_elr_items_compare_by_set_not_construction_order():
    a = ELRItem(frozenset([T, E]), (T,))
    b = ELRItem(frozenset([E, T]), (T,))
    assert a == b and hash(a) == hash(b)


def test_rendering(g1):
    sr = g1.rules_dagger[-1]
    assert render_item(LCItem(sr, 0)) == "[E' -> . E]"
    assert render_item(LCItem(g1.base.rules[3], 2)) == "[T -> T '*' . F]"
    assert render_item(LCItem(g1.base.rules[6], 1)) == "[F -> 'a' .]"
    assert render_item(PLRItem(g1.start_prime, ())) == "[E' ->]"
    assert render_item(ELRItem(frozenset([T, E]), (T,))) == "[{E,T} -> T]"
    assert render_item(CPItem((T, term("^")))) == "[-> T '^']"
    assert render_item(CPItem(())) == "[->]"


def _round_trip_corpus():
    yield load_grammar("g1.cfg")
    yield load_grammar("overlap.cfg")
    yield load_grammar("pseudo_trap.cfg")
    for g in random_validated_grammars(20260810, 6):
        yield augment(g)


def test_codes_round_trip_every_item():
    for g in _round_trip_corpus():
        for algo, universe in (("lc", lc_items), ("plr", plr_items), ("cp", cp_items)):
            kind = item_kind(algo, g)
            items = universe(g)
            codes = {kind.encode(item) for item in items}
            assert len(codes) == len(items)
            assert all(kind.decode(kind.encode(item)) == item for item in items)
        elr = item_kind("elr", g)
        names = sorted(t.name for t in g.terminals)
        checked = 0
        for n in range(5):
            for tokens in itertools.product(names, repeat=n):
                for variant in ("merged", "naive"):
                    for items in tabular_elr(g, tokens, variant=variant).chart.cells.values():
                        for item in items:
                            assert elr.decode(elr.encode(item)) == item
                            checked += 1
        assert checked > 0
