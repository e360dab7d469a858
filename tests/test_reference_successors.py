"""Cross-checks of the indexed successor functions against slow transcriptions.

The engine answers clause conditions from precomputed prefix/corner tables;
these references re-derive every condition by scanning the rule list, so a
disagreement pinpoints an indexing bug.  Checked over every configuration
the search visits on short inputs.
"""

import itertools

from cfrec.automata import Configuration, explore, successors_with_clauses
from cfrec.grammar import augment, parse_grammar
from cfrec.items import CPItem, ELRItem
from cfrec.random_grammars import random_validated_grammars

from conftest import load_grammar, tokens_to_symbols


def _corner_star(rules, d, c):
    seen = {c}
    frontier = [c]
    while frontier:
        x = frontier.pop()
        for r in rules:
            if r.lhs == x and r.rhs and r.rhs[0].is_nonterminal and r.rhs[0] not in seen:
                seen.add(r.rhs[0])
                frontier.append(r.rhs[0])
    return d in seen


def _has_prefix(rule, prefix):
    return len(rule.rhs) >= len(prefix) and rule.rhs[: len(prefix)] == prefix


def _expected(rules, beta, delta):
    out = set()
    for r in rules:
        if (delta is None or r.lhs in delta) and _has_prefix(r, beta) and len(r.rhs) > len(beta):
            nxt = r.rhs[len(beta)]
            if nxt.is_nonterminal:
                out.add(nxt)
    return out


def _reference_elr(g, toks, cfg, pseudo):
    rules = g.rules_dagger
    stack, pos = cfg.stack, cfg.pos
    top = stack[-1]
    out = []
    if pos < len(toks):
        a = toks[pos]
        cs = _expected(rules, top.alpha, None if pseudo else top.delta)
        d1 = frozenset(
            r.lhs
            for r in rules
            if r.rhs and r.rhs[0] == a and any(_corner_star(rules, r.lhs, c) for c in cs)
        )
        if d1:
            out.append((1, Configuration(stack + (ELRItem(d1, (a,)),), pos + 1)))
        d2 = frozenset(
            x
            for x in top.delta
            if any(r.lhs == x and _has_prefix(r, top.alpha + (a,)) for r in rules)
        )
        if d2:
            out.append((2, Configuration(stack[:-1] + (ELRItem(d2, top.alpha + (a,)),), pos + 1)))
    if len(stack) >= 2:
        below = stack[-2]
        cs = _expected(rules, below.alpha, None if pseudo else below.delta)
        reducible = []
        for r in rules:
            if r.rhs == top.alpha and r.lhs in top.delta and r.lhs not in reducible:
                reducible.append(r.lhs)
        for a_lhs in reducible:
            d3 = frozenset(
                r.lhs
                for r in rules
                if r.rhs
                and r.rhs[0] == a_lhs
                and any(_corner_star(rules, r.lhs, c) for c in cs)
            )
            if d3:
                out.append((3, Configuration(stack[:-1] + (ELRItem(d3, (a_lhs,)),), pos)))
        for a_lhs in reducible:
            d4 = frozenset(
                x
                for x in below.delta
                if any(r.lhs == x and _has_prefix(r, below.alpha + (a_lhs,)) for r in rules)
            )
            if d4:
                out.append((4, Configuration(stack[:-2] + (ELRItem(d4, below.alpha + (a_lhs,)),), pos)))
    seen = set()
    res = []
    for c, conf in out:
        if conf not in seen:
            seen.add(conf)
            res.append((c, conf))
    return tuple(res)


def _reference_cp(g, toks, cfg):
    rules = g.rules_dagger
    stack, pos = cfg.stack, cfg.pos
    top = stack[-1]
    out = []
    if pos < len(toks):
        a = toks[pos]
        cs = _expected(rules, top.alpha, None)
        if any(
            r.rhs and r.rhs[0] == a and any(_corner_star(rules, r.lhs, c) for c in cs)
            for r in rules
        ):
            out.append((1, Configuration(stack + (CPItem((a,)),), pos + 1)))
        if any(_has_prefix(r, top.alpha + (a,)) for r in rules):
            out.append((2, Configuration(stack[:-1] + (CPItem(top.alpha + (a,)),), pos + 1)))
    if len(stack) >= 2:
        below = stack[-2]
        cs = _expected(rules, below.alpha, None)
        reducible = []
        for r in rules:
            if r.rhs == top.alpha and r.lhs not in reducible:
                reducible.append(r.lhs)
        for a_lhs in reducible:
            if any(
                r.rhs and r.rhs[0] == a_lhs and any(_corner_star(rules, r.lhs, c) for c in cs)
                for r in rules
            ):
                out.append((3, Configuration(stack[:-1] + (CPItem((a_lhs,)),), pos)))
        for a_lhs in reducible:
            if any(_has_prefix(r, below.alpha + (a_lhs,)) for r in rules):
                out.append((4, Configuration(stack[:-2] + (CPItem(below.alpha + (a_lhs,)),), pos)))
    seen = set()
    res = []
    for c, conf in out:
        if conf not in seen:
            seen.add(conf)
            res.append((c, conf))
    return tuple(res)


def _corpus():
    yield load_grammar("g1.cfg")
    yield load_grammar("overlap.cfg")
    yield load_grammar("pseudo_trap.cfg")
    for g in random_validated_grammars(99, 6):
        yield augment(g)


def test_elr_successors_match_reference():
    checked = 0
    for g in _corpus():
        names = sorted(t.name for t in g.terminals)
        toks_by_combo = {}
        for ln in range(4):
            for combo in itertools.product(names, repeat=ln):
                toks_by_combo[combo] = tokens_to_symbols(g, combo)
        for pseudo, algo in ((False, "elr"), (True, "pseudo_elr")):
            for combo, toks in toks_by_combo.items():
                for cfg in explore(algo, g, combo).visited:
                    got = successors_with_clauses(algo, g, combo, cfg)
                    assert got == _reference_elr(g, toks, cfg, pseudo)
                    checked += 1
    assert checked > 1000


def test_cp_successors_match_reference():
    checked = 0
    for g in _corpus():
        names = sorted(t.name for t in g.terminals)
        for ln in range(4):
            for combo in itertools.product(names, repeat=ln):
                toks = tokens_to_symbols(g, combo)
                for cfg in explore("cp", g, combo).visited:
                    got = successors_with_clauses("cp", g, combo, cfg)
                    assert got == _reference_cp(g, toks, cfg)
                    checked += 1
    assert checked > 1000
