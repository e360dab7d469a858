"""Cross-checks of the agenda-driven chart builders against slow fixpoints.

The references rescan every clause instance over the whole table until
nothing changes, with conditions answered by scanning the rule list.  Any
missed agenda wakeup or indexing slip in the production builders shows up
as a cell difference here.
"""

import itertools

from cfrec.grammar import augment
from cfrec.random_grammars import random_validated_grammars
from cfrec.tabular import tabular_cp, tabular_elr

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


def _filter_ok(rules, beta, lhs_set, a_lhs):
    """Some rule B -> beta C gamma (B in lhs_set if given) expects a C with
    a_lhs among its left corners."""
    for r in rules:
        if lhs_set is not None and r.lhs not in lhs_set:
            continue
        if _has_prefix(r, beta) and len(r.rhs) > len(beta):
            c = r.rhs[len(beta)]
            if c.is_nonterminal and _corner_star(rules, a_lhs, c):
                return True
    return False


def reference_tabular_cp(g, tokens, td_filter):
    rules = g.rules_dagger
    toks = tokens_to_symbols(g, tokens)
    n = len(toks)
    cells = {(0, 0): {()}}

    def items():
        return [(cell, alpha) for cell, s in cells.items() for alpha in sorted(s)]

    changed = True
    while changed:
        changed = False
        pending = []
        for i in range(1, n + 1):
            a = toks[i - 1]
            if td_filter:
                ok = False
                for (j, k), alphas in cells.items():
                    if k != i - 1:
                        continue
                    for beta in alphas:
                        for r in rules:
                            if r.rhs and r.rhs[0] == a and _filter_ok(rules, beta, None, r.lhs):
                                ok = True
            else:
                ok = any(r.rhs and r.rhs[0] == a for r in rules)
            if ok:
                pending.append(((i - 1, i), (a,)))
        for (j, k), alpha in items():
            if k < n:
                a = toks[k]
                if any(_has_prefix(r, alpha + (a,)) for r in rules):
                    pending.append(((j, k + 1), alpha + (a,)))
        for (j, i), alpha in items():
            for r in rules:
                if r.rhs != alpha:
                    continue
                a_lhs = r.lhs
                if not any(r2.rhs and r2.rhs[0] == a_lhs for r2 in rules):
                    continue
                if td_filter:
                    ok = False
                    for (h, k), betas in cells.items():
                        if k != j:
                            continue
                        for beta in betas:
                            for r2 in rules:
                                if r2.rhs and r2.rhs[0] == a_lhs and _filter_ok(rules, beta, None, r2.lhs):
                                    ok = True
                    if not ok:
                        continue
                pending.append(((j, i), (a_lhs,)))
        for (j, i), alpha in items():
            for r in rules:
                if r.rhs != alpha:
                    continue
                a_lhs = r.lhs
                for (h, k), betas in list(cells.items()):
                    if k != j:
                        continue
                    for beta in list(betas):
                        if any(_has_prefix(r2, beta + (a_lhs,)) for r2 in rules):
                            pending.append(((h, i), beta + (a_lhs,)))
        for cell, alpha in pending:
            if alpha not in cells.setdefault(cell, set()):
                cells[cell].add(alpha)
                changed = True
    return {cell: frozenset(s) for cell, s in cells.items() if s}


def reference_naive_elr(g, tokens):
    rules = g.rules_dagger
    toks = tokens_to_symbols(g, tokens)
    n = len(toks)
    sp = g.start_prime
    cells = {(0, 0): {(frozenset({sp}), ())}}

    def items():
        return [(cell, it) for cell, s in cells.items() for it in list(s)]

    changed = True
    while changed:
        changed = False
        pending = []
        for (j, k), (delta, beta) in items():
            if k < n:
                a = toks[k]
                d1 = frozenset(
                    r.lhs
                    for r in rules
                    if r.rhs and r.rhs[0] == a and _filter_ok(rules, beta, delta, r.lhs)
                )
                if d1:
                    pending.append(((k, k + 1), (d1, (a,))))
                d2 = frozenset(
                    x for x in delta if any(r.lhs == x and _has_prefix(r, beta + (a,)) for r in rules)
                )
                if d2:
                    pending.append(((j, k + 1), (d2, beta + (a,))))
        for (j, i), (dtop, alpha) in items():
            for (h, k), (dmid, beta) in items():
                if k != j:
                    continue
                for r in rules:
                    if r.rhs != alpha or r.lhs not in dtop:
                        continue
                    a_lhs = r.lhs
                    d3 = frozenset(
                        r2.lhs
                        for r2 in rules
                        if r2.rhs and r2.rhs[0] == a_lhs and _filter_ok(rules, beta, dmid, r2.lhs)
                    )
                    if d3:
                        pending.append(((j, i), (d3, (a_lhs,))))
                    d4 = frozenset(
                        x
                        for x in dmid
                        if any(r2.lhs == x and _has_prefix(r2, beta + (a_lhs,)) for r2 in rules)
                    )
                    if d4:
                        pending.append(((h, i), (d4, beta + (a_lhs,))))
        for cell, it in pending:
            if it not in cells.setdefault(cell, set()):
                cells[cell].add(it)
                changed = True
    return {cell: frozenset(s) for cell, s in cells.items() if s}


def _collapse(naive_cells):
    out = {}
    for cell, s in naive_cells.items():
        merged = {}
        for delta, alpha in s:
            merged[alpha] = merged.get(alpha, frozenset()) | delta
        out[cell] = frozenset(merged.items())
    return out


def _corpus():
    yield load_grammar("g1.cfg")
    yield load_grammar("overlap.cfg")
    yield load_grammar("pseudo_trap.cfg")
    for g in random_validated_grammars(1234, 5):
        yield augment(g)


def _short_inputs(g, max_len=3):
    names = sorted(t.name for t in g.terminals)
    for ln in range(max_len + 1):
        yield from itertools.product(names, repeat=ln)


def test_tabular_cp_matches_reference_fixpoint():
    checked = 0
    for g in _corpus():
        for combo in _short_inputs(g):
            for td in (True, False):
                got = tabular_cp(g, combo, td_filter=td)
                got_cells = {cell: {it.alpha for it in s} for cell, s in got.chart.cells.items()}
                want = {cell: set(s) for cell, s in reference_tabular_cp(g, combo, td).items()}
                assert got_cells == want, (g.rules_dagger, combo, td)
                checked += 1
    assert checked > 200


def test_tabular_elr_matches_reference_fixpoint():
    checked = 0
    for g in _corpus():
        for combo in _short_inputs(g):
            want_naive = reference_naive_elr(g, combo)
            naive = tabular_elr(g, combo, variant="naive")
            got_naive = {
                cell: {(it.delta, it.alpha) for it in s} for cell, s in naive.chart.cells.items()
            }
            assert got_naive == {c: set(s) for c, s in want_naive.items()}, (g.rules_dagger, combo)
            merged = tabular_elr(g, combo, variant="merged")
            got_merged = {
                cell: frozenset((it.alpha, it.delta) for it in s)
                for cell, s in merged.chart.cells.items()
            }
            want_merged = {
                cell: frozenset((alpha, delta) for alpha, delta in s)
                for cell, s in _collapse(want_naive).items()
            }
            assert got_merged == want_merged, (g.rules_dagger, combo)
            checked += 1
    assert checked > 200
