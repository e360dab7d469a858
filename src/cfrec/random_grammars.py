"""Seeded random grammars for cross-algorithm equivalence sweeps.

Every produced grammar validates cleanly (no epsilon rules, no unit
cycles), has a start symbol that derives some sentence of at most six
tokens, and has no unproductive nonterminal.  Productivity matters for
the correct-prefix checks: the left-corner filter only inspects rule
shapes, so a reachable nonterminal that derives nothing would let a
filtered recognizer predict into a subtree that can never complete and
consume tokens beyond the last viable prefix.  Unreachable nonterminals
are left in (a corner chain from a reachable expectation would make its
target reachable, so they are never predicted and stay harmless).
Terminal alphabets are kept to at most three symbols to hold the size of
an exhaustive length-bounded input enumeration down.
"""

from __future__ import annotations

import random

from .grammar import Grammar, Rule, min_yields, nonterm, term, validate

_NT_NAMES = ("S", "A", "B", "C", "D", "U")
_T_NAMES = ("a", "b", "c")

MAX_NONTERMINALS = 6
MAX_RULES = 10
MAX_RHS_LEN = 3


def _candidate(rng: random.Random) -> Grammar:
    nts = [nonterm(n) for n in _NT_NAMES[: rng.randint(1, MAX_NONTERMINALS)]]
    ts = [term(t) for t in _T_NAMES[: rng.randint(1, len(_T_NAMES))]]
    n_rules = rng.randint(2, MAX_RULES)
    rules: list[Rule] = []
    seen = set()
    for _ in range(n_rules):
        lhs = rng.choice(nts)
        rhs = tuple(
            rng.choice(ts) if rng.random() < 0.55 else rng.choice(nts)
            for _ in range(rng.randint(1, MAX_RHS_LEN))
        )
        if (lhs, rhs) not in seen:
            seen.add((lhs, rhs))
            rules.append(Rule(lhs, rhs))
    used_terminals = frozenset(s for r in rules for s in r.rhs if s.is_terminal)
    used_nonterminals = frozenset(
        {r.lhs for r in rules} | {s for r in rules for s in r.rhs if s.is_nonterminal} | {nts[0]}
    )
    return Grammar(
        terminals=used_terminals,
        nonterminals=used_nonterminals,
        rules=tuple(rules),
        start=nts[0],
    )


def random_validated_grammars(seed: int, count: int, max_start_yield: int = 6) -> list[Grammar]:
    """Deterministic list of validated, productive random grammars."""
    rng = random.Random(seed)
    out: list[Grammar] = []
    while len(out) < count:
        g = _candidate(rng)
        if not g.terminals:
            continue
        report = validate(g)
        if not report.ok:
            continue
        if any(d.code == "UNPRODUCTIVE_NONTERMINAL" for d in report.warnings()):
            continue
        y = min_yields(g).get(g.start)
        if y is None or y > max_start_yield:
            continue
        out.append(g)
    return out
