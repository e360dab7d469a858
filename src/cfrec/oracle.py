"""Brute-force ground truth by exhaustive leftmost derivation search.

Deliberately independent of the stack and chart engines: the search tables
come from `g.base` and the token names alone, never from the grammar index.
One breadth-first search, `_forms`, expands the leftmost symbol of
sentential forms; each question supplies only its own `normalize`, which
matches leading terminals and prunes dead forms, and reads its answer off
the forms found: membership (`derives`), extendability (`viable_prefix`)
and bounded enumeration (`sentences_up_to`).  Only meant for desk-scale
grammars.

The search runs on integer symbol codes: nonterminals are 0 .. nt-1 and
terminals nt and up, so `s >= nt` tells a terminal.  Forms are
`(matched, tuple of codes)`.  Rules whose right-hand side holds an
unproductive symbol are resolved once per grammar: such a dead rule still
counts as one expansion against the node budget, but it is never
normalized, so no form ever holds an unproductive symbol.
"""

from __future__ import annotations

from collections import deque

from .grammar import AugmentedGrammar, encode_tokens, min_yields

MAX_SENTENCE_TOKENS = 10
NODE_BUDGET = 10_000_000


class LimitExceededError(Exception):
    code = "LIMIT_EXCEEDED"


class _Oracle:
    """Search tables of one grammar, kept on it by `AugmentedGrammar.memo`.

    ``rules[A]`` holds the right-hand sides of A's rules as code tuples in
    rule order, None for a dead rule; ``min_yield[s]`` is the shortest yield
    of code s (None if unproductive); ``names[s]`` is its name.
    """

    def __init__(self, g: AugmentedGrammar):
        base = g.base
        symbols = sorted(base.nonterminals) + sorted(base.terminals)
        code = {s: k for k, s in enumerate(symbols)}
        self.nt = len(base.nonterminals)
        self.names = tuple(s.name for s in symbols)
        self.token_codes = {t.name: code[t] for t in base.terminals}
        yields = min_yields(base)
        self.min_yield = [yields.get(s) for s in symbols]
        self.start = code[base.start]
        rules: list[list] = [[] for _ in range(self.nt)]
        for r in base.rules:
            rhs = tuple(code[s] for s in r.rhs)
            live = all(self.min_yield[s] is not None for s in rhs)
            rules[code[r.lhs]].append(rhs if live else None)
        self.rules = tuple(map(tuple, rules))


def _forms(ob: _Oracle, matched, normalize, node_budget: int, what: str):
    """Each distinct normalized `(matched, rest)` form once, breadth first.

    The search starts from the start symbol, if it is productive, and
    expands the leftmost symbol of `rest`.  `normalize(matched, codes)`
    returns a form, or None for a dead one.  A form is yielded when it is
    first found, so a caller that stops at its answer expands no further.
    """
    if ob.min_yield[ob.start] is None:
        return
    start = normalize(matched, (ob.start,))
    if start is None:
        return
    yield start
    rules = ob.rules
    seen = {start}
    queue = deque([start])
    expansions = 0
    while queue:
        matched, syms = queue.popleft()
        if not syms:
            continue
        tail = syms[1:]
        for rhs in rules[syms[0]]:
            expansions += 1
            if expansions > node_budget:
                raise LimitExceededError(f"{what} exceeded {node_budget} expansions")
            if rhs is None:
                continue
            nxt = normalize(matched, rhs + tail)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                yield nxt


def derives(g: AugmentedGrammar, tokens, node_budget: int = NODE_BUDGET) -> bool:
    """True iff the start symbol derives exactly the given token string."""
    ob = g.memo(_Oracle)
    w = encode_tokens(tokens, ob.token_codes)
    n = len(w)
    nt = ob.nt
    min_yield = ob.min_yield.__getitem__

    def normalize(p: int, syms: tuple):
        # Consume leading terminals against w; None means this form is dead.
        k = 0
        for s in syms:
            if s < nt:
                break
            if p == n or s != w[p]:
                return None
            p += 1
            k += 1
        syms = syms[k:]
        if p + sum(map(min_yield, syms)) > n:
            return None
        return (p, syms)

    return any(p == n and not rest for p, rest in _forms(ob, 0, normalize, node_budget, "derivation search"))


def viable_prefix(g: AugmentedGrammar, tokens, node_budget: int = NODE_BUDGET) -> bool:
    """True iff some continuation extends the tokens to a sentence.

    Detection happens as soon as a sentential form's terminal frontier
    covers the prefix.  Since every productive symbol yields at least one
    token, only the first len(tokens) - matched suffix symbols can still
    influence coverage, so forms are truncated there; that keeps the state
    space finite without a guessed length bound.
    """
    ob = g.memo(_Oracle)
    w = encode_tokens(tokens, ob.token_codes)
    n = len(w)
    nt = ob.nt

    def normalize(p: int, syms: tuple):
        # None when dead; a covering form truncates to (n, ()).
        k = 0
        for s in syms:
            if p == n or s < nt:
                break
            if s != w[p]:
                return None
            p += 1
            k += 1
        if p < n and k == len(syms):
            return None
        return (p, syms[k : k + n - p])

    return any(p == n for p, _ in _forms(ob, 0, normalize, node_budget, "prefix search"))


def sentences_up_to(g: AugmentedGrammar, max_tokens: int, node_budget: int = NODE_BUDGET) -> frozenset[tuple[str, ...]]:
    """The language restricted to sentences of at most max_tokens tokens."""
    if max_tokens > MAX_SENTENCE_TOKENS:
        raise LimitExceededError(f"max_tokens {max_tokens} exceeds the cap of {MAX_SENTENCE_TOKENS}")
    ob = g.memo(_Oracle)
    nt = ob.nt
    min_yield = ob.min_yield.__getitem__

    def normalize(prefix: tuple, syms: tuple):
        k = 0
        for s in syms:
            if s < nt:
                break
            k += 1
        if k:
            prefix, syms = prefix + syms[:k], syms[k:]
        if len(prefix) + sum(map(min_yield, syms)) > max_tokens:
            return None
        return (prefix, syms)

    forms = _forms(ob, (), normalize, node_budget, "sentence enumeration")
    names = ob.names
    return frozenset(tuple(names[s] for s in prefix) for prefix, rest in forms if not rest)
