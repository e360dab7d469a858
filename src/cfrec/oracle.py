"""Brute-force ground truth by exhaustive leftmost derivation search.

Deliberately independent of the stack and chart engines.  One breadth-first
search, `_forms`, expands the leftmost symbol of sentential forms; each
question supplies only its own `normalize`, which matches leading terminals
and prunes dead forms, and reads its answer off the forms found: membership
(`derives`), extendability (`viable_prefix`) and bounded enumeration
(`sentences_up_to`).  Only meant for desk-scale grammars.
"""

from __future__ import annotations

from collections import deque

from .grammar import AugmentedGrammar, Rule, Symbol, min_yields

MAX_SENTENCE_TOKENS = 10
NODE_BUDGET = 10_000_000


class LimitExceededError(Exception):
    code = "LIMIT_EXCEEDED"


def _rules_by_lhs(g: AugmentedGrammar) -> dict[Symbol, tuple[Rule, ...]]:
    out: dict[Symbol, list[Rule]] = {}
    for r in g.base.rules:
        out.setdefault(r.lhs, []).append(r)
    return {k: tuple(v) for k, v in out.items()}


class _Oracle:
    """Search tables of one grammar, kept on it by `AugmentedGrammar.memo`."""

    def __init__(self, g: AugmentedGrammar):
        self.by_lhs = _rules_by_lhs(g)
        self.min_yield = min_yields(g.base)

    def min_total(self, syms) -> int | None:
        total = 0
        for s in syms:
            y = self.min_yield.get(s)
            if y is None:
                return None
            total += y
        return total


def _forms(g: AugmentedGrammar, matched, normalize, node_budget: int, what: str):
    """Each distinct normalized `(matched, rest)` form once, breadth first.

    The search starts from the start symbol and expands the leftmost symbol
    of `rest`.  `normalize(matched, syms)` returns a form, or None for a dead
    one.  A form is yielded when it is first found, so a caller that stops
    at its answer expands no further.
    """
    by_lhs = g.memo(_Oracle).by_lhs
    start = normalize(matched, (g.base.start,))
    if start is None:
        return
    yield start
    seen = {start}
    queue = deque([start])
    expansions = 0
    while queue:
        matched, syms = queue.popleft()
        if not syms:
            continue
        tail = syms[1:]
        for r in by_lhs.get(syms[0], ()):
            expansions += 1
            if expansions > node_budget:
                raise LimitExceededError(f"{what} exceeded {node_budget} expansions")
            nxt = normalize(matched, r.rhs + tail)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                yield nxt


def derives(g: AugmentedGrammar, tokens, node_budget: int = NODE_BUDGET) -> bool:
    """True iff the start symbol derives exactly the given token string."""
    w = g.tokens_to_symbols(tokens)
    ob = g.memo(_Oracle)
    n = len(w)

    def normalize(p: int, syms: tuple):
        # Consume leading terminals against w; None means this form is dead.
        while syms and syms[0].is_terminal:
            if p < n and syms[0] == w[p]:
                p += 1
                syms = syms[1:]
            else:
                return None
        rest = ob.min_total(syms)
        if rest is None or p + rest > n:
            return None
        return (p, syms)

    return any(p == n and not rest for p, rest in _forms(g, 0, normalize, node_budget, "derivation search"))


def viable_prefix(g: AugmentedGrammar, tokens, node_budget: int = NODE_BUDGET) -> bool:
    """True iff some continuation extends the tokens to a sentence.

    Detection happens as soon as a sentential form's terminal frontier
    covers the prefix.  Since every productive symbol yields at least one
    token, only the first len(tokens) - matched suffix symbols can still
    influence coverage, so forms are truncated there; that keeps the state
    space finite without a guessed length bound.
    """
    w = g.tokens_to_symbols(tokens)
    ob = g.memo(_Oracle)
    n = len(w)

    def normalize(p: int, syms: tuple):
        # None when dead; a covering form truncates to (n, ()).
        if any(s not in ob.min_yield for s in syms):
            return None
        while p < n and syms and syms[0].is_terminal:
            if syms[0] != w[p]:
                return None
            p += 1
            syms = syms[1:]
        if p < n and not syms:
            return None
        return (p, syms[: n - p])

    return any(p == n for p, _ in _forms(g, 0, normalize, node_budget, "prefix search"))


def sentences_up_to(g: AugmentedGrammar, max_tokens: int, node_budget: int = NODE_BUDGET) -> frozenset[tuple[str, ...]]:
    """The language restricted to sentences of at most max_tokens tokens."""
    if max_tokens > MAX_SENTENCE_TOKENS:
        raise LimitExceededError(f"max_tokens {max_tokens} exceeds the cap of {MAX_SENTENCE_TOKENS}")
    ob = g.memo(_Oracle)

    def normalize(prefix: tuple, syms: tuple):
        while syms and syms[0].is_terminal:
            prefix = prefix + (syms[0],)
            syms = syms[1:]
        rest = ob.min_total(syms)
        if rest is None or len(prefix) + rest > max_tokens:
            return None
        return (prefix, syms)

    forms = _forms(g, (), normalize, node_budget, "sentence enumeration")
    return frozenset(tuple(s.name for s in prefix) for prefix, rest in forms if not rest)
