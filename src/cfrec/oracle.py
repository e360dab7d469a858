"""Brute-force ground truth by exhaustive leftmost derivation search.

Deliberately independent of the stack and chart engines: membership and
viable-prefix questions are answered by expanding sentential forms with
aggressive pruning.  Only meant for desk-scale grammars.
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

    start = normalize(0, (g.base.start,))
    if start is None:
        return False
    seen = {start}
    queue = deque([start])
    expansions = 0
    while queue:
        p, syms = queue.popleft()
        if not syms:
            if p == n:
                return True
            continue
        head = syms[0]
        for r in ob.by_lhs.get(head, ()):
            expansions += 1
            if expansions > node_budget:
                raise LimitExceededError(f"derivation search exceeded {node_budget} expansions")
            nxt = normalize(p, r.rhs + syms[1:])
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


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
        # Returns True on detection, None when dead, else a truncated state.
        if any(s not in ob.min_yield for s in syms):
            return None
        while p < n and syms and syms[0].is_terminal:
            if syms[0] != w[p]:
                return None
            p += 1
            syms = syms[1:]
        if p == n:
            return True
        if not syms:
            return None
        return (p, syms[: n - p])

    if g.base.start not in ob.min_yield:
        return False
    start = normalize(0, (g.base.start,))
    if start is True:
        return True
    if start is None:
        return False
    seen = {start}
    queue = deque([start])
    expansions = 0
    while queue:
        p, syms = queue.popleft()
        head = syms[0]
        for r in ob.by_lhs.get(head, ()):
            expansions += 1
            if expansions > node_budget:
                raise LimitExceededError(f"prefix search exceeded {node_budget} expansions")
            nxt = normalize(p, r.rhs + syms[1:])
            if nxt is True:
                return True
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


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

    sentences: set[tuple[str, ...]] = set()
    start = normalize((), (g.base.start,))
    if start is None:
        return frozenset()
    seen = {start}
    queue = deque([start])
    expansions = 0
    while queue:
        prefix, syms = queue.popleft()
        if not syms:
            sentences.add(tuple(s.name for s in prefix))
            continue
        head = syms[0]
        for r in ob.by_lhs.get(head, ()):
            expansions += 1
            if expansions > node_budget:
                raise LimitExceededError(f"sentence enumeration exceeded {node_budget} expansions")
            nxt = normalize(prefix, r.rhs + syms[1:])
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(sentences)
