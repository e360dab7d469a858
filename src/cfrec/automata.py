"""Nondeterministic push-down recognizers run by exhaustive breadth-first search.

The five algorithms differ only in their item kind (see `items`): dotted
items (lc), prefix items (plr), set items with full or simplified top-down
filtering (elr, pseudo_elr), and bare prefixes (cp).  One successor
function applies the four clauses through the kind's primitives.  A
configuration is an item stack plus the count of consumed tokens; search
explores all distinct configurations breadth-first, so accepting traces
come out step-minimal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .grammar import AugmentedGrammar
from .items import item_kind

ALGORITHMS = ("lc", "plr", "elr", "pseudo_elr", "cp")

DEFAULT_BUDGET = 1_000_000


class KindMismatchError(Exception):
    code = "KIND_MISMATCH"


class BudgetExhaustedError(Exception):
    code = "BUDGET_EXHAUSTED"


@dataclass(frozen=True)
class Configuration:
    stack: tuple
    pos: int

    def __repr__(self):
        body = " ".join(repr(i) for i in self.stack)
        return f"({body}, pos={self.pos})"


@dataclass(frozen=True)
class RecognitionResult:
    accepted: bool
    configurations_explored: int
    max_frontier: int
    choice_points: int
    budget_exhausted: bool


@dataclass(frozen=True)
class Trace:
    initial: Configuration
    steps: tuple[tuple[int, Configuration], ...]

    @property
    def final(self) -> Configuration:
        return self.steps[-1][1] if self.steps else self.initial


def initial_configuration(algo: str, g: AugmentedGrammar) -> Configuration:
    return Configuration((item_kind(algo, g).init,), 0)


def final_item(algo: str, g: AugmentedGrammar):
    return item_kind(algo, g).final


def _successors(kind, toks, cfg):
    """The four clauses on one configuration, in clause then rule order."""
    stack, pos = cfg.stack, cfg.pos
    top = stack[-1]
    out = []
    if pos < len(toks):
        a = toks[pos]
        allowed = kind.allowed(top)
        if allowed:
            for item in kind.start(a, allowed):
                out.append((1, Configuration(stack + (item,), pos + 1)))
        item = kind.advance(top, a)
        if item is not None:
            out.append((2, Configuration(stack[:-1] + (item,), pos + 1)))
    if len(stack) >= 2:
        reducible = kind.reducible(top)
        if reducible:
            below = stack[-2]
            allowed = kind.allowed(below)
            for a_lhs in reducible if allowed else ():
                for item in kind.start(a_lhs, allowed):
                    out.append((3, Configuration(stack[:-1] + (item,), pos)))
            for a_lhs in reducible:
                item = kind.advance(below, a_lhs)
                if item is not None:
                    out.append((4, Configuration(stack[:-2] + (item,), pos)))
    return out


def successors_with_clauses(algo, g, tokens, cfg) -> tuple[tuple[int, Configuration], ...]:
    """One-step successors with the clause that produced each, deduplicated
    in clause order then grammar rule order."""
    kind = item_kind(algo, g)
    if not cfg.stack or not all(isinstance(i, kind.item_type) for i in cfg.stack):
        raise KindMismatchError(f"configuration items are not {kind.item_type.__name__} (algo {algo!r})")
    toks = g.tokens_to_symbols(tokens)
    raw = _successors(kind, toks, cfg)
    seen = set()
    out = []
    for clause, conf in raw:
        if conf not in seen:
            seen.add(conf)
            out.append((clause, conf))
    return tuple(out)


def successors(algo, g, tokens, cfg) -> tuple[Configuration, ...]:
    return tuple(conf for _, conf in successors_with_clauses(algo, g, tokens, cfg))


@dataclass
class Exploration:
    accepted: bool
    visited: set
    configurations_explored: int
    max_frontier: int
    choice_points: int
    budget_exhausted: bool
    parents: dict | None
    accept_configuration: Configuration | None


def explore(
    algo: str,
    g: AugmentedGrammar,
    tokens,
    budget: int = DEFAULT_BUDGET,
    keep_parents: bool = False,
    stop_on_accept: bool = False,
) -> Exploration:
    """Breadth-first search over distinct configurations.

    The full reachable space is explored (subject to the budget on the
    visited set) so that the reported metrics do not depend on where an
    accepting configuration happens to sit in the search order.
    """
    toks = g.tokens_to_symbols(tokens)
    n = len(toks)
    kind = item_kind(algo, g)
    init = Configuration((kind.init,), 0)
    fin = Configuration((kind.final,), n)
    visited = {init}
    parents: dict | None = {init: None} if keep_parents else None
    queue = deque([init])
    accepted = init == fin
    choice_points = 0
    max_frontier = 1
    truncated = False
    while queue:
        if accepted and stop_on_accept:
            break
        cfg = queue.popleft()
        raw = _successors(kind, toks, cfg)
        distinct = []
        seen_here = set()
        for clause, conf in raw:
            if conf not in seen_here:
                seen_here.add(conf)
                distinct.append((clause, conf))
        if len(distinct) >= 2:
            choice_points += 1
        for clause, conf in distinct:
            if conf in visited:
                continue
            if len(visited) >= budget:
                truncated = True
                break
            visited.add(conf)
            if parents is not None:
                parents[conf] = (cfg, clause)
            if conf == fin:
                accepted = True
            queue.append(conf)
        if len(queue) > max_frontier:
            max_frontier = len(queue)
        if truncated:
            break
    budget_exhausted = truncated and not accepted
    return Exploration(
        accepted=accepted,
        visited=visited,
        configurations_explored=len(visited),
        max_frontier=max_frontier,
        choice_points=choice_points,
        budget_exhausted=budget_exhausted,
        parents=parents,
        accept_configuration=fin if accepted else None,
    )


def recognize(algo: str, g: AugmentedGrammar, tokens, budget: int = DEFAULT_BUDGET) -> RecognitionResult:
    """Accept iff a final configuration is reachable; exhaustive with dedup."""
    ex = explore(algo, g, tokens, budget=budget)
    return RecognitionResult(
        accepted=ex.accepted,
        configurations_explored=ex.configurations_explored,
        max_frontier=ex.max_frontier,
        choice_points=ex.choice_points,
        budget_exhausted=ex.budget_exhausted,
    )


def accepting_trace(algo: str, g: AugmentedGrammar, tokens, budget: int = DEFAULT_BUDGET) -> Trace | None:
    """A shortest accepting run, or None when the input is rejected.

    Breadth-first discovery order breaks ties: clause number first, then
    rule order within a clause.
    """
    ex = explore(algo, g, tokens, budget=budget, keep_parents=True, stop_on_accept=True)
    if not ex.accepted:
        if ex.budget_exhausted:
            raise BudgetExhaustedError(f"visited-set budget {budget} exhausted before acceptance")
        return None
    assert ex.parents is not None
    chain = []
    cur = ex.accept_configuration
    while True:
        link = ex.parents[cur]
        if link is None:
            break
        prev, clause = link
        chain.append((clause, cur))
        cur = prev
    chain.reverse()
    return Trace(initial=cur, steps=tuple(chain))
