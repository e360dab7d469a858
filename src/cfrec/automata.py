"""Nondeterministic push-down recognizers run by exhaustive breadth-first search.

The five algorithms differ only in their item kind (see `items`): dotted
items (lc), prefix items (plr), set items with full or simplified top-down
filtering (elr, pseudo_elr), and bare prefixes (cp).  One successor
function applies the four clauses through the kind's primitives.  A
configuration is an item stack plus the count of consumed tokens; search
explores all distinct configurations breadth-first, so accepting traces
come out step-minimal.

The search runs on item codes, so a visited-set check hashes small ints
and never a `Symbol`.  Public `Configuration`s exist only at the edges:
`recognize` decodes nothing, `explore` decodes the configurations it
returns, and `accepting_trace` and `successors_with_clauses` decode only
the ones in their answer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .grammar import AugmentedGrammar
from .items import DEFAULT_BUDGET, BudgetExhaustedError, KindMismatchError, item_kind

ALGORITHMS = ("lc", "plr", "elr", "pseudo_elr", "cp")


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
    kind = item_kind(algo, g)
    return Configuration((kind.decode(kind.init),), 0)


def final_item(algo: str, g: AugmentedGrammar):
    kind = item_kind(algo, g)
    return kind.decode(kind.final)


def _successors(kind, scans, cfg) -> dict:
    """The four clauses on one (stack, pos) of codes: each distinct successor
    once, mapped to the clause that first produced it, in clause then rule order.

    One step recognizes symbols xs above the k-th stack item: the token
    ``scans[pos]``, a 1-tuple or () past the input, above the top (clauses
    1 and 2), then the top's completions above the item below (3 and 4).
    """
    stack, pos = cfg
    out: dict = {}
    k = len(stack)
    xs, p, clause = scans[pos], pos + 1, 1
    while True:
        if xs:
            under = stack[k - 1]
            allowed = kind.allowed(under)
            if allowed:
                for x in xs:
                    for item in kind.start(x, allowed):
                        out.setdefault((stack[:k] + (item,), p), clause)
            for x in xs:
                item = kind.advance(under, x)
                if item is not None:
                    out.setdefault((stack[: k - 1] + (item,), p), clause + 1)
        if clause == 3 or k < 2:
            return out
        xs, p, clause = kind.reducible(stack[-1]), pos, 3
        k -= 1


def _decode_configuration(decode, cfg) -> Configuration:
    stack, pos = cfg
    return Configuration(tuple(map(decode, stack)), pos)


def successors_with_clauses(algo, g, tokens, cfg) -> tuple[tuple[int, Configuration], ...]:
    """One-step successors with the clause that produced each, deduplicated
    in clause order then grammar rule order.  A position outside
    0..len(tokens) raises `ValueError`."""
    kind = item_kind(algo, g)
    if not cfg.stack:
        raise KindMismatchError(f"empty configuration stack (algo {algo!r})")
    code = (tuple(map(kind.encode, cfg.stack)), cfg.pos)
    toks = g.idx.token_ids(tokens)
    if not 0 <= cfg.pos <= len(toks):
        raise ValueError(f"position {cfg.pos} is outside 0..{len(toks)}")
    decode = kind.decoder()
    succ = _successors(kind, [(t,) for t in toks] + [()], code)
    return tuple((clause, _decode_configuration(decode, conf)) for conf, clause in succ.items())


def successors(algo, g, tokens, cfg) -> tuple[Configuration, ...]:
    return tuple(conf for _, conf in successors_with_clauses(algo, g, tokens, cfg))


@dataclass(frozen=True)
class Exploration:
    accepted: bool
    visited: frozenset
    configurations_explored: int
    max_frontier: int
    choice_points: int
    budget_exhausted: bool


def _search(kind, toks, budget: int, parents: dict | None = None) -> tuple:
    """Breadth-first search over distinct configurations of codes.

    Returns (accepted, visited, max_frontier, choice_points,
    budget_exhausted), where `visited` holds (stack of codes, pos) pairs; a
    tuple, because a frozen result costs a microsecond per search.  Given
    a `parents` dict, the search records there each configuration's
    (parent, clause) link, the initial one's None, and stops at acceptance.
    """
    n = len(toks)
    scans = [(t,) for t in toks] + [()]
    init = ((kind.init,), 0)
    fin = ((kind.final,), n)
    visited = {init}
    if parents is not None:
        parents[init] = None
    queue = deque([init])
    accepted = init == fin
    choice_points = 0
    max_frontier = 1
    truncated = False
    while queue:
        if accepted and parents is not None:
            break
        cfg = queue.popleft()
        succ = _successors(kind, scans, cfg)
        if len(succ) >= 2:
            choice_points += 1
        for conf, clause in succ.items():
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
    return accepted, visited, max_frontier, choice_points, truncated and not accepted


def explore(algo: str, g: AugmentedGrammar, tokens, budget: int = DEFAULT_BUDGET) -> Exploration:
    """Breadth-first search over distinct configurations.

    The full reachable space is explored (subject to the budget on the
    visited set) so that the reported metrics do not depend on where an
    accepting configuration happens to sit in the search order.
    """
    kind = item_kind(algo, g)
    accepted, visited, max_frontier, choice_points, exhausted = _search(kind, g.idx.token_ids(tokens), budget)
    decode = kind.decoder()
    decoded = frozenset(_decode_configuration(decode, cfg) for cfg in visited)
    return Exploration(accepted, decoded, len(visited), max_frontier, choice_points, exhausted)


def recognize(algo: str, g: AugmentedGrammar, tokens, budget: int = DEFAULT_BUDGET) -> RecognitionResult:
    """Accept iff a final configuration is reachable; exhaustive with dedup."""
    accepted, visited, max_frontier, choice_points, exhausted = _search(
        item_kind(algo, g), g.idx.token_ids(tokens), budget
    )
    return RecognitionResult(accepted, len(visited), max_frontier, choice_points, exhausted)


def accepting_trace(algo: str, g: AugmentedGrammar, tokens, budget: int = DEFAULT_BUDGET) -> Trace | None:
    """A shortest accepting run, or None when the input is rejected.

    Breadth-first discovery order breaks ties: clause number first, then
    rule order within a clause.
    """
    kind = item_kind(algo, g)
    toks = g.idx.token_ids(tokens)
    parents: dict = {}
    accepted, _, _, _, exhausted = _search(kind, toks, budget, parents)
    if not accepted:
        if exhausted:
            raise BudgetExhaustedError(f"visited-set budget {budget} exhausted before acceptance")
        return None
    decode = kind.decoder()
    chain = []
    cur = ((kind.final,), len(toks))
    while True:
        link = parents[cur]
        if link is None:
            break
        prev, clause = link
        chain.append((clause, _decode_configuration(decode, cur)))
        cur = prev
    chain.reverse()
    return Trace(initial=_decode_configuration(decode, cur), steps=tuple(chain))
