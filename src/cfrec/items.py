"""Stack symbols of the five recognizers, and the clause algebra over them.

Each family refines the previous one's items: dotted items carry a full
rule and dot, prefix items keep only (lhs, recognized prefix), set items
replace the single lhs by a nonterminal set, and bare-prefix items drop
the lhs entirely.  The bare-prefix and set universes are quotients, so
their sizes only ever shrink.

Every algorithm is the same four clauses over its own item kind.  A kind
has an initial and a final item and four primitives:

- ``allowed(item)``: the left-corner filter, the nonterminals whose rules
  may be started below ``item``;
- ``start(X, allowed)``: the items of the allowed rules whose right-hand
  side begins with X;
- ``advance(item, X)``: the item after recognizing X, or None;
- ``reducible(item)``: the left-hand sides that ``item`` completes.

With ``top`` the item on the stack top, ``below`` the one under it and
``a`` the next token, the clauses are

1. push ``start(a, allowed(top))``;
2. replace ``top`` by ``advance(top, a)``;
3. for A in ``reducible(top)``, replace ``top`` by ``start(A, allowed(below))``;
4. for A in ``reducible(top)``, pop ``top`` and replace ``below`` by
   ``advance(below, A)``.

The stack engine in `automata` and the chart engine in `tabular` both run
these primitives and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import AugmentedGrammar, Rule, Symbol, render_symbols

_EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class LCItem:
    """Dotted rule [A -> alpha . beta]; dot counts recognized symbols."""

    rule: Rule
    dot: int

    @property
    def next_symbol(self) -> Symbol | None:
        return self.rule.rhs[self.dot] if self.dot < len(self.rule.rhs) else None

    @property
    def complete(self) -> bool:
        return self.dot == len(self.rule.rhs)

    def __repr__(self):
        return render_item(self)


@dataclass(frozen=True)
class PLRItem:
    """[A -> alpha]: every dotted item of A's rules with recognized prefix alpha."""

    lhs: Symbol
    alpha: tuple[Symbol, ...]

    def __repr__(self):
        return render_item(self)


@dataclass(frozen=True)
class ELRItem:
    """[{A1,..,An} -> alpha]: prefix alpha under any of the listed left-hand sides."""

    delta: frozenset[Symbol]
    alpha: tuple[Symbol, ...]

    def __repr__(self):
        return render_item(self)


@dataclass(frozen=True)
class CPItem:
    """[-> alpha]: a recognized common prefix, left-hand sides forgotten."""

    alpha: tuple[Symbol, ...]

    def __repr__(self):
        return render_item(self)


def render_delta(delta: frozenset[Symbol]) -> str:
    return "{" + ",".join(sorted(s.name for s in delta)) + "}"


def render_item(item) -> str:
    if isinstance(item, LCItem):
        parts = [render_symbols(item.rule.rhs[: item.dot]), ".", render_symbols(item.rule.rhs[item.dot :])]
        body = " ".join(p for p in parts if p)
        return f"[{item.rule.lhs.name} -> {body}]"
    if isinstance(item, PLRItem):
        alpha = render_symbols(item.alpha)
        return f"[{item.lhs.name} -> {alpha}]" if alpha else f"[{item.lhs.name} ->]"
    if isinstance(item, ELRItem):
        alpha = render_symbols(item.alpha)
        head = render_delta(item.delta)
        return f"[{head} -> {alpha}]" if alpha else f"[{head} ->]"
    if isinstance(item, CPItem):
        alpha = render_symbols(item.alpha)
        return f"[-> {alpha}]" if alpha else f"[->]"
    raise TypeError(f"not an item: {item!r}")


def lc_items(g: AugmentedGrammar) -> frozenset[LCItem]:
    """All dotted items; dot 0 is reserved for the fresh start rule."""
    out = set()
    for r in g.rules_dagger:
        lo = 0 if r.lhs == g.start_prime else 1
        for dot in range(lo, len(r.rhs) + 1):
            out.add(LCItem(r, dot))
    return frozenset(out)


def plr_items(g: AugmentedGrammar) -> frozenset[PLRItem]:
    """Quotient of the dotted items by (lhs, recognized prefix)."""
    out = set()
    for r in g.rules_dagger:
        lo = 0 if r.lhs == g.start_prime else 1
        for dot in range(lo, len(r.rhs) + 1):
            out.add(PLRItem(r.lhs, r.rhs[:dot]))
    return frozenset(out)


def cp_items(g: AugmentedGrammar) -> frozenset[CPItem]:
    """All distinct rule prefixes, the empty prefix included."""
    out = set()
    for r in g.rules_dagger:
        for dot in range(len(r.rhs) + 1):
            out.add(CPItem(r.rhs[:dot]))
    return frozenset(out)


def elr_item_is_valid(delta, alpha, g: AugmentedGrammar) -> bool:
    """Membership test for the set-item universe, which is never enumerated.

    The universe is exponential in the nonterminal count, so validity is
    checked lazily for the items that actually materialize.
    """
    delta = frozenset(delta)
    alpha = tuple(alpha)
    if not delta:
        return False
    node = g.idx.nodes.get(alpha)
    if node is None or not delta <= node.through:
        return False
    return bool(alpha) or delta == frozenset({g.start_prime})


class LCKind:
    """Dotted items: the filter is the corners of the symbol after the dot."""

    item_type = LCItem

    def __init__(self, g: AugmentedGrammar):
        self._lc_star = g.idx.lc_star_of
        self._by_first = g.idx.rules_by_first
        start_rule = g.rules_dagger[-1]
        self.init = LCItem(start_rule, 0)
        self.final = LCItem(start_rule, 1)

    def allowed(self, item):
        nxt = item.next_symbol
        return self._lc_star[nxt] if nxt is not None and nxt.is_nonterminal else _EMPTY

    def start(self, x, allowed):
        return [LCItem(r, 1) for r in self._by_first.get(x, ()) if r.lhs in allowed]

    def advance(self, item, x):
        return LCItem(item.rule, item.dot + 1) if item.next_symbol == x else None

    def reducible(self, item):
        return (item.rule.lhs,) if item.complete else ()


class PLRKind:
    """Prefix items: one item per left-hand side and recognized prefix."""

    item_type = PLRItem

    def __init__(self, g: AugmentedGrammar):
        self._nodes = g.idx.nodes
        self._by_first = g.idx.rules_by_first
        self._corners = g.idx.corners_of_any
        self.init = PLRItem(g.start_prime, ())
        self.final = PLRItem(g.start_prime, (g.base.start,))

    def allowed(self, item):
        lhs = item.lhs
        return self._corners([c for c, lhss in self._nodes[item.alpha].cont_nt.items() if lhs in lhss])

    def start(self, x, allowed):
        out = {}
        for r in self._by_first.get(x, ()):
            if r.lhs in allowed and r.lhs not in out:
                out[r.lhs] = PLRItem(r.lhs, (x,))
        return out.values()

    def advance(self, item, x):
        if item.lhs in self._nodes[item.alpha].cont.get(x, ()):
            return PLRItem(item.lhs, item.alpha + (x,))
        return None

    def reducible(self, item):
        return (item.lhs,) if item.lhs in self._nodes[item.alpha].complete else ()


class ELRKind:
    """Set items: every clause instance yields at most one item."""

    item_type = ELRItem

    def __init__(self, g: AugmentedGrammar):
        self._nodes = g.idx.nodes
        self._first_lhs = g.idx.first_lhs
        self._corners = g.idx.corners_of_any
        self.init = ELRItem(frozenset({g.start_prime}), ())
        self.final = ELRItem(frozenset({g.start_prime}), (g.base.start,))

    def allowed(self, item):
        delta = item.delta
        return self._corners([c for c, lhss in self._nodes[item.alpha].cont_nt.items() if lhss & delta])

    def start(self, x, allowed):
        delta = self._first_lhs.get(x, _EMPTY) & allowed
        return (ELRItem(delta, (x,)),) if delta else ()

    def advance(self, item, x):
        delta = item.delta & self._nodes[item.alpha].cont.get(x, _EMPTY)
        return ELRItem(delta, item.alpha + (x,)) if delta else None

    def reducible(self, item):
        delta = item.delta
        return [x for x in self._nodes[item.alpha].complete_ordered if x in delta]

    @staticmethod
    def join(old, new):
        """The item for old's prefix with both sets merged, or None if new adds nothing."""
        if new.delta <= old.delta:
            return None
        return ELRItem(old.delta | new.delta, old.alpha)


def _prefix_corners(g: AugmentedGrammar) -> dict:
    """Per rule prefix, the corners of every nonterminal that may follow it."""
    return {alpha: g.idx.corners_of_any(node.cont_nt) for alpha, node in g.idx.nodes.items()}


class PseudoELRKind(ELRKind):
    """Set items with the simplified filter, which ignores the item's set."""

    def __init__(self, g: AugmentedGrammar):
        super().__init__(g)
        self._allowed = _prefix_corners(g)

    def allowed(self, item):
        return self._allowed[item.alpha]


class CPKind:
    """Bare prefixes: the filter and the clauses see only the prefix."""

    item_type = CPItem

    def __init__(self, g: AugmentedGrammar):
        self._nodes = g.idx.nodes
        self._first_lhs = g.idx.first_lhs
        self._allowed = _prefix_corners(g)
        self.init = CPItem(())
        self.final = CPItem((g.base.start,))

    def allowed(self, item):
        return self._allowed[item.alpha]

    def start(self, x, allowed):
        return () if self._first_lhs.get(x, _EMPTY).isdisjoint(allowed) else (CPItem((x,)),)

    def advance(self, item, x):
        return CPItem(item.alpha + (x,)) if x in self._nodes[item.alpha].cont else None

    def reducible(self, item):
        return self._nodes[item.alpha].complete_ordered


_KINDS = {"lc": LCKind, "plr": PLRKind, "elr": ELRKind, "pseudo_elr": PseudoELRKind, "cp": CPKind}


def item_kind(algo: str, g: AugmentedGrammar):
    """The clause primitives of one algorithm over g, built once per grammar."""
    if algo not in _KINDS:
        raise ValueError(f"unknown algorithm {algo!r}")
    return g.memo(_KINDS[algo])
