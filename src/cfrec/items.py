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

The clauses are two operations on a symbol X recognized above an item u:
push ``start(X, allowed(u))`` (clauses 1 and 3) or replace u by
``advance(u, X)`` (2 and 4).  X is the next token ``a`` above the stack
top ``top``, or a left-hand side A that ``top`` completes above the item
``below`` under it:

1. push ``start(a, allowed(top))``;
2. replace ``top`` by ``advance(top, a)``;
3. for A in ``reducible(top)``, replace ``top`` by ``start(A, allowed(below))``;
4. for A in ``reducible(top)``, pop ``top`` and replace ``below`` by
   ``advance(below, A)``.

The stack engine in `automata` and the chart engine in `tabular` both run
these primitives and nothing else, one step for both kinds of X (a chart
column's scan reads the same step list as its reductions).  They run
them on codes over the grammar's compiled index (see
`grammar._GrammarIndex`), never on the public item classes: a symbol is
an int id, a nonterminal set an int mask and a rule prefix a trie node
id.  The codes are

- lc: ``(rule id, dot)``;
- plr, elr and pseudo_elr: ``(prefix node, lhs mask)``;
- cp: ``prefix node``.

plr and pseudo_elr are set-item kinds.  A prefix item [A -> alpha] is
the set item [{A} -> alpha], so `PLRKind` is `ELRKind` with its own
``start``, which splits the allowed left-hand sides into one item each;
`PseudoELRKind` is `ELRKind` with the simplified filter.  lc and cp keep
their own codes.  A dotted item is finer than any set item: it tells
apart rules of one left-hand side that share a prefix.  A bare prefix is
the set item of every left-hand side through its node, but the node id
alone says as much and hashes as one int, where a pair would make every
visited-set check of the stack engine hash nested tuples.

A kind's ``encode`` and ``decode`` map between codes and the public
`LCItem`, `PLRItem`, `ELRItem` and `CPItem`; the engines call them only
at their edges, on what they are given and what they return.  The
finite universes (lc, plr, cp) are decoded from tables built once per
grammar.  Set items are decoded through the cache of a ``decoder()``,
which lives for one engine call, so the grammar keeps no state that
grows with the inputs it has seen.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import AugmentedGrammar, Rule, Symbol, render_symbols

DEFAULT_BUDGET = 1_000_000


class KindMismatchError(TypeError):
    """An item is not of the algorithm's item kind, or not of its grammar."""

    code = "KIND_MISMATCH"


class BudgetExhaustedError(Exception):
    """An engine reached its bound on distinct configurations or chart items."""

    code = "BUDGET_EXHAUSTED"


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




class _FiniteKind:
    """A kind whose public items are all built once, with their codes."""

    item_type: type

    def _publish(self, public: dict):
        self.universe = public  # code -> public item
        self._codes = {item: code for code, item in public.items()}
        self.decode = public.__getitem__

    def encode(self, item):
        code = self._codes.get(item) if isinstance(item, self.item_type) else None
        if code is None:
            raise KindMismatchError(f"{item!r} is not a {self.item_type.__name__} of this grammar")
        return code

    def decoder(self):
        return self.decode


def _dotted(g: AugmentedGrammar):
    """(rule id, rule, dot) for every dotted item of g: dot 0 only on the start rule."""
    start_rule = g.idx.rules.index(g.rules_dagger[-1])
    for r, rule in enumerate(g.idx.rules):
        for dot in range(0 if r == start_rule else 1, len(rule.rhs) + 1):
            yield r, rule, dot


class LCKind(_FiniteKind):
    """Dotted items: the filter is the corners of the symbol after the dot."""

    item_type = LCItem

    def __init__(self, g: AugmentedGrammar):
        idx = g.idx
        n_nt = len(idx.nonterminals)
        self._by_first = {x: tuple((r, 1 << idx.lhs[r]) for r in rs) for x, rs in idx.rules_by_first.items()}
        # Per rule and dot: the symbol after the dot, its corners, and what the item completes.
        self._next = [rhs + (None,) for rhs in idx.rhs]
        self._allowed = [[idx.lc_star[x] if x is not None and x < n_nt else 0 for x in nxt] for nxt in self._next]
        self._reducible = [[()] * len(rhs) + [(lhs,)] for lhs, rhs in zip(idx.lhs, idx.rhs)]
        start_rule = idx.rules.index(g.rules_dagger[-1])
        self.init = (start_rule, 0)
        self.final = (start_rule, 1)
        self._publish({(r, dot): LCItem(rule, dot) for r, rule, dot in _dotted(g)})

    def allowed(self, item):
        r, dot = item
        return self._allowed[r][dot]

    def start(self, x, allowed):
        return [(r, 1) for r, bit in self._by_first.get(x, ()) if bit & allowed]

    def advance(self, item, x):
        r, dot = item
        return (r, dot + 1) if self._next[r][dot] == x else None

    def reducible(self, item):
        r, dot = item
        return self._reducible[r][dot]


class ELRKind:
    """Set items: every clause instance yields at most one item."""

    item_type = ELRItem

    def __init__(self, g: AugmentedGrammar):
        idx = g.idx
        n_nt = len(idx.nonterminals)
        self._idx = idx
        self._cont = idx.cont
        self._root = idx.cont[0]
        # Per prefix node: (lhs mask, corners) of each nonterminal that may follow it.
        self._cont_nt = [
            tuple((lhss, idx.lc_star[c]) for c, (_, lhss) in cont.items() if c < n_nt) for cont in idx.cont
        ]
        self._complete = [tuple((a, 1 << a) for a in ids) for ids in idx.complete_ordered]
        sp = 1 << idx.ids[g.start_prime]
        # Per prefix node: the left-hand sides through it, which a set over it
        # may hold; over the empty prefix, only the start rule's.
        self._through = [sp]
        for node in range(1, len(idx.cont)):
            through = idx.complete[node]
            for _, lhss in idx.cont[node].values():
                through |= lhss
            self._through.append(through)
        self.init = (0, sp)
        self.final = (idx.node_of[(g.base.start,)], sp)

    def allowed(self, item):
        node, delta = item
        out = 0
        for lhss, corners in self._cont_nt[node]:
            if lhss & delta:
                out |= corners
        return out

    def start(self, x, allowed):
        step = self._root.get(x)
        if step is not None:
            delta = step[1] & allowed
            if delta:
                return ((step[0], delta),)
        return ()

    def advance(self, item, x):
        node, delta = item
        step = self._cont[node].get(x)
        if step is not None:
            delta &= step[1]
            if delta:
                return (step[0], delta)
        return None

    def reducible(self, item):
        node, delta = item
        return [a for a, bit in self._complete[node] if bit & delta]

    @staticmethod
    def join(old, new):
        """The code for old's prefix with both sets merged, or None if new adds nothing."""
        if not new[1] & ~old[1]:
            return None
        return (old[0], old[1] | new[1])

    def encode(self, item):
        """The code of a valid set item: a nonempty set of left-hand sides through its prefix."""
        idx = self._idx
        node = idx.node_of.get(item.alpha) if isinstance(item, ELRItem) else None
        delta = 0
        for s in item.delta if node is not None else ():
            delta |= 1 << idx.ids.get(s, len(idx.symbols))
        if node is None or not delta or delta & ~self._through[node]:
            raise KindMismatchError(f"{item!r} is not a valid ELRItem of this grammar")
        return (node, delta)

    def decode(self, code):
        return self.decoder()(code)

    def decoder(self):
        """A decode function with its own cache, for one engine call."""
        idx = self._idx
        items: dict = {}
        sets: dict = {}

        def decode(code):
            item = items.get(code)
            if item is None:
                node, delta = code
                d = sets.get(delta)
                if d is None:
                    d = sets[delta] = idx.nonterminal_set(delta)
                item = items[code] = ELRItem(d, idx.prefixes[node])
            return item

        return decode


class PLRKind(_FiniteKind, ELRKind):
    """Prefix items: the set items whose set is one left-hand side.

    Only ``start`` differs from ELR: it splits the allowed left-hand sides
    into one item each, in rule order.  The filter values are ELR's,
    tabulated over the finite universe.
    """

    item_type = PLRItem

    def __init__(self, g: AugmentedGrammar):
        super().__init__(g)
        idx = g.idx
        # Per first symbol: one (lhs bit, code) per left-hand side, in rule order.
        self._start = {
            x: tuple((1 << lhs, (idx.cont[0][x][0], 1 << lhs)) for lhs in dict.fromkeys(idx.lhs[r] for r in rs))
            for x, rs in idx.rules_by_first.items()
        }
        self._publish(
            {
                (idx.node_of[rule.rhs[:dot]], 1 << idx.lhs[r]): PLRItem(rule.lhs, rule.rhs[:dot])
                for r, rule, dot in _dotted(g)
            }
        )
        self.allowed = {code: ELRKind.allowed(self, code) for code in self.universe}.__getitem__

    def start(self, x, allowed):
        return [code for bit, code in self._start.get(x, ()) if bit & allowed]


class PseudoELRKind(ELRKind):
    """Set items with the simplified filter, which ignores the item's set."""

    def __init__(self, g: AugmentedGrammar):
        super().__init__(g)
        self._corners = g.idx.corners

    def allowed(self, item):
        return self._corners[item[0]]


class CPKind(_FiniteKind):
    """Bare prefixes: the filter and the clauses see only the prefix."""

    item_type = CPItem

    def __init__(self, g: AugmentedGrammar):
        idx = g.idx
        self._cont = idx.cont
        self._root = idx.cont[0]
        self._corners = idx.corners
        self._complete = idx.complete_ordered
        self.init = 0
        self.final = idx.node_of[(g.base.start,)]
        self._publish({node: CPItem(alpha) for node, alpha in enumerate(idx.prefixes)})

    def allowed(self, item):
        return self._corners[item]

    def start(self, x, allowed):
        step = self._root.get(x)
        return (step[0],) if step is not None and step[1] & allowed else ()

    def advance(self, item, x):
        step = self._cont[item].get(x)
        return step[0] if step is not None else None

    def reducible(self, item):
        return self._complete[item]


_KINDS = {"lc": LCKind, "plr": PLRKind, "elr": ELRKind, "pseudo_elr": PseudoELRKind, "cp": CPKind}


def item_kind(algo: str, g: AugmentedGrammar):
    """The clause primitives of one algorithm over g, built once per grammar."""
    if algo not in _KINDS:
        raise ValueError(f"unknown algorithm {algo!r}")
    return g.memo(_KINDS[algo])


def lc_items(g: AugmentedGrammar) -> frozenset[LCItem]:
    """All dotted items; dot 0 is reserved for the fresh start rule."""
    return frozenset(item_kind("lc", g).universe.values())


def plr_items(g: AugmentedGrammar) -> frozenset[PLRItem]:
    """Quotient of the dotted items by (lhs, recognized prefix)."""
    return frozenset(item_kind("plr", g).universe.values())


def cp_items(g: AugmentedGrammar) -> frozenset[CPItem]:
    """All distinct rule prefixes, the empty prefix included."""
    return frozenset(item_kind("cp", g).universe.values())


def elr_item_is_valid(delta, alpha, g: AugmentedGrammar) -> bool:
    """Membership test for the set-item universe, which is never enumerated.

    The universe is exponential in the nonterminal count, so validity is
    checked lazily for the items that actually materialize.
    """
    try:
        item_kind("elr", g).encode(ELRItem(frozenset(delta), tuple(alpha)))
    except KindMismatchError:
        return False
    return True
