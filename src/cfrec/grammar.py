"""Context-free grammars: file parsing, validation, augmentation, left corners.

Grammar files are UTF-8 text.  A line is blank, a comment starting with
``#``, a start declaration ``start <Nonterminal>`` (exactly once), or a rule
``<Nonterminal> -> alt ('|' alt)*`` where each alternative is a nonempty
whitespace-separated sequence of tokens.  A token is either a nonterminal
identifier matching ``[A-Za-z_][A-Za-z0-9_]*`` or a single-quoted terminal
(no escapes).  Quoting is what separates the terminal and nonterminal
namespaces; the two never overlap in a valid grammar.  Multiple rule lines
for the same left-hand side accumulate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

TERMINAL = "terminal"
NONTERMINAL = "nonterminal"


class GrammarError(Exception):
    """Base class for grammar-level failures."""

    code = "GRAMMAR_ERROR"


class GrammarSyntaxError(GrammarError):
    code = "SYNTAX_ERROR"

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class DuplicateStartError(GrammarSyntaxError):
    code = "DUPLICATE_START"


class InvalidGrammarError(GrammarError):
    """Raised when an operation requires a grammar that passes validation."""

    code = "INVALID_GRAMMAR"

    def __init__(self, report: "ValidationReport"):
        details = "; ".join(d.message for d in report.errors())
        super().__init__(f"grammar does not validate: {details}")
        self.report = report


class UnknownTokenError(GrammarError):
    """An input token is not a declared terminal (distinct from rejection)."""

    code = "UNKNOWN_TOKEN"

    def __init__(self, token: str):
        super().__init__(f"unknown token {token!r}")
        self.token = token


@dataclass(frozen=True, order=True)
class Symbol:
    """A terminal or nonterminal; the kind tag keeps the namespaces apart."""

    kind: str
    name: str

    def __post_init__(self):
        if self.kind not in (TERMINAL, NONTERMINAL):
            raise ValueError(f"bad symbol kind {self.kind!r}")
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"bad symbol name {self.name!r}")

    @property
    def is_terminal(self) -> bool:
        return self.kind == TERMINAL

    @property
    def is_nonterminal(self) -> bool:
        return self.kind == NONTERMINAL

    def __repr__(self):
        return render_symbol(self)


def term(name: str) -> Symbol:
    return Symbol(TERMINAL, name)


def nonterm(name: str) -> Symbol:
    return Symbol(NONTERMINAL, name)


def render_symbol(sym: Symbol) -> str:
    return f"'{sym.name}'" if sym.kind == TERMINAL else sym.name


def render_symbols(syms) -> str:
    return " ".join(render_symbol(s) for s in syms)


@dataclass(frozen=True)
class Rule:
    lhs: Symbol
    rhs: tuple[Symbol, ...]

    def __repr__(self):
        return f"{self.lhs.name} -> {render_symbols(self.rhs)}"


@dataclass(frozen=True)
class Grammar:
    terminals: frozenset[Symbol]
    nonterminals: frozenset[Symbol]
    rules: tuple[Rule, ...]
    start: Symbol


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    subject: str = ""


ERROR_CODES = frozenset(
    {"EPSILON_RULE", "UNIT_CYCLE", "UNDECLARED_SYMBOL", "START_MISSING"}
)
WARNING_CODES = frozenset({"UNREACHABLE_NONTERMINAL", "UNPRODUCTIVE_NONTERMINAL"})


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    diagnostics: tuple[Diagnostic, ...]

    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.code in ERROR_CODES)

    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.code in WARNING_CODES)


_TOKEN_RE = re.compile(
    r"[ \t]*(?:(?P<arrow>->)|(?P<pipe>\|)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<quote>'[^']*')|(?P<bad>\S))"
)


def _tokenize_line(text: str, lineno: int):
    """Yield (kind, value, column) triples for one source line."""
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        col = m.start(m.lastgroup) + 1
        if m.lastgroup == "bad":
            raise GrammarSyntaxError(f"unexpected character {m.group('bad')!r}", lineno, col)
        if m.lastgroup == "quote":
            content = m.group("quote")[1:-1]
            if not content:
                raise GrammarSyntaxError("empty terminal", lineno, col)
            if any(ch.isspace() for ch in content):
                raise GrammarSyntaxError("terminal contains whitespace", lineno, col)
            yield "term", content, col
        else:
            yield m.lastgroup, m.group(m.lastgroup), col
        pos = m.end()


def parse_grammar(text: str) -> Grammar:
    """Parse grammar source text; rules keep their source order."""
    start_name = None
    rules: list[tuple[str, tuple[Symbol, ...]]] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = list(_tokenize_line(raw, lineno))
        kinds = [k for k, _, _ in toks]
        if kinds == ["ident", "ident"] and toks[0][1] == "start":
            if start_name is not None:
                raise DuplicateStartError("duplicate start declaration", lineno, toks[0][2])
            start_name = toks[1][1]
            continue
        if len(toks) < 2 or toks[0][0] != "ident" or toks[1][0] != "arrow":
            raise GrammarSyntaxError("expected 'start <N>' or '<N> -> ...'", lineno, toks[0][2])
        lhs = toks[0][1]
        alt: list[Symbol] = []
        for kind, value, col in toks[2:]:
            if kind == "pipe":
                if not alt:
                    raise GrammarSyntaxError("empty alternative", lineno, col)
                rules.append((lhs, tuple(alt)))
                alt = []
            elif kind == "ident":
                alt.append(nonterm(value))
            elif kind == "term":
                alt.append(term(value))
            else:
                raise GrammarSyntaxError(f"unexpected {value!r} in rule", lineno, col)
        if not alt:
            col = toks[-1][2] if toks else 1
            raise GrammarSyntaxError("empty alternative", lineno, col)
        rules.append((lhs, tuple(alt)))
    if start_name is None:
        raise GrammarSyntaxError("missing start declaration", lineno + 1, 1)

    nonterminals = {nonterm(start_name)}
    terminals: set[Symbol] = set()
    built: list[Rule] = []
    for lhs, rhs in rules:
        nonterminals.add(nonterm(lhs))
        for sym in rhs:
            (terminals if sym.is_terminal else nonterminals).add(sym)
        built.append(Rule(nonterm(lhs), rhs))
    return Grammar(
        terminals=frozenset(terminals),
        nonterminals=frozenset(nonterminals),
        rules=tuple(built),
        start=nonterm(start_name),
    )


def _unit_cycle_components(g: Grammar) -> list[list[Symbol]]:
    """Strongly connected components of the unit-rule graph that form cycles."""
    edges: dict[Symbol, set[Symbol]] = {n: set() for n in g.nonterminals}
    for r in g.rules:
        if len(r.rhs) == 1 and r.rhs[0].is_nonterminal and r.lhs in edges:
            edges[r.lhs].add(r.rhs[0])
    index: dict[Symbol, int] = {}
    low: dict[Symbol, int] = {}
    on_stack: set[Symbol] = set()
    stack: list[Symbol] = []
    counter = [0]
    out: list[list[Symbol]] = []

    def strongconnect(v: Symbol):
        # Iterative Tarjan, to stay safe on deep unit chains.
        work = [(v, iter(sorted(edges.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in edges:
                    continue
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1 or node in edges.get(node, ()):
                    out.append(sorted(comp))

    for v in sorted(edges):
        if v not in index:
            strongconnect(v)
    return out


def min_yields(g: Grammar) -> dict[Symbol, int]:
    """Length of the shortest terminal string each symbol derives.

    Terminals yield themselves; unproductive nonterminals are absent.
    Without epsilon rules every present value is at least 1.
    """
    yields: dict[Symbol, int] = {t: 1 for t in g.terminals}
    changed = True
    while changed:
        changed = False
        for r in g.rules:
            if all(s in yields for s in r.rhs):
                total = sum(yields[s] for s in r.rhs)
                if total < yields.get(r.lhs, total + 1):
                    yields[r.lhs] = total
                    changed = True
    return yields


def _productive_nonterminals(g: Grammar) -> frozenset[Symbol]:
    productive: set[Symbol] = set()
    changed = True
    while changed:
        changed = False
        for r in g.rules:
            if r.lhs in productive:
                continue
            if all(s.is_terminal or s in productive for s in r.rhs):
                productive.add(r.lhs)
                changed = True
    return frozenset(productive)


def _reachable_nonterminals(g: Grammar) -> frozenset[Symbol]:
    if g.start not in g.nonterminals:
        return frozenset()
    reached = {g.start}
    frontier = [g.start]
    by_lhs: dict[Symbol, list[Rule]] = {}
    for r in g.rules:
        by_lhs.setdefault(r.lhs, []).append(r)
    while frontier:
        a = frontier.pop()
        for r in by_lhs.get(a, ()):
            for s in r.rhs:
                if s.is_nonterminal and s not in reached:
                    reached.add(s)
                    frontier.append(s)
    return frozenset(reached)


def validate(g: Grammar) -> ValidationReport:
    """Check the structural health of a grammar; never raises."""
    diags: list[Diagnostic] = []
    overlap = {t.name for t in g.terminals} & {n.name for n in g.nonterminals}
    for name in sorted(overlap):
        diags.append(
            Diagnostic(
                "UNDECLARED_SYMBOL",
                f"name {name!r} is declared both as terminal and nonterminal",
                name,
            )
        )
    for r in g.rules:
        if r.lhs.is_terminal or r.lhs not in g.nonterminals:
            diags.append(
                Diagnostic("UNDECLARED_SYMBOL", f"rule lhs {r.lhs.name!r} is not a declared nonterminal", r.lhs.name)
            )
        for s in r.rhs:
            declared = s in (g.terminals if s.is_terminal else g.nonterminals)
            if not declared:
                diags.append(
                    Diagnostic("UNDECLARED_SYMBOL", f"symbol {render_symbol(s)} in {r!r} is not declared", s.name)
                )
        if not r.rhs:
            diags.append(Diagnostic("EPSILON_RULE", f"rule {r.lhs.name} -> <empty> has an empty right-hand side", r.lhs.name))
    if g.start not in g.nonterminals or g.start.is_terminal:
        diags.append(Diagnostic("START_MISSING", f"start symbol {g.start.name!r} is not a declared nonterminal", g.start.name))
    for comp in _unit_cycle_components(g):
        names = ", ".join(s.name for s in comp)
        diags.append(Diagnostic("UNIT_CYCLE", f"unit-rule cycle through {{{names}}}", names))

    productive = _productive_nonterminals(g)
    reachable = _reachable_nonterminals(g)
    for n in sorted(g.nonterminals):
        if n not in reachable:
            diags.append(Diagnostic("UNREACHABLE_NONTERMINAL", f"nonterminal {n.name} is unreachable from {g.start.name}", n.name))
        if n not in productive:
            diags.append(Diagnostic("UNPRODUCTIVE_NONTERMINAL", f"nonterminal {n.name} derives no terminal string", n.name))

    ok = not any(d.code in ERROR_CODES for d in diags)
    return ValidationReport(ok=ok, diagnostics=tuple(diags))


class _PrefixNode:
    """Everything the clause conditions need to know about one rhs prefix."""

    __slots__ = ("cont", "cont_nt", "complete", "complete_ordered", "through")

    def __init__(self):
        self.cont: dict[Symbol, frozenset[Symbol]] = {}
        self.cont_nt: dict[Symbol, frozenset[Symbol]] = {}
        self.complete: frozenset[Symbol] = frozenset()
        self.complete_ordered: tuple[Symbol, ...] = ()
        self.through: frozenset[Symbol] = frozenset()


_EMPTY = frozenset()


class _GrammarIndex:
    """Precomputed query tables over the augmented rule set."""

    def __init__(self, aug: "AugmentedGrammar"):
        rules = aug.rules_dagger
        self.nonterminals = aug.base.nonterminals | {aug.start_prime}
        self.terminals = aug.base.terminals
        self.terminal_by_name = {t.name: t for t in self.terminals}

        by_first: dict[Symbol, list[Rule]] = {}
        first_lhs: dict[Symbol, set[Symbol]] = {}
        node_cont: dict[tuple, dict[Symbol, set[Symbol]]] = {}
        node_complete: dict[tuple, list[Symbol]] = {}
        prefixes: set[tuple] = {()}
        for r in rules:
            if not r.rhs:
                continue
            by_first.setdefault(r.rhs[0], []).append(r)
            first_lhs.setdefault(r.rhs[0], set()).add(r.lhs)
            for k in range(len(r.rhs) + 1):
                prefix = r.rhs[:k]
                prefixes.add(prefix)
                if k < len(r.rhs):
                    node_cont.setdefault(prefix, {}).setdefault(r.rhs[k], set()).add(r.lhs)
                else:
                    node_complete.setdefault(prefix, [])
                    if r.lhs not in node_complete[prefix]:
                        node_complete[prefix].append(r.lhs)

        self.rules_by_first = {s: tuple(rs) for s, rs in by_first.items()}
        self.first_lhs = {s: frozenset(v) for s, v in first_lhs.items()}
        self.nodes: dict[tuple, _PrefixNode] = {}
        for prefix in prefixes:
            node = _PrefixNode()
            cont = node_cont.get(prefix, {})
            node.cont = {s: frozenset(v) for s, v in cont.items()}
            node.cont_nt = {s: v for s, v in node.cont.items() if s.is_nonterminal}
            ordered = node_complete.get(prefix, [])
            node.complete = frozenset(ordered)
            node.complete_ordered = tuple(ordered)
            node.through = frozenset().union(node.complete, *node.cont.values())
            self.nodes[prefix] = node

        # D is a left corner of C iff C can start a derivation whose leftmost
        # symbol chain reaches D; reflexive over every nonterminal.
        corner_edges: dict[Symbol, set[Symbol]] = {n: set() for n in self.nonterminals}
        for r in rules:
            if r.rhs and r.rhs[0].is_nonterminal:
                corner_edges[r.lhs].add(r.rhs[0])
        star: dict[Symbol, frozenset[Symbol]] = {}
        for c in self.nonterminals:
            seen = {c}
            frontier = [c]
            while frontier:
                x = frontier.pop()
                for y in corner_edges.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            star[c] = frozenset(seen)
        self.lc_star_of = star

    def node(self, prefix: tuple) -> _PrefixNode:
        return self.nodes[prefix]

    def corners_of_any(self, expected) -> frozenset[Symbol]:
        """Union of left-corner sets of the expected nonterminals."""
        if not expected:
            return _EMPTY
        return frozenset().union(*(self.lc_star_of[c] for c in expected))


@dataclass(frozen=True)
class AugmentedGrammar:
    """A validated grammar plus the fresh start rule start' -> start."""

    base: Grammar
    start_prime: Symbol
    rules_dagger: tuple[Rule, ...]

    def __post_init__(self):
        object.__setattr__(self, "_idx", _GrammarIndex(self))
        object.__setattr__(self, "_memo", {})

    @property
    def idx(self) -> _GrammarIndex:
        return self._idx  # type: ignore[attr-defined]

    def memo(self, build):
        """build(self), computed on first use and kept on this grammar.

        Derived tables live and die with the grammar they describe.  Two
        threads may both build on first use; every caller gets the result
        stored first, and the two are equal anyway.
        """
        memo = self._memo  # type: ignore[attr-defined]
        value = memo.get(build)
        if value is None:
            value = memo.setdefault(build, build(self))
        return value

    @property
    def nonterminals(self) -> frozenset[Symbol]:
        return self.idx.nonterminals

    @property
    def terminals(self) -> frozenset[Symbol]:
        return self.base.terminals

    def tokens_to_symbols(self, tokens) -> tuple[Symbol, ...]:
        """Map token names to declared terminals; unknown names are errors."""
        out = []
        for t in tokens:
            sym = self.idx.terminal_by_name.get(t)
            if sym is None:
                raise UnknownTokenError(t)
            out.append(sym)
        return tuple(out)


def augment(g: Grammar, allow_unit_cycles: bool = False) -> AugmentedGrammar:
    """Extend a validated grammar with a fresh start symbol and start rule."""
    report = validate(g)
    blocking = [d for d in report.errors() if not (allow_unit_cycles and d.code == "UNIT_CYCLE")]
    if blocking:
        raise InvalidGrammarError(ValidationReport(ok=False, diagnostics=tuple(blocking)))
    taken = {s.name for s in g.nonterminals} | {s.name for s in g.terminals}
    name = g.start.name + "'"
    while name in taken:
        name += "'"
    start_prime = nonterm(name)
    return AugmentedGrammar(
        base=g,
        start_prime=start_prime,
        rules_dagger=g.rules + (Rule(start_prime, (g.start,)),),
    )


@dataclass(frozen=True)
class Relation:
    """A set of nonterminal pairs (B, A), read as: B is a left corner of A."""

    pairs: frozenset[tuple[Symbol, Symbol]]

    def __contains__(self, pair) -> bool:
        return pair in self.pairs


def left_corner(g: AugmentedGrammar) -> Relation:
    """(B, A) for every rule A -> B alpha with B a nonterminal."""
    pairs = {
        (r.rhs[0], r.lhs)
        for r in g.rules_dagger
        if r.rhs and r.rhs[0].is_nonterminal
    }
    return Relation(frozenset(pairs))


def left_corner_star(rel: Relation, g: AugmentedGrammar) -> Relation:
    """Smallest reflexive-transitive relation over g's nonterminals containing rel."""
    universe = g.nonterminals
    succ: dict[Symbol, set[Symbol]] = {n: {n} for n in universe}
    for b, a in rel.pairs:
        succ.setdefault(b, {b}).add(a)
    closed: set[tuple[Symbol, Symbol]] = set()
    for b in succ:
        seen = {b}
        frontier = [b]
        while frontier:
            x = frontier.pop()
            for y in succ.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        closed.update((b, a) for a in seen)
    return Relation(frozenset(closed))


def common_prefix_pairs(g: AugmentedGrammar) -> list[tuple[Rule, Rule, tuple[Symbol, ...]]]:
    """All unordered rule pairs sharing a nonempty rhs prefix, with that prefix."""
    out = []
    rules = g.rules_dagger
    for i in range(len(rules)):
        for j in range(i + 1, len(rules)):
            a, b = rules[i], rules[j]
            k = 0
            while k < len(a.rhs) and k < len(b.rhs) and a.rhs[k] == b.rhs[k]:
                k += 1
            if k:
                out.append((a, b, a.rhs[:k]))
    return out
