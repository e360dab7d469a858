"""Context-free grammars: file parsing, validation, augmentation, left corners.

Grammar files are UTF-8 text.  A line is blank, a comment starting with
``#``, a start declaration ``start <Nonterminal>`` (exactly once), or a rule
``<Nonterminal> -> alt ('|' alt)*`` where each alternative is a nonempty
whitespace-separated sequence of tokens.  A token is either a nonterminal
identifier matching ``[A-Za-z_][A-Za-z0-9_]*`` or a single-quoted terminal
(no escapes).  Quoting is what separates the terminal and nonterminal
namespaces; the two never overlap in a valid grammar.  Multiple rule lines
for the same left-hand side accumulate.

The graph analyses share one reachability walk, `_reach`: reachability
from the start symbol, unit cycles, and the left-corner closure
`left_corner_star`.  `min_yields` decides productivity: a nonterminal is
productive iff it has a minimum yield.
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
    r"\s*(?:(?P<arrow>->)|(?P<pipe>\|)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
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


def _reach(succ, roots) -> set:
    """The nodes reachable from roots along succ, roots included."""
    seen = set(roots)
    work = list(seen)
    while work:
        for y in succ.get(work.pop(), ()):
            if y not in seen:
                seen.add(y)
                work.append(y)
    return seen


def _unit_cycles(g: Grammar) -> list[list[Symbol]]:
    """The classes of nonterminals on a common cycle of unit rules, sorted.

    ``after[a]`` holds the nonterminals one or more unit steps from a, so
    a lies on a cycle iff it is in ``after[a]``; a self-loop counts.
    Each class is given once, at its least member.
    """
    units: dict[Symbol, list[Symbol]] = {n: [] for n in g.nonterminals}
    for r in g.rules:
        if len(r.rhs) == 1 and r.lhs in units and r.rhs[0] in units and r.rhs[0].is_nonterminal:
            units[r.lhs].append(r.rhs[0])
    after = {a: _reach(units, units[a]) for a in units}
    out = []
    for a in sorted(units):
        if a in after[a]:
            comp = sorted(b for b in after[a] if a in after[b])
            if comp[0] == a:
                out.append(comp)
    return out


def min_yields(g: Grammar) -> dict[Symbol, int]:
    """Length of the shortest terminal string each symbol derives.

    Terminals, declared or not, yield themselves; a nonterminal is
    productive iff it is present.  Without epsilon rules every present
    value is at least 1.
    """
    yields: dict[Symbol, int] = {t: 1 for t in g.terminals}
    yields.update((s, 1) for r in g.rules for s in r.rhs if s.is_terminal)
    changed = True
    while changed:
        changed = False
        for r in g.rules:
            total = 0
            for s in r.rhs:
                y = yields.get(s)
                if y is None:
                    break
                total += y
            else:
                if total < yields.get(r.lhs, total + 1):
                    yields[r.lhs] = total
                    changed = True
    return yields


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
    for comp in _unit_cycles(g):
        names = ", ".join(s.name for s in comp)
        diags.append(Diagnostic("UNIT_CYCLE", f"unit-rule cycle through {{{names}}}", names))

    productive = min_yields(g)
    children: dict[Symbol, list[Symbol]] = {}
    for r in g.rules:
        children.setdefault(r.lhs, []).extend(s for s in r.rhs if s.is_nonterminal)
    reachable = _reach(children, [g.start]) if g.start in g.nonterminals else set()
    for n in sorted(g.nonterminals):
        if n not in reachable:
            diags.append(Diagnostic("UNREACHABLE_NONTERMINAL", f"nonterminal {n.name} is unreachable from {g.start.name}", n.name))
        if n not in productive:
            diags.append(Diagnostic("UNPRODUCTIVE_NONTERMINAL", f"nonterminal {n.name} derives no terminal string", n.name))

    ok = not any(d.code in ERROR_CODES for d in diags)
    return ValidationReport(ok=ok, diagnostics=tuple(diags))


def encode_tokens(tokens, codes: dict[str, int]) -> tuple[int, ...]:
    """Map token names to their codes in `codes`; unknown names are errors."""
    out = []
    for t in tokens:
        k = codes.get(t)
        if k is None:
            raise UnknownTokenError(t)
        out.append(k)
    return tuple(out)


class _GrammarIndex:
    """The augmented rules compiled to small ints.

    Symbols become ids, nonterminals first, so a nonterminal's id is also
    its bit in a set mask.  Rules keep their order; equal rules share the
    id of the first.  Each rule prefix is a node of a trie, node 0 the
    empty prefix: ``cont[node]`` maps a symbol id to (child node, mask of
    the left-hand sides whose rules continue with that symbol),
    ``complete[node]`` is the mask of those the prefix completes and
    ``complete_ordered[node]`` the same ids in rule order; ``cont[0][x]``
    is thus the node of (x,) and the first-symbol mask of x.  ``lc_star[c]``
    is the mask of the left corners of nonterminal c under
    `left_corner_star`, and ``corners[node]`` the union of ``lc_star``
    over the nonterminals that may follow the prefix.  The engines run on
    these tables alone.
    """

    def __init__(self, aug: "AugmentedGrammar"):
        self.nonterminals = aug.nonterminals
        terminals = aug.base.terminals
        self.symbols: tuple[Symbol, ...] = tuple(sorted(self.nonterminals)) + tuple(sorted(terminals))
        self.ids = {s: k for k, s in enumerate(self.symbols)}
        n_nt = len(self.nonterminals)
        self.all_nonterminals = (1 << n_nt) - 1
        self.terminal_ids = {t.name: self.ids[t] for t in terminals}

        rule_id: dict[Rule, int] = {}
        for r in aug.rules_dagger:
            rule_id.setdefault(r, len(rule_id))
        self.rules: tuple[Rule, ...] = tuple(rule_id)
        self.lhs = tuple(self.ids[r.lhs] for r in self.rules)
        self.rhs = tuple(tuple(self.ids[s] for s in r.rhs) for r in self.rules)
        by_first: dict[int, list[int]] = {}
        for r, rhs in enumerate(self.rhs):
            by_first.setdefault(rhs[0], []).append(r)
        self.rules_by_first = {x: tuple(rs) for x, rs in by_first.items()}

        self.prefixes: list[tuple[Symbol, ...]] = [()]
        self.cont: list[dict[int, tuple[int, int]]] = [{}]
        complete_ordered: list[list[int]] = [[]]
        for rule, lhs, rhs in zip(self.rules, self.lhs, self.rhs):
            node = 0
            for k, x in enumerate(rhs):
                step = self.cont[node].get(x)
                if step is None:
                    step = (len(self.prefixes), 0)
                    self.prefixes.append(rule.rhs[: k + 1])
                    self.cont.append({})
                    complete_ordered.append([])
                node_next = step[0]
                self.cont[node][x] = (node_next, step[1] | 1 << lhs)
                node = node_next
            if lhs not in complete_ordered[node]:
                complete_ordered[node].append(lhs)
        self.node_of = {prefix: node for node, prefix in enumerate(self.prefixes)}
        self.complete_ordered = [tuple(ids) for ids in complete_ordered]
        self.complete = [sum(1 << a for a in ids) for ids in complete_ordered]

        self.lc_star = [0] * n_nt
        for b, a in left_corner_star(left_corner(aug), aug).pairs:
            self.lc_star[self.ids[a]] |= 1 << self.ids[b]
        self.corners = [0] * len(self.prefixes)
        for node, cont in enumerate(self.cont):
            for c in cont:
                if c < n_nt:
                    self.corners[node] |= self.lc_star[c]

    def nonterminal_set(self, mask: int) -> frozenset[Symbol]:
        """The nonterminals whose bits are set in mask."""
        return frozenset(self.symbols[k] for k in range(mask.bit_length()) if mask >> k & 1)

    def token_ids(self, tokens) -> tuple[int, ...]:
        return encode_tokens(tokens, self.terminal_ids)


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
        return self.base.nonterminals | {self.start_prime}

    @property
    def terminals(self) -> frozenset[Symbol]:
        return self.base.terminals


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
    succ: dict[Symbol, list[Symbol]] = {n: [] for n in g.nonterminals}
    for b, a in rel.pairs:
        succ.setdefault(b, []).append(a)
    return Relation(frozenset((b, a) for b in succ for a in _reach(succ, (b,))))


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
