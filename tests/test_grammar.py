import pytest

from cfrec.grammar import (
    DuplicateStartError,
    Grammar,
    GrammarSyntaxError,
    InvalidGrammarError,
    Relation,
    Rule,
    Symbol,
    augment,
    common_prefix_pairs,
    left_corner,
    left_corner_star,
    nonterm,
    parse_grammar,
    term,
    validate,
)

E, T, F = nonterm("E"), nonterm("T"), nonterm("F")


def test_parse_g1_rules_in_source_order(g1):
    rules = g1.base.rules
    assert len(rules) == 7
    assert rules[0] == Rule(E, (E, term("+"), T))
    assert rules[1] == Rule(E, (T, term("^"), E))
    assert rules[2] == Rule(E, (T,))
    assert rules[3] == Rule(T, (T, term("*"), F))
    assert rules[4] == Rule(T, (T, term("**"), F))
    assert rules[5] == Rule(T, (F,))
    assert rules[6] == Rule(F, (term("a"),))
    assert g1.base.start == E


def test_parse_single_rule_grammar():
    g = parse_grammar("start S\nS -> 'a'")
    assert len(g.rules) == 1
    assert g.start == nonterm("S")
    assert g.terminals == frozenset({term("a")})


def test_parse_alternatives_expand_to_separate_rules():
    g = parse_grammar("start S\nS -> 'a' | 'b' S\nS -> 'c'")
    assert [r.rhs for r in g.rules] == [(term("a"),), (term("b"), nonterm("S")), (term("c"),)]


def test_parse_empty_alternative_is_a_syntax_error():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("start S\nS -> ")
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("start S\nS -> 'a' | | 'b'")


def test_parse_missing_start_is_a_syntax_error():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("S -> 'a'")


def test_parse_duplicate_start():
    with pytest.raises(DuplicateStartError):
        parse_grammar("start S\nstart T\nS -> 'a'")


def test_parse_reports_line_and_column():
    try:
        parse_grammar("start S\nS -> 'a' $")
    except GrammarSyntaxError as e:
        assert e.line == 2 and e.column == 10
    else:
        pytest.fail("expected a syntax error")


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("start S\nS -> ''", "empty terminal", 6),
        ("start S\nS S S", "expected 'start <N>' or '<N> -> ...'", 1),
        ("start S\n'a' -> S", "expected 'start <N>' or '<N> -> ...'", 1),
        ("start S\nS -> 'a' -> 'b'", "unexpected '->' in rule", 10),
    ],
)
def test_parse_syntax_errors_name_the_fault_and_its_place(text, message, column):
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(text)
    assert str(err.value) == f"2:{column}: {message}"
    assert (err.value.line, err.value.column) == (2, column)


def test_parse_rejects_whitespace_in_terminal():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("start S\nS -> 'a b'")


@pytest.mark.parametrize("space", ["\u00a0", "\u3000"])
def test_parse_separates_tokens_on_any_whitespace(space):
    g = parse_grammar(f"start S\nS{space}->{space}'a'{space}'b' | 'c'{space}S{space}\n")
    assert [r.rhs for r in g.rules] == [(term("a"), term("b")), (term("c"), nonterm("S"))]


def test_comments_and_blank_lines_ignored():
    g = parse_grammar("# heading\n\nstart S\n  # indented comment\nS -> 'a'\n")
    assert len(g.rules) == 1


def test_validate_g1_is_clean(g1):
    report = validate(g1.base)
    assert report.ok
    assert report.diagnostics == ()


def test_validate_unit_cycle():
    g = parse_grammar("start S\nS -> A\nA -> S\nS -> 'a'")
    report = validate(g)
    assert not report.ok
    assert any(d.code == "UNIT_CYCLE" for d in report.diagnostics)
    cyc = next(d for d in report.diagnostics if d.code == "UNIT_CYCLE")
    assert "A" in cyc.subject and "S" in cyc.subject


def test_validate_self_unit_cycle():
    g = parse_grammar("start S\nS -> S | 'a'")
    assert not validate(g).ok


def _unit_cycle_subjects(text):
    return [d.subject for d in validate(parse_grammar(text)).diagnostics if d.code == "UNIT_CYCLE"]


def test_unit_cycles_come_sorted_by_least_member():
    # The cycle {A, B} reaches the cycle {C, D}; a depth-first search finishes {C, D} first.
    text = "start S\nS -> A | 'a'\nA -> B | C\nB -> A | 'b'\nC -> D | 'c'\nD -> C"
    assert _unit_cycle_subjects(text) == ["A, B", "C, D"]


def test_unit_self_loop_is_a_cycle_of_its_own():
    text = "start S\nS -> T | 'a'\nT -> T | 'b' | U\nU -> V\nV -> U | 'c'"
    assert _unit_cycle_subjects(text) == ["T", "U, V"]


def test_validate_undeclared_symbol():
    g = Grammar(
        terminals=frozenset(),
        nonterminals=frozenset({nonterm("S")}),
        rules=(Rule(nonterm("S"), (term("a"),)),),
        start=nonterm("S"),
    )
    report = validate(g)
    assert not report.ok
    assert any(d.code == "UNDECLARED_SYMBOL" for d in report.diagnostics)


def test_undeclared_terminal_still_counts_as_productive():
    g = Grammar(
        terminals=frozenset(),
        nonterminals=frozenset({nonterm("S")}),
        rules=(Rule(nonterm("S"), (term("a"),)),),
        start=nonterm("S"),
    )
    assert [(d.code, d.subject, d.message) for d in validate(g).diagnostics] == [
        ("UNDECLARED_SYMBOL", "a", "symbol 'a' in S -> 'a' is not declared")
    ]


def test_validate_name_declared_as_terminal_and_nonterminal():
    g = Grammar(
        terminals=frozenset({term("a")}),
        nonterminals=frozenset({nonterm("S"), nonterm("a")}),
        rules=(Rule(nonterm("S"), (term("a"),)),),
        start=nonterm("S"),
    )
    report = validate(g)
    assert not report.ok
    assert [d.message for d in report.errors()] == ["name 'a' is declared both as terminal and nonterminal"]


def test_validate_undeclared_rule_lhs():
    g = Grammar(
        terminals=frozenset({term("a")}),
        nonterminals=frozenset({nonterm("S")}),
        rules=(Rule(nonterm("S"), (term("a"),)), Rule(nonterm("X"), (term("a"),)), Rule(term("a"), (term("a"),))),
        start=nonterm("S"),
    )
    report = validate(g)
    assert not report.ok
    assert [(d.code, d.subject) for d in report.errors()] == [("UNDECLARED_SYMBOL", "X"), ("UNDECLARED_SYMBOL", "a")]
    assert report.errors()[0].message == "rule lhs 'X' is not a declared nonterminal"


@pytest.mark.parametrize(
    "kind, name", [("token", "a"), ("terminal", ""), ("nonterminal", "A B"), ("nonterminal", "A\t")]
)
def test_symbol_rejects_a_bad_kind_or_name(kind, name):
    with pytest.raises(ValueError):
        Symbol(kind, name)


def test_validate_epsilon_rule():
    g = Grammar(
        terminals=frozenset({term("a")}),
        nonterminals=frozenset({nonterm("S")}),
        rules=(Rule(nonterm("S"), ()), Rule(nonterm("S"), (term("a"),))),
        start=nonterm("S"),
    )
    report = validate(g)
    assert not report.ok
    assert any(d.code == "EPSILON_RULE" for d in report.diagnostics)


def test_validate_start_missing():
    g = Grammar(
        terminals=frozenset({term("a")}),
        nonterminals=frozenset({nonterm("S")}),
        rules=(Rule(nonterm("S"), (term("a"),)),),
        start=nonterm("Q"),
    )
    report = validate(g)
    assert not report.ok
    assert any(d.code == "START_MISSING" for d in report.diagnostics)


def test_validate_warnings_do_not_fail(pseudo_trap):
    report = validate(pseudo_trap.base)
    assert report.ok
    assert {d.code for d in report.warnings()} == {"UNREACHABLE_NONTERMINAL"}


def test_validate_unproductive_warning():
    g = parse_grammar("start S\nS -> 'a' | A\nA -> A 'x'")
    report = validate(g)
    assert report.ok
    assert any(d.code == "UNPRODUCTIVE_NONTERMINAL" and d.subject == "A" for d in report.diagnostics)


def test_augment_g1(g1):
    assert g1.start_prime == nonterm("E'")
    assert len(g1.rules_dagger) == 8
    assert g1.rules_dagger[-1] == Rule(nonterm("E'"), (E,))


def test_augment_is_non_destructive(g1):
    base = g1.base
    again = augment(base)
    assert again.base == base
    assert again.rules_dagger[:-1] == base.rules


def test_augment_requires_validity():
    g = parse_grammar("start S\nS -> A\nA -> S\nS -> 'a'")
    with pytest.raises(InvalidGrammarError):
        augment(g)
    aug = augment(g, allow_unit_cycles=True)
    assert aug.start_prime == nonterm("S'")


def test_augment_fresh_name_collision():
    g = Grammar(
        terminals=frozenset({term("a")}),
        nonterminals=frozenset({nonterm("S"), nonterm("S'")}),
        rules=(Rule(nonterm("S"), (term("a"),)), Rule(nonterm("S'"), (nonterm("S"),))),
        start=nonterm("S"),
    )
    aug = augment(g)
    assert aug.start_prime == nonterm("S''")


def test_left_corner_g1_exact(g1):
    got = {(b.name, a.name) for b, a in left_corner(g1).pairs}
    assert got == {("E", "E"), ("T", "E"), ("T", "T"), ("F", "T"), ("E", "E'")}


def test_left_corner_terminal_initial_rules_contribute_nothing():
    g = augment(parse_grammar("start S\nS -> 'a' S | 'b'"))
    assert {(b.name, a.name) for b, a in left_corner(g).pairs} == {("S", "S'")}


def test_left_corner_single_rule():
    g = augment(parse_grammar("start S\nS -> 'a'"))
    assert {(b.name, a.name) for b, a in left_corner(g).pairs} == {("S", "S'")}


def test_left_corner_star_contains_reflexive_and_transitive(g1):
    star = left_corner_star(left_corner(g1), g1)
    assert (F, F) in star
    assert (F, E) in star
    assert (nonterm("E'"), nonterm("E'")) in star


def test_left_corner_star_empty_relation_is_reflexive():
    g = augment(parse_grammar("start S\nS -> 'a'"))
    star = left_corner_star(Relation(frozenset()), g)
    assert star.pairs == frozenset({(nonterm("S"), nonterm("S")), (nonterm("S'"), nonterm("S'"))})


def _brute_force_closure(pairs, universe):
    # Path-enumeration oracle: (b, a) iff b == a or a path b -> ... -> a in pairs.
    closed = {(n, n) for n in universe}
    edges = {}
    for b, a in pairs:
        edges.setdefault(b, set()).add(a)
    for start in universe:
        seen = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in edges.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        closed.update((start, a) for a in seen)
    return closed


def test_left_corner_star_matches_path_enumeration(g1):
    rel = left_corner(g1)
    star = left_corner_star(rel, g1)
    assert star.pairs == frozenset(_brute_force_closure(rel.pairs, g1.nonterminals))


def test_left_corner_star_idempotent(g1):
    star = left_corner_star(left_corner(g1), g1)
    assert left_corner_star(star, g1).pairs == star.pairs


def test_common_prefix_pairs_g1(g1):
    triples = {
        (repr(a), repr(b), tuple(s.name for s in prefix))
        for a, b, prefix in common_prefix_pairs(g1)
    }
    assert ("T -> T '*' F", "T -> T '**' F", ("T", "*")) not in triples
    assert ("T -> T '*' F", "T -> T '**' F", ("T",)) in triples
    assert ("E -> T '^' E", "E -> T", ("T",)) in triples


def test_common_prefix_pairs_distinct_first_terminals_empty():
    g = augment(parse_grammar("start S\nS -> 'a' S | 'b'"))
    assert common_prefix_pairs(g) == []
