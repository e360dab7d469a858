import pytest

from cfrec.grammar import augment, nonterm, parse_grammar, term
from cfrec import BudgetExhaustedError, KindMismatchError
from cfrec.items import CPItem, ELRItem, render_item
from cfrec.oracle import derives
from pathlib import Path

from cfrec.tabular import (
    Chart,
    ColumnIncompleteError,
    duplicate_alpha_cells,
    predict_set,
    render_chart_dump,
    tabular_cp,
    tabular_cp_unfiltered_by_rows,
    tabular_elr,
)

from conftest import AMB_GRAMMAR, load_grammar

GOLDEN = Path(__file__).resolve().parent / "golden"

E, T, F = nonterm("E"), nonterm("T"), nonterm("F")
BAD_INPUT = ["a", "+", "a", "^", "a"]


def _cp_cell(res, j, i):
    return {tuple(s.name for s in it.alpha) for it in res.chart.cells.get((j, i), frozenset())}


def test_filtered_cp_chart_matches_the_worked_table(g1):
    res = tabular_cp(g1, BAD_INPUT, td_filter=True)
    assert not res.accepted
    expected = {
        (0, 0): {()},
        (0, 1): {("a",), ("F",), ("T",), ("E",)},
        (0, 2): {("E", "+")},
        (0, 3): {("E", "+", "T"), ("E",)},
        (2, 3): {("a",), ("F",), ("T",)},
        (2, 4): {("T", "^")},
        (2, 5): {("T", "^", "E")},
        (4, 5): {("a",), ("F",), ("T",), ("E",)},
    }
    got = {cell: _cp_cell(res, *cell) for cell in res.chart.cells}
    assert got == expected


def test_filtered_cp_dump_equals_golden(g1):
    res = tabular_cp(g1, BAD_INPUT, td_filter=True)
    assert render_chart_dump(res, "cp") == (GOLDEN / "expr_bad_input_cp_chart.txt").read_text()


def test_filtered_cp_accepts_valid_input(g1):
    res = tabular_cp(g1, ["a", "*", "a"], td_filter=True)
    assert res.accepted
    assert CPItem((E,)) in res.chart.cell(0, 3)
    assert derives(g1, ["a", "*", "a"])


def test_unfiltered_cells_are_supersets(g1):
    filtered = tabular_cp(g1, BAD_INPUT, td_filter=True)
    unfiltered = tabular_cp(g1, BAD_INPUT, td_filter=False)
    assert not unfiltered.accepted
    for cell, items in filtered.chart.cells.items():
        assert items <= unfiltered.chart.cells.get(cell, frozenset())


def test_unfiltered_acceptance_matches_oracle(g1):
    for tokens in (["a"], ["a", "*", "a"], ["a", "+", "a", "^", "a"], ["a", "*"], ["a", "a"]):
        assert tabular_cp(g1, tokens, td_filter=False).accepted == derives(g1, tokens)


def test_row_recomputation_reproduces_unfiltered_chart(g1, overlap):
    amb = augment(parse_grammar(AMB_GRAMMAR))
    # Long inputs make each row read many completions from finished rows.
    g1_ops = ("*", "^", "**", "^") * 2 + ("*", "+", "**", "+") * 2
    g1_long = ["a"] + [tok for op in g1_ops for tok in (op, "a")]
    cases = [
        (g1, BAD_INPUT, False),
        (g1, ["a", "*", "a"], True),
        (overlap, ["m", "a"], True),
        (g1, g1_long, True),
        (amb, "a a + a a a a + a a a + a a a a".split(), True),
        (amb, "a a a + ".split() * 7 + ["a"] * 4, True),
        (amb, "a + a a ".split() * 12, True),
        (amb, "a a + a ".split() * 6 + ["+"], False),
    ]
    assert len(g1_long) == 33 and [len(t) for _, t, _ in cases[4:]] == [16, 32, 48, 25]
    for g, tokens, accepted in cases:
        standard = tabular_cp(g, tokens, td_filter=False)
        by_rows = tabular_cp_unfiltered_by_rows(g, tokens)
        assert by_rows.chart.cells == standard.chart.cells
        assert by_rows.accepted == standard.accepted == accepted
        assert by_rows.items_added == standard.items_added


def test_merged_elr_chart_on_valid_input(g1):
    res = tabular_elr(g1, ["a", "*", "a"], variant="merged")
    assert res.accepted
    sp = g1.start_prime
    assert ELRItem(frozenset({F}), (term("a"),)) in res.chart.cell(0, 1)
    assert ELRItem(frozenset({T, E}), (T,)) in res.chart.cell(0, 1)
    # the finished span merges the continuation and completion readings of E
    assert ELRItem(frozenset({E, sp}), (E,)) in res.chart.cell(0, 3)


def test_merged_elr_rejects_and_projects_into_cp(g1):
    merged = tabular_elr(g1, BAD_INPUT, variant="merged")
    cp_res = tabular_cp(g1, BAD_INPUT, td_filter=True)
    assert not merged.accepted
    for cell, items in merged.chart.cells.items():
        cp_alphas = {it.alpha for it in cp_res.chart.cells.get(cell, frozenset())}
        for it in items:
            assert it.alpha in cp_alphas


def test_merged_cells_never_repeat_a_prefix(g1, overlap):
    for g, tokens in ((g1, ["a", "*", "a"]), (g1, BAD_INPUT), (overlap, ["m", "a"])):
        for variant in ("merged", "predict_sets"):
            res = tabular_elr(g, tokens, variant=variant)
            for items in res.chart.cells.values():
                alphas = [it.alpha for it in items]
                assert len(alphas) == len(set(alphas))


def test_predict_variant_equals_merged(g1, overlap):
    for g, tokens in ((g1, ["a", "*", "a"]), (g1, BAD_INPUT), (overlap, ["m", "a"])):
        merged = tabular_elr(g, tokens, variant="merged")
        pred = tabular_elr(g, tokens, variant="predict_sets")
        assert merged.chart.cells == pred.chart.cells
        assert merged.accepted == pred.accepted


def test_naive_variant_duplicates_overlapping_sets(overlap):
    naive = tabular_elr(overlap, ["m", "a"], variant="naive")
    merged = tabular_elr(overlap, ["m", "a"], variant="merged")
    u, v, w = nonterm("U"), nonterm("V"), nonterm("W")
    cell = naive.chart.cell(1, 2)
    assert ELRItem(frozenset({u, w}), (term("a"),)) in cell
    assert ELRItem(frozenset({v, w}), (term("a"),)) in cell
    assert duplicate_alpha_cells(naive.chart) >= 1
    assert naive.items_added > merged.items_added
    assert naive.accepted == merged.accepted


def test_predict_set_of_empty_input_chart(g1):
    res = tabular_elr(g1, [], variant="merged")
    assert not res.accepted
    s0 = predict_set(res.chart, g1, 0)
    assert s0.nonterminals == frozenset({E, T, F})


def test_predict_set_empty_column(g1):
    res = tabular_elr(g1, ["a"], variant="merged")
    # only terminals follow position 1 in any live rule, so nothing is predicted
    assert predict_set(res.chart, g1, 1).nonterminals == frozenset()


def test_predict_set_column_incomplete(g1):
    res = tabular_elr(g1, ["a"], variant="merged")
    partial = Chart(n=1, cells=res.chart.cells, completed_through=0)
    with pytest.raises(ColumnIncompleteError):
        predict_set(partial, g1, 1)
    assert predict_set(partial, g1, 0).nonterminals == frozenset({E, T, F})
    with pytest.raises(ValueError, match="column -1"):
        predict_set(partial, g1, -1)
    # Past n the column does not exist at all, complete or not.
    for chart in (partial, res.chart):
        with pytest.raises(ValueError, match="column 2 is outside 0..1"):
            predict_set(chart, g1, 2)


def test_agenda_orders_reach_the_same_fixpoint(g1):
    base = render_chart_dump(tabular_cp(g1, BAD_INPUT), "cp")
    for order, seed in (("lifo", None), ("random", 1), ("random", 2)):
        res = tabular_cp(g1, BAD_INPUT, agenda_order=order, seed=seed)
        assert render_chart_dump(res, "cp") == base
    base = render_chart_dump(tabular_elr(g1, ["a", "*", "a"]), "elr")
    for order, seed in (("lifo", None), ("random", 3), ("random", 4)):
        res = tabular_elr(g1, ["a", "*", "a"], agenda_order=order, seed=seed)
        assert render_chart_dump(res, "elr") == base


def test_tabular_acceptance_matches_automata(g1):
    from cfrec.automata import recognize

    for tokens in (["a"], ["a", "*", "a"], BAD_INPUT, ["a", "^", "a", "+", "a"], []):
        assert tabular_cp(g1, tokens).accepted == recognize("cp", g1, tokens).accepted
        assert tabular_elr(g1, tokens).accepted == recognize("elr", g1, tokens).accepted


def test_clause_4_fires_context_first_then_left_hand_side():
    # The last 'a' completes S and A at once.  Column 2 holds the context
    # [-> A] at (1, 2) before [-> A A] at (0, 2), so A's step from (1, 2)
    # fires before S's step from (0, 2), though S comes first.
    g = augment(parse_grammar("start B\nB -> A A S\nS -> 'a'\nA -> 'b' | 'a'\n"))
    res = tabular_cp(g, ["a", "a", "a"], td_filter=False)
    assert [e.cell for e in res.provenance if e.clause == 4] == [(0, 2), (1, 3), (0, 3)]


def test_chart_builders_reject_unknown_variants_and_orders(g1):
    with pytest.raises(ValueError, match="unknown variant 'fast'"):
        tabular_elr(g1, ["a"], variant="fast")
    with pytest.raises(ValueError, match="unknown agenda order 'stack'"):
        tabular_cp(g1, ["a"], agenda_order="stack")


def test_items_added_counts_distinct_items(g1):
    res = tabular_cp(g1, ["a", "*", "a"])
    assert res.items_added == sum(len(v) for v in res.chart.cells.values())


def test_chart_cells_are_read_only(g1):
    res = tabular_cp(g1, ["a"])
    with pytest.raises(TypeError):
        res.chart.cells[(0, 0)] = frozenset()
    assert res.accepted and res.chart.cell(0, 0)


def test_predict_set_rejects_bare_prefix_charts(g1):
    res = tabular_cp(g1, ["a"])
    with pytest.raises(TypeError):
        predict_set(res.chart, g1, 1)


def test_predict_set_rejects_set_items_off_the_rule_prefixes(g1):
    a = term("a")
    chart = Chart(n=2, cells={(0, 2): frozenset({ELRItem(frozenset({F}), (a, a))})}, completed_through=2)
    with pytest.raises(TypeError) as err:
        predict_set(chart, g1, 2)
    assert isinstance(err.value, KindMismatchError)


CHART_BUILDERS = {
    "cp": lambda g, t, **kw: tabular_cp(g, t, **kw),
    "cp-nofilter": lambda g, t, **kw: tabular_cp(g, t, td_filter=False, **kw),
    "cp-rows": lambda g, t, **kw: tabular_cp_unfiltered_by_rows(g, t, **kw),
    "elr": lambda g, t, **kw: tabular_elr(g, t, variant="merged", **kw),
    "elr-naive": lambda g, t, **kw: tabular_elr(g, t, variant="naive", **kw),
}


@pytest.mark.parametrize("builder", sorted(CHART_BUILDERS))
def test_provenance_records_every_item(g1, builder):
    res = CHART_BUILDERS[builder](g1, ["a", "*", "a"])
    entries = list(res.provenance)
    assert len(res.provenance) == len(entries)
    recorded = {(p.cell, p.item) for p in entries}
    for cell, items in res.chart.cells.items():
        for item in items:
            assert (cell, item) in recorded


PROVENANCE_BUILDERS = {
    "tabular_cp fifo": lambda g, t: tabular_cp(g, t),
    "tabular_cp lifo": lambda g, t: tabular_cp(g, t, agenda_order="lifo"),
    "tabular_cp random": lambda g, t: tabular_cp(g, t, agenda_order="random", seed=1),
    "tabular_cp unfiltered": lambda g, t: tabular_cp(g, t, td_filter=False),
    "tabular_cp_unfiltered_by_rows": tabular_cp_unfiltered_by_rows,
    "tabular_elr merged fifo": lambda g, t: tabular_elr(g, t),
    "tabular_elr merged lifo": lambda g, t: tabular_elr(g, t, agenda_order="lifo"),
    "tabular_elr merged random": lambda g, t: tabular_elr(g, t, agenda_order="random", seed=1),
    "tabular_elr naive fifo": lambda g, t: tabular_elr(g, t, variant="naive"),
    "tabular_elr naive random": lambda g, t: tabular_elr(g, t, variant="naive", agenda_order="random", seed=1),
}
# Inline grammars: the highly ambiguous one, and one where the prefix
# 'a' 'a' completes both S and A, so clause 4 interleaves contexts and
# left-hand sides.
INLINE_GRAMMARS = {
    "amb": AMB_GRAMMAR,
    "two_lhs": "start S\nS -> 'a' 'a' | A\nA -> 'a' 'a' | 'a' | 'a' A | 'a' S S\n",
}
PROVENANCE_INPUTS = (
    ("g1.cfg", "a * a"),
    ("g1.cfg", "a + a ^"),
    ("overlap.cfg", "m a q"),
    ("amb", "a a + a"),
    ("two_lhs", "a a a a"),
)


def render_provenance() -> str:
    """Every provenance entry, in firing order, of each builder and agenda
    order on a few short inputs: one line of clause, cell and item each."""
    lines = []
    for grammar, text in PROVENANCE_INPUTS:
        g = augment(parse_grammar(INLINE_GRAMMARS[grammar])) if grammar in INLINE_GRAMMARS else load_grammar(grammar)
        for name, build in PROVENANCE_BUILDERS.items():
            res = build(g, text.split())
            lines.append(f"== {grammar}: {text} | {name} accepted={'true' if res.accepted else 'false'}")
            lines.extend(f"{e.clause} T[{e.cell[0]},{e.cell[1]}] {render_item(e.item)}" for e in res.provenance)
    return "\n".join(lines) + "\n"


def test_provenance_order_equals_golden():
    # Counts alone miss a reordering: this pins every entry and its place.
    assert render_provenance() == (GOLDEN / "chart_provenance.txt").read_text()


@pytest.mark.parametrize("builder", sorted(CHART_BUILDERS))
def test_chart_item_budget(g1, builder):
    build = CHART_BUILDERS[builder]
    tokens = ["a", "*", "a", "+", "a"]
    full = build(g1, tokens)
    assert build(g1, tokens, budget=full.items_added) == full
    with pytest.raises(BudgetExhaustedError):
        build(g1, tokens, budget=full.items_added - 1)


def test_empty_input_charts(g1):
    cp_res = tabular_cp(g1, [])
    elr_res = tabular_elr(g1, [], variant="merged")
    assert not cp_res.accepted and not elr_res.accepted
    assert cp_res.items_added == 1 and elr_res.items_added == 1
