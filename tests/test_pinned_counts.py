"""Work counts of every engine on two fixed inputs, pinned to exact values.

These are the counts the benchmark's per-layer report reads: items added,
provenance entries and firings per clause for the six chart builders,
and configurations explored and choice points for the five stack
recognizers.  On `overlap.cfg` one item completes several left-hand
sides at once ('m' completes M and Mp, 'a' completes U, V and W), so
its counts pin the order in which such reductions fire, under every
agenda order of the merged set-item chart.  A change to an engine that moves any of them fails here
rather than only in a traced benchmark run.
"""

import pytest

from cfrec import augment, parse_grammar, recognize, tabular_cp, tabular_cp_unfiltered_by_rows, tabular_elr

from conftest import AMB_GRAMMAR, load_grammar

G1_INPUT = "a ^ a + a ** a * a * a * a ** a * a * a + a * a ** a ** a + a * a + a".split()
AMB_INPUT = "a + a + a + a + a + a a a a + a + a + a + a + a a a a + a + a a a a a a".split()

BUILDERS = {
    "tabular_cp.filtered": lambda g, t: tabular_cp(g, t, td_filter=True),
    "tabular_cp.unfiltered": lambda g, t: tabular_cp(g, t, td_filter=False),
    "tabular_cp_unfiltered_by_rows": tabular_cp_unfiltered_by_rows,
    "tabular_elr.merged": lambda g, t: tabular_elr(g, t, variant="merged"),
    "tabular_elr.predict_sets": lambda g, t: tabular_elr(g, t, variant="predict_sets"),
    "tabular_elr.naive": lambda g, t: tabular_elr(g, t, variant="naive"),
}

# builder: (items_added, provenance entries, clause 1, 2, 3 and 4 entries)
G1_CHARTS = {
    "tabular_cp.filtered": (151, 151, 17, 20, 56, 57),
    "tabular_cp.unfiltered": (469, 469, 17, 78, 222, 151),
    "tabular_cp_unfiltered_by_rows": (469, 469, 17, 78, 222, 151),
    "tabular_elr.merged": (151, 168, 17, 20, 56, 74),
    "tabular_elr.predict_sets": (151, 168, 17, 20, 56, 74),
    "tabular_elr.naive": (168, 168, 17, 20, 56, 74),
}
AMB_CHARTS = {
    "tabular_cp.filtered": (922, 922, 24, 105, 300, 492),
    "tabular_cp.unfiltered": (922, 922, 24, 105, 300, 492),
    "tabular_cp_unfiltered_by_rows": (922, 922, 24, 105, 300, 492),
    "tabular_elr.merged": (922, 946, 24, 105, 300, 516),
    "tabular_elr.predict_sets": (922, 946, 24, 105, 300, 516),
    "tabular_elr.naive": (946, 946, 24, 105, 300, 516),
}
# input: builder: (accepted, items_added, provenance entries, clause 1, 2, 3 and 4 entries)
OVERLAP_CHARTS = {
    "m a": {
        "tabular_cp.filtered": (True, 9, 9, 2, 0, 3, 3),
        "tabular_cp.unfiltered": (True, 9, 9, 2, 0, 4, 2),
        "tabular_cp_unfiltered_by_rows": (True, 9, 9, 2, 0, 4, 2),
        "tabular_elr.merged": (True, 9, 9, 2, 0, 3, 3),
        "tabular_elr.merged.lifo": (True, 9, 9, 2, 0, 3, 3),
        "tabular_elr.merged.random": (True, 9, 9, 2, 0, 3, 3),
        "tabular_elr.predict_sets": (True, 9, 9, 2, 0, 3, 3),
        "tabular_elr.naive": (True, 11, 11, 3, 0, 4, 3),
    },
    "m a q": {
        "tabular_cp.filtered": (True, 12, 12, 2, 1, 3, 5),
        "tabular_cp.unfiltered": (True, 12, 12, 2, 1, 5, 3),
        "tabular_cp_unfiltered_by_rows": (True, 12, 12, 2, 1, 5, 3),
        "tabular_elr.merged": (True, 12, 12, 2, 1, 3, 5),
        "tabular_elr.merged.lifo": (True, 12, 12, 2, 1, 3, 5),
        "tabular_elr.merged.random": (True, 12, 12, 2, 1, 3, 5),
        "tabular_elr.predict_sets": (True, 12, 12, 2, 1, 3, 5),
        "tabular_elr.naive": (True, 14, 14, 3, 1, 4, 5),
    },
    "m a r": {
        "tabular_cp.filtered": (True, 12, 12, 2, 1, 3, 5),
        "tabular_cp.unfiltered": (True, 12, 12, 2, 1, 5, 3),
        "tabular_cp_unfiltered_by_rows": (True, 12, 12, 2, 1, 5, 3),
        "tabular_elr.merged": (True, 12, 12, 2, 1, 3, 5),
        "tabular_elr.merged.lifo": (True, 12, 12, 2, 1, 3, 5),
        "tabular_elr.merged.random": (True, 12, 12, 2, 1, 3, 5),
        "tabular_elr.predict_sets": (True, 12, 12, 2, 1, 3, 5),
        "tabular_elr.naive": (True, 14, 14, 3, 1, 4, 5),
    },
    "m a a": {
        "tabular_cp.filtered": (False, 9, 9, 2, 0, 3, 3),
        "tabular_cp.unfiltered": (False, 11, 11, 3, 0, 5, 2),
        "tabular_cp_unfiltered_by_rows": (False, 11, 11, 3, 0, 5, 2),
        "tabular_elr.merged": (False, 9, 9, 2, 0, 3, 3),
        "tabular_elr.merged.lifo": (False, 9, 9, 2, 0, 3, 3),
        "tabular_elr.merged.random": (False, 9, 9, 2, 0, 3, 3),
        "tabular_elr.predict_sets": (False, 9, 9, 2, 0, 3, 3),
        "tabular_elr.naive": (False, 11, 11, 3, 0, 4, 3),
    },
}
OVERLAP_BUILDERS = {
    **BUILDERS,
    "tabular_elr.merged.lifo": lambda g, t: tabular_elr(g, t, agenda_order="lifo"),
    "tabular_elr.merged.random": lambda g, t: tabular_elr(g, t, agenda_order="random", seed=5),
}
# algorithm: (configurations explored, choice points)
G1_STACKS = {"lc": (260, 80), "plr": (226, 80), "elr": (224, 78), "pseudo_elr": (224, 78), "cp": (413, 127)}


def _counts(res):
    per_clause = [sum(1 for e in res.provenance if e.clause == c) for c in (1, 2, 3, 4)]
    return (res.items_added, len(res.provenance), *per_clause)


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_chart_counts_on_g1(builder):
    res = BUILDERS[builder](load_grammar("g1.cfg"), G1_INPUT)
    assert res.accepted
    assert _counts(res) == G1_CHARTS[builder]


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_chart_counts_on_the_ambiguous_grammar(builder):
    amb = augment(parse_grammar(AMB_GRAMMAR))
    res = BUILDERS[builder](amb, AMB_INPUT)
    assert res.accepted
    assert _counts(res) == AMB_CHARTS[builder]


@pytest.mark.parametrize("builder", sorted(OVERLAP_BUILDERS))
@pytest.mark.parametrize("text", sorted(OVERLAP_CHARTS))
def test_chart_counts_on_overlapping_reductions(text, builder):
    res = OVERLAP_BUILDERS[builder](load_grammar("overlap.cfg"), text.split())
    assert (res.accepted, *_counts(res)) == OVERLAP_CHARTS[text][builder]


@pytest.mark.parametrize("algo", sorted(G1_STACKS))
def test_stack_counts_on_g1(algo):
    res = recognize(algo, load_grammar("g1.cfg"), G1_INPUT)
    assert res.accepted and not res.budget_exhausted
    assert (res.configurations_explored, res.choice_points) == G1_STACKS[algo]
