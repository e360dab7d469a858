import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from cfrec import augment, derives, parse_grammar, sentences_up_to, viable_prefix
from cfrec.automata import explore
from cfrec.grammar import AugmentedGrammar, UnknownTokenError
from cfrec.random_grammars import random_validated_grammars
from cfrec.tabular import duplicate_alpha_cells, tabular_cp, tabular_cp_unfiltered_by_rows, tabular_elr

REPO = Path(__file__).resolve().parents[1]
GRAMMARS = REPO / "grammars"
GOLDEN = Path(__file__).resolve().parent / "golden"

SWEEP_SEED = 20260810
SWEEP_RANDOM_COUNT = 30
SWEEP_MAX_LEN = 6
AMB_GRAMMAR = "start S\nS -> S S | S '+' S | 'a'"

AUTOMATON_ALGOS = ("lc", "plr", "elr", "pseudo_elr", "cp")


def load_grammar(name: str) -> AugmentedGrammar:
    return augment(parse_grammar((GRAMMARS / name).read_text()))


def tokens_to_symbols(g: AugmentedGrammar, tokens) -> tuple:
    """Map token names to g's declared terminals by name, reading no compiled
    index; an unknown name raises `UnknownTokenError`."""
    by_name = {t.name: t for t in g.terminals}
    for t in tokens:
        if t not in by_name:
            raise UnknownTokenError(t)
    return tuple(by_name[t] for t in tokens)


@pytest.fixture(scope="session")
def g1() -> AugmentedGrammar:
    return load_grammar("g1.cfg")


@pytest.fixture(scope="session")
def overlap() -> AugmentedGrammar:
    return load_grammar("overlap.cfg")


@pytest.fixture(scope="session")
def pseudo_trap() -> AugmentedGrammar:
    return load_grammar("pseudo_trap.cfg")


def sweep_grammars() -> list[tuple[str, AugmentedGrammar]]:
    """The sweep corpus: the expression grammar, two crafted fixtures,
    thirty seeded random validated grammars and the highly ambiguous
    S -> S S | S '+' S | 'a'."""
    out = [
        ("g1", load_grammar("g1.cfg")),
        ("overlap", load_grammar("overlap.cfg")),
        ("pseudo_trap", load_grammar("pseudo_trap.cfg")),
    ]
    for k, g in enumerate(random_validated_grammars(SWEEP_SEED, SWEEP_RANDOM_COUNT)):
        out.append((f"rand{k:02d}", augment(g)))
    out.append(("amb", augment(parse_grammar(AMB_GRAMMAR))))
    return out


def all_inputs(g: AugmentedGrammar, max_len: int):
    names = sorted(t.name for t in g.terminals)
    for ln in range(max_len + 1):
        for combo in itertools.product(names, repeat=ln):
            yield combo


@dataclass
class SweepReport:
    grammar_names: list = field(default_factory=list)
    inputs_checked: int = 0
    agreement_mismatches: list = field(default_factory=list)
    uniqueness_violations: list = field(default_factory=list)
    variant_mismatches: list = field(default_factory=list)
    projection_violations: list = field(default_factory=list)
    naive_witnesses: list = field(default_factory=list)
    merge_projection_mismatches: list = field(default_factory=list)
    unfiltered_mismatches: list = field(default_factory=list)
    correct_prefix_violations: list = field(default_factory=list)
    chart_prefix_violations: list = field(default_factory=list)
    pseudo_coverage_violations: list = field(default_factory=list)
    budget_exhaustions: list = field(default_factory=list)
    elapsed: float = 0.0


def _check_one_input(report: SweepReport, name: str, g, tokens, accepted_set, viable):
    want = tokens in accepted_set
    verdicts = {}
    explorations = {}
    for algo in AUTOMATON_ALGOS:
        ex = explore(algo, g, tokens)
        explorations[algo] = ex
        verdicts[algo] = ex.accepted
        if ex.budget_exhausted:
            report.budget_exhaustions.append((name, tokens, algo))
    cp_res = tabular_cp(g, tokens, td_filter=True)
    merged = tabular_elr(g, tokens, variant="merged")
    pred = tabular_elr(g, tokens, variant="predict_sets")
    naive = tabular_elr(g, tokens, variant="naive")
    verdicts["tabular_cp"] = cp_res.accepted
    verdicts["tabular_elr"] = merged.accepted
    verdicts["derives"] = derives(g, tokens)
    for algo, got in verdicts.items():
        if got != want:
            report.agreement_mismatches.append((name, tokens, algo, got, want))

    # Correct-prefix property for the filtered stack algorithms.
    for algo in ("lc", "plr", "elr"):
        for cfg in explorations[algo].visited:
            if not viable[tokens[: cfg.pos]]:
                report.correct_prefix_violations.append((name, tokens, algo, cfg.pos))
                break

    # Every full-filter run has a simplified-filter counterpart with the
    # same consumed count and the same stack prefix strings.
    pseudo_shadow = {
        (c.pos, tuple(i.alpha for i in c.stack)) for c in explorations["pseudo_elr"].visited
    }
    for c in explorations["elr"].visited:
        if (c.pos, tuple(i.alpha for i in c.stack)) not in pseudo_shadow:
            report.pseudo_coverage_violations.append((name, tokens))
            break

    # Per-cell uniqueness and variant equality of the set-item charts.
    for label, res in (("merged", merged), ("predict_sets", pred)):
        for cell, items in res.chart.cells.items():
            alphas = [it.alpha for it in items]
            if len(alphas) != len(set(alphas)):
                report.uniqueness_violations.append((name, tokens, label, cell))
    if merged.chart.cells != pred.chart.cells:
        report.variant_mismatches.append((name, tokens))

    # Dropping the nonterminal sets must land inside the filtered chart.
    for cell, items in merged.chart.cells.items():
        cp_cell = {it.alpha for it in cp_res.chart.cells.get(cell, frozenset())}
        for it in items:
            if it.alpha not in cp_cell:
                report.projection_violations.append((name, tokens, cell, it.alpha))

    # A nonempty merged cell ending at i >= 1 certifies a viable prefix.
    for (j, i) in merged.chart.cells:
        if i >= 1 and not viable[tokens[:i]]:
            report.chart_prefix_violations.append((name, tokens, (j, i)))

    if duplicate_alpha_cells(naive.chart) > 0 and naive.items_added > merged.items_added:
        report.naive_witnesses.append((name, tokens))

    # The merged chart must be exactly the per-antecedent chart with, per
    # cell and prefix, the nonterminal sets unioned.
    cells = set(merged.chart.cells) | set(naive.chart.cells)
    for cell in cells:
        collapsed = {}
        for it in naive.chart.cells.get(cell, frozenset()):
            collapsed[it.alpha] = collapsed.get(it.alpha, frozenset()) | it.delta
        got = {it.alpha: it.delta for it in merged.chart.cells.get(cell, frozenset())}
        if collapsed != got:
            report.merge_projection_mismatches.append((name, tokens, cell))

    # The unfiltered bare-prefix chart may only add cells, never change the
    # verdict, and its row order builds the same chart (sampled; it is not
    # part of the per-input agreement set).
    if report.inputs_checked % 25 == 0:
        unf = tabular_cp(g, tokens, td_filter=False)
        if unf.accepted != want:
            report.unfiltered_mismatches.append((name, tokens))
        rows = tabular_cp_unfiltered_by_rows(g, tokens)
        if (rows.chart.cells, rows.accepted, rows.items_added) != (unf.chart.cells, unf.accepted, unf.items_added):
            report.unfiltered_mismatches.append((name, tokens, "by_rows"))
        for cell, items in cp_res.chart.cells.items():
            if not items <= unf.chart.cells.get(cell, frozenset()):
                report.unfiltered_mismatches.append((name, tokens, cell))


@pytest.fixture(scope="session")
def sweep() -> SweepReport:
    """One exhaustive pass over the corpus; criteria tests read the results."""
    report = SweepReport()
    t0 = time.perf_counter()
    for name, g in sweep_grammars():
        report.grammar_names.append(name)
        accepted_set = sentences_up_to(g, SWEEP_MAX_LEN)
        inputs = list(all_inputs(g, SWEEP_MAX_LEN))
        viable = {}
        for tokens in inputs:
            viable[tokens] = viable_prefix(g, tokens)
        assert {s for s in accepted_set} <= {t for t in inputs}
        for tokens in inputs:
            report.inputs_checked += 1
            _check_one_input(report, name, g, tokens, accepted_set, viable)
    report.elapsed = time.perf_counter() - t0
    return report
