"""Chart realizations of the recognizers: tabulated push-down automata.

A chart maps spans (j, i) to item sets.  An item in cell (j, i) stands for
every stack whose top item was pushed after token j and has recognized
the tokens up to i; the item below it is one that ends at j.  This is
Lang's tabulation of a push-down automaton, and it lets one engine run
the four clauses of any item kind (see `items`) as an agenda-driven
least fixpoint, closing one column i at a time.

The bare-prefix chart (`tabular_cp`) has a switch for top-down filtering.
Without it no cell depends on a cell with a smaller start, so the chart
can also be built row by row (`tabular_cp_unfiltered_by_rows`).  The
set-item chart (`tabular_elr`) has three variants.  merged joins, per cell
and prefix, the nonterminal sets of every clause instance, so each
subderivation is represented by at most one item; it filters with the
prediction set of each column, computed once.  predict_sets names that
same schedule.  naive fires once per context item and keeps the items
apart, as a redundancy baseline.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .grammar import AugmentedGrammar, Symbol, render_symbols
from .items import ELRItem, item_kind, render_delta, render_item


class ColumnIncompleteError(Exception):
    code = "COLUMN_INCOMPLETE"


@dataclass(frozen=True)
class Chart:
    n: int
    cells: dict
    completed_through: int

    def cell(self, j: int, i: int) -> frozenset:
        return self.cells.get((j, i), frozenset())


@dataclass(frozen=True)
class PredictSet:
    i: int
    nonterminals: frozenset[Symbol]


@dataclass(frozen=True)
class ProvenanceEntry:
    clause: int
    cell: tuple[int, int]
    item: object
    antecedent_cells: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ChartResult:
    chart: Chart
    accepted: bool
    items_added: int
    provenance: tuple[ProvenanceEntry, ...]


def _agenda(order: str, seed: int | None):
    """The pop function of a worklist deque; all orders reach the same fixpoint."""
    if order == "fifo":
        return deque.popleft
    if order == "lifo":
        return deque.pop
    if order != "random":
        raise ValueError(f"unknown agenda order {order!r}")
    rng = random.Random(0 if seed is None else seed)

    def pop_random(agenda: deque):
        agenda.rotate(-rng.randrange(len(agenda)))
        return agenda.popleft()

    return pop_random


def _result(kind, g: AugmentedGrammar, n: int, pairs, prov) -> ChartResult:
    """The chart of the distinct (cell, item) pairs; it accepts when an item
    spanning the input completes the start rule."""
    cells: dict[tuple[int, int], set] = {}
    for cell, item in pairs:
        cells.setdefault(cell, set()).add(item)
    sp = g.start_prime
    return ChartResult(
        chart=Chart(n=n, cells={cell: frozenset(items) for cell, items in cells.items()}, completed_through=n),
        accepted=any(sp in kind.reducible(item) for item in cells.get((0, n), ())),
        items_added=sum(len(items) for items in cells.values()),
        provenance=tuple(prov),
    )


def _column_chart(g, tokens, algo, contexts, join, agenda_order, seed) -> ChartResult:
    """The chart of one item kind, closed column by column.

    Column i holds its items as [cell, item] records.  Clauses 1 and 2
    over column i - 1 seed it, and an agenda of its own records closes it:
    a record in cell (j, i) fires clauses 3 and 4 against the items of
    column j.  Validation rejects epsilon rules, so j < i for every record
    that completes a rule, and column j is already closed.

    `contexts` says what filters clauses 1 and 3 at a column k: "each"
    fires once per item of k with its own filter, "union" once with the
    union of their filters, and None fires unfiltered.
    With `join`, a cell keeps one item per prefix and merges into it the
    nonterminal sets of later set items.
    """
    kind = item_kind(algo, g)
    allowed, start, advance, reducible = kind.allowed, kind.start, kind.advance, kind.reducible
    toks = g.tokens_to_symbols(tokens)
    n = len(toks)
    pop = _agenda(agenda_order, seed)
    columns: list[list] = []
    cached: dict[int, list] = {}
    prov: list[ProvenanceEntry] = []

    def filters(k: int):
        """(allowed, antecedent cells) pairs for clauses 1 and 3 at column k."""
        if contexts is None:
            return ((g.nonterminals, ()),)
        if k not in cached:
            col = columns[k]
            if contexts == "each":
                cached[k] = [(allowed(item), (cell,)) for cell, item in col]
            else:
                union = frozenset().union(*(allowed(item) for _, item in col))
                cached[k] = [(union, tuple(dict.fromkeys(cell for cell, _ in col)))]
        return cached[k]

    for i in range(n + 1):
        col: list = []
        columns.append(col)
        found: dict = {}
        agenda: deque = deque()

        def add(j, item, clause, antecedents):
            key = (j, item.alpha) if join else (j, item)
            rec = found.get(key)
            if rec is None:
                rec = found[key] = [(j, i), item]
                col.append(rec)
            else:
                if not join:
                    return
                item = kind.join(rec[1], item)
                if item is None:
                    return
                rec[1] = item
            prov.append(ProvenanceEntry(clause, rec[0], item, antecedents))
            agenda.append(rec)

        if i == 0:
            add(0, kind.init, 0, ())
        else:
            a = toks[i - 1]
            for ok, antecedents in filters(i - 1):
                for item in start(a, ok):
                    add(i - 1, item, 1, antecedents)
            for cell, item in columns[i - 1]:
                nxt = advance(item, a)
                if nxt is not None:
                    add(cell[0], nxt, 2, (cell,))
        while agenda:
            cell, item = pop(agenda)
            completes = reducible(item)
            if not completes:
                continue
            j = cell[0]
            for ok, antecedents in filters(j):
                for a_lhs in completes:
                    for nxt in start(a_lhs, ok):
                        add(j, nxt, 3, (cell,) + antecedents)
            for ctx_cell, ctx in columns[j]:
                for a_lhs in completes:
                    nxt = advance(ctx, a_lhs)
                    if nxt is not None:
                        add(ctx_cell[0], nxt, 4, (cell, ctx_cell))

    return _result(kind, g, n, (rec for col in columns for rec in col), prov)


def tabular_cp(
    g: AugmentedGrammar,
    tokens,
    td_filter: bool = True,
    agenda_order: str = "fifo",
    seed: int | None = None,
) -> ChartResult:
    """Least fixpoint of the bare-prefix clauses, seeded with [->] at (0,0).

    The filter of a column is the union of its items' filters.  With
    td_filter off, scanning needs no antecedent and reductions skip the
    left-corner check, which makes every row computable independently of
    the rows above it.
    """
    return _column_chart(g, tokens, "cp", "union" if td_filter else None, False, agenda_order, seed)


def tabular_cp_unfiltered_by_rows(g: AugmentedGrammar, tokens) -> ChartResult:
    """Unfiltered chart computed one row at a time, highest start first.

    Without top-down filtering no cell depends on a cell with a smaller
    start, so each row's fixpoint only ever reads rows at or above its own
    index; the result must equal the ordinary agenda computation.
    """
    kind = item_kind("cp", g)
    start, advance, reducible = kind.start, kind.advance, kind.reducible
    everything = g.nonterminals
    toks = g.tokens_to_symbols(tokens)
    n = len(toks)
    rows: dict[int, list] = {}
    prov: list[ProvenanceEntry] = []

    for h in range(n, -1, -1):
        row: list = []  # (cell, item, reducible) records of the cells (h, i)
        found: set = set()
        worklist: deque = deque()

        def add(i, item, clause, antecedents):
            if (i, item) in found:
                return
            found.add((i, item))
            rec = ((h, i), item, reducible(item))
            row.append(rec)
            prov.append(ProvenanceEntry(clause, rec[0], item, antecedents))
            worklist.append(rec)

        if h == 0:
            add(0, kind.init, 0, ())
        if h < n:
            for item in start(toks[h], everything):
                add(h + 1, item, 1, ())
        while worklist:
            cell, item, completes = worklist.popleft()
            i = cell[1]
            if i < n:
                nxt = advance(item, toks[i])
                if nxt is not None:
                    add(i + 1, nxt, 2, (cell,))
            for a_lhs in completes:
                for nxt in start(a_lhs, everything):
                    add(i, nxt, 3, (cell,))
                # As the reduction: the only context in its own row is the seed.
                nxt = advance(kind.init, a_lhs) if h == 0 else None
                if nxt is not None:
                    add(i, nxt, 4, (cell, (0, 0)))
            # As the context: the reductions that start where it ends, in a finished row.
            for red_cell, _, red_completes in rows[i] if i > h else ():
                for a_lhs in red_completes:
                    nxt = advance(item, a_lhs)
                    if nxt is not None:
                        add(red_cell[1], nxt, 4, (red_cell, cell))
        rows[h] = row

    return _result(kind, g, n, ((cell, item) for row in rows.values() for cell, item, _ in row), prov)


ELR_VARIANTS = ("merged", "predict_sets", "naive")

_ELR_SCHEDULES = {"merged": ("union", True), "predict_sets": ("union", True), "naive": ("each", False)}


def tabular_elr(
    g: AugmentedGrammar,
    tokens,
    variant: str = "merged",
    agenda_order: str = "fifo",
    seed: int | None = None,
) -> ChartResult:
    """Column-ordered set-item chart.

    merged: nonterminal sets are merged over all antecedents per (cell,
    prefix), so a cell never holds two items with the same prefix.  The
    filtered scan and reduction clauses intersect with the prediction set
    of their column, materialized once the column is closed.
    predict_sets: another name for merged, kept for callers of it.
    naive: clause instances fire once per antecedent item and cells keep
    the resulting items separate, possibly with overlapping sets.
    """
    if variant not in _ELR_SCHEDULES:
        raise ValueError(f"unknown variant {variant!r}")
    contexts, join = _ELR_SCHEDULES[variant]
    return _column_chart(g, tokens, "elr", contexts, join, agenda_order, seed)


def predict_set(chart: Chart, g: AugmentedGrammar, i: int) -> PredictSet:
    """Left corners of the nonterminals expected right after position i."""
    if i > chart.completed_through:
        raise ColumnIncompleteError(f"column {i} is not complete (chart built through {chart.completed_through})")
    elr = item_kind("elr", g)
    out: set[Symbol] = set()
    for (j, k), items in chart.cells.items():
        if k != i:
            continue
        for item in items:
            if not isinstance(item, ELRItem):
                raise TypeError(f"prediction sets are defined for set-item charts, not {type(item).__name__}")
            out |= elr.allowed(item)
    return PredictSet(i=i, nonterminals=frozenset(out))


def duplicate_alpha_cells(chart: Chart) -> int:
    """Count of (cell, prefix) groups holding two or more items."""
    count = 0
    for items in chart.cells.values():
        per_alpha: dict[tuple, int] = {}
        for item in items:
            per_alpha[item.alpha] = per_alpha.get(item.alpha, 0) + 1
        count += sum(1 for v in per_alpha.values() if v >= 2)
    return count


def _item_sort_key(item):
    alpha_text = render_symbols(item.alpha)
    delta_text = render_delta(item.delta)[1:-1] if isinstance(item, ELRItem) else ""
    return (len(item.alpha), alpha_text, delta_text)


def render_chart_dump(result: ChartResult, algo_name: str) -> str:
    """Bit-exact text dump: header, then one line per nonempty cell."""
    lines = [
        f"n={result.chart.n} algo={algo_name} accepted={'true' if result.accepted else 'false'}"
    ]
    for cell in sorted(result.chart.cells):
        items = result.chart.cells[cell]
        if not items:
            continue
        rendered = ", ".join(render_item(i) for i in sorted(items, key=_item_sort_key))
        lines.append(f"T[{cell[0]},{cell[1]}]: {rendered}")
    return "\n".join(lines) + "\n"
