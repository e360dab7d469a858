"""Chart realizations of the recognizers: tabulated push-down automata.

A chart maps spans (j, i) to item sets.  An item in cell (j, i) stands for
every stack whose top item was pushed after token j and has recognized
the tokens up to i; the item below it is one that ends at j.  This is
Lang's tabulation of a push-down automaton, and it lets one engine run
the four clauses of any item kind (see `items`) as an agenda-driven
least fixpoint.

The engine closes the chart one position at a time, in one of two
visiting orders of that fixpoint: column by column, left to right, or
row by row, highest start first.  The bare-prefix chart (`tabular_cp`)
has a switch for top-down filtering.  A filter at j depends on the rows
above j, which the row order has not yet built; without it no cell
depends on a cell with a smaller start, so the unfiltered chart can
also be built in row order (`tabular_cp_unfiltered_by_rows`).  The set-item chart (`tabular_elr`)
has three variants.  merged joins, per cell and prefix, the nonterminal
sets of every clause instance, so each subderivation is represented by
at most one item; it filters with the prediction set of each column,
computed once.  predict_sets names that same schedule.  naive fires once
per context item and keeps the items apart, as a redundancy baseline.

Every clause is one step on a symbol X recognized from position j up to
i: X starts the rules it begins under the filters of j (clause 1 for a
token, 3 for a left-hand side) and advances the items ending at j
(clause 2 or 4).  Each start j keeps the (i, A) completions recognized
from it, in order, so each is recognized once; in row order the rows
below j read them as contexts.  A step's advance list is built on first
use per j and symbols, and a token's scan reads the same cache as the
reductions.

The engine runs on item codes (see `items`).  Public items are built
only for the result: `_result` decodes the cells, each distinct set of
codes once, into a read-only mapping, and provenance is kept as (clause,
cell, code) firings and decoded on first read.  Every builder stops with
`BudgetExhaustedError` before its chart would hold more than `budget`
distinct items.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .grammar import AugmentedGrammar, Symbol, render_symbols
from .items import DEFAULT_BUDGET, BudgetExhaustedError, ELRItem, item_kind, render_delta, render_item


class ColumnIncompleteError(Exception):
    code = "COLUMN_INCOMPLETE"


@dataclass(frozen=True)
class Chart:
    n: int
    cells: Mapping
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


@dataclass(frozen=True, eq=False)
class ChartResult:
    """A chart, its verdict, and the clause firings that built it.

    `provenance` has one entry per firing that added an item or grew its
    set, in firing order.  The builder keeps the firings as (clause, cell,
    code) triples with the item kind that decodes them.  They are decoded
    on first read and the tuple is published with `dict.setdefault`, as
    `AugmentedGrammar.memo` does: two threads may both decode, and every
    thread gets the tuple stored first.
    """

    chart: Chart
    accepted: bool
    items_added: int
    _firings: tuple = field(repr=False)  # (kind, [(clause, cell, code), ...])

    @property
    def provenance(self) -> tuple[ProvenanceEntry, ...]:
        entries = self.__dict__.get("_provenance")
        if entries is None:
            kind, firings = self._firings
            decode = kind.decoder()
            entries = tuple(ProvenanceEntry(c, cell, decode(code)) for c, cell, code in firings)
            entries = self.__dict__.setdefault("_provenance", entries)
        return entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.chart, self.accepted, self.items_added, self.provenance) == (
            other.chart,
            other.accepted,
            other.items_added,
            other.provenance,
        )


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


def _result(kind, g: AugmentedGrammar, n: int, pairs, firings) -> ChartResult:
    """The chart of the distinct (cell, code) pairs, decoded; it accepts when
    an item spanning the input completes the start rule.  Cells that hold
    the same codes share one decoded frozenset; the cells are read-only."""
    decode = kind.decoder()
    cells: dict[tuple[int, int], list] = {}
    for cell, item in pairs:
        cells.setdefault(cell, []).append(item)
    sp = g.idx.ids[g.start_prime]
    decoded: dict[frozenset, frozenset] = {}
    public = {}
    for cell, items in cells.items():
        key = frozenset(items)
        found = decoded.get(key)
        if found is None:
            found = decoded[key] = frozenset(map(decode, items))
        public[cell] = found
    return ChartResult(
        chart=Chart(n=n, cells=MappingProxyType(public), completed_through=n),
        accepted=any(sp in kind.reducible(item) for item in cells.get((0, n), ())),
        items_added=sum(len(items) for items in cells.values()),
        _firings=(kind, firings),
    )


def _chart(g, tokens, algo, contexts, join, agenda_order, seed, budget, by_rows=False) -> ChartResult:
    """The chart of one item kind, closed one position k at a time: column k
    in column order (k = 0..n), row k in row order (k = n..0).

    Step k seeds [init] at (0, 0) when k = 0 and recognizes token t from t,
    where t = k - 1 in column order and t = k in row order (clauses 1 and
    2).  An agenda then closes the step.  A popped record in cell (j, i)
    1. advances over token i, if token i is already recognized (clause 2);
    2. recognizes from j the left-hand sides it newly completes (clauses 3
       and 4);
    3. advances over the completions already recognized from i (clause 4).
    In column order steps 1 and 3 find nothing: token i and the rows that
    start at i come later.  In row order the contexts of a completion from
    j, other than [init], end in rows below j, which read it in step 3.
    Validation rejects epsilon rules, so only [init] lies in a cell (j, j).

    `contexts` says what filters clauses 1 and 3 at a position k, fixed
    when column k closes: "each" fires once per item of k with its own
    filter, "union" once with the union of their filters, and None fires
    unfiltered.  The row order needs None, because the filter at j depends
    on the rows above j, which are not yet built.  With `join`, a cell
    keeps one item per prefix and merges into it the nonterminal sets of
    later set items; set-item codes begin with the prefix node.
    """
    kind = item_kind(algo, g)
    allowed, start, advance, reducible = kind.allowed, kind.start, kind.advance, kind.reducible
    toks = g.idx.token_ids(tokens)
    n = len(toks)
    pop = _agenda(agenda_order, seed)
    ends: list[list] = [[] for _ in range(n + 1)]  # per position i: the [cell, code] records ending at i
    done: list[dict] = [{} for _ in range(n + 1)]  # per position j: {(end, A): None} recognized from j
    scanned: list = [None] * (n + 1)  # per position t: token t, once recognized from t
    filters: list = [(g.idx.all_nonterminals,)] * (n + 1)  # per position k: the allowed masks at k
    steps: dict[tuple[int, ...], list] = {}  # (j, *symbols) -> clause-2 or clause-4 steps
    firings: list = []
    size = 0
    found: dict = {}  # the open step's records by key
    agenda: deque = deque()

    def add(j, i, item, clause):
        nonlocal size
        key = (j, i, item[0]) if join else (j, i, item)
        rec = found.get(key)
        if rec is None:
            if size >= budget:
                raise BudgetExhaustedError(f"chart item budget {budget} exhausted")
            size += 1
            rec = found[key] = [(j, i), item]
            ends[i].append(rec)
        else:
            if not join:
                return
            item = kind.join(rec[1], item)
            if item is None:
                return
            rec[1] = item
        firings.append((clause, rec[0], item))
        agenda.append(rec)

    def recognized(j, i, xs, clause):
        # Clause 1 or 3 starts rules, then 2 or 4 advances the records
        # ending at j, context first; tokens share `steps` with
        # nonterminals, as their ids differ.
        for ok in filters[j]:
            for x in xs:
                for nxt in start(x, ok):
                    add(j, i, nxt, clause)
        key = (j, *xs)
        targets = steps.get(key)
        if targets is None:
            targets = steps[key] = []
            for ctx_cell, ctx in ends[j]:
                for x in xs:
                    if (nxt := advance(ctx, x)) is not None:
                        targets.append((ctx_cell[0], nxt))
        for ctx_start, nxt in targets:
            add(ctx_start, i, nxt, clause + 1)

    for k in range(n, -1, -1) if by_rows else range(n + 1):
        if k == 0:
            add(0, 0, kind.init, 0)
        t = k if by_rows else k - 1
        if 0 <= t < n:
            scanned[t] = toks[t]
            recognized(t, t + 1, (toks[t],), 1)
        while agenda:
            (j, i), item = pop(agenda)
            if (x := scanned[i]) is not None and (nxt := advance(item, x)) is not None:
                add(j, i + 1, nxt, 2)
            from_j = done[j]
            completes = []
            for a_lhs in reducible(item):
                if (i, a_lhs) not in from_j:
                    from_j[i, a_lhs] = None
                    completes.append(a_lhs)
            if completes:
                recognized(j, i, completes, 3)
            for end, a_lhs in done[i]:
                if (nxt := advance(item, a_lhs)) is not None:
                    add(j, end, nxt, 4)

        # A closed step keeps its records only, so `found`'s keys are freed.
        found.clear()
        if contexts == "each":
            filters[k] = [allowed(item) for _, item in ends[k]]
        elif contexts == "union":
            union = 0
            for _, item in ends[k]:
                union |= allowed(item)
            filters[k] = (union,)

    return _result(kind, g, n, (rec for recs in ends for rec in recs), firings)


def tabular_cp(
    g: AugmentedGrammar,
    tokens,
    td_filter: bool = True,
    agenda_order: str = "fifo",
    seed: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ChartResult:
    """Least fixpoint of the bare-prefix clauses, seeded with [->] at (0,0).

    The filter of a column is the union of its items' filters.  With
    td_filter off, scanning needs no antecedent and reductions skip the
    left-corner check, which makes every row computable independently of
    the rows above it.
    """
    return _chart(g, tokens, "cp", "union" if td_filter else None, False, agenda_order, seed, budget)


def tabular_cp_unfiltered_by_rows(g: AugmentedGrammar, tokens, budget: int = DEFAULT_BUDGET) -> ChartResult:
    """The unfiltered chart closed one row at a time, highest start first.

    Without top-down filtering no cell depends on a cell with a smaller
    start, so each row's fixpoint reads only the rows at or above its own
    index; the result equals `tabular_cp(td_filter=False)`.
    """
    return _chart(g, tokens, "cp", None, False, "fifo", None, budget, by_rows=True)


ELR_VARIANTS = ("merged", "predict_sets", "naive")

_ELR_SCHEDULES = {"merged": ("union", True), "predict_sets": ("union", True), "naive": ("each", False)}


def tabular_elr(
    g: AugmentedGrammar,
    tokens,
    variant: str = "merged",
    agenda_order: str = "fifo",
    seed: int | None = None,
    budget: int = DEFAULT_BUDGET,
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
    return _chart(g, tokens, "elr", contexts, join, agenda_order, seed, budget)


def predict_set(chart: Chart, g: AugmentedGrammar, i: int) -> PredictSet:
    """Left corners of the nonterminals expected right after position i.

    The chart must hold set items over g's rule prefixes; any other item
    raises `KindMismatchError`, a `TypeError`.  A column outside 0..n
    raises `ValueError`.
    """
    if not 0 <= i <= chart.n:
        raise ValueError(f"column {i} is outside 0..{chart.n}")
    if i > chart.completed_through:
        raise ColumnIncompleteError(f"column {i} is not complete (chart built through {chart.completed_through})")
    elr = item_kind("elr", g)
    mask = 0
    for j in range(i + 1):
        for item in chart.cell(j, i):
            mask |= elr.allowed(elr.encode(item))
    return PredictSet(i=i, nonterminals=g.idx.nonterminal_set(mask))


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
