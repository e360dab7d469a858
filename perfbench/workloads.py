"""The three workloads: how each builds its inputs, sends a request and
checks the answer.

A workload's `prepare(m, seed)` loads what every round shares and returns
`make_round(k)`, which builds round k of the seed's stream: `send(i)`
makes request i, one call into the program, and `check(i, out)` judges
its output against a reference computed apart from the engines.  `finish`
makes the checks that need a whole round.  Every round draws fresh inputs
from `random.Random(f"{seed}/{k}")`, so a run's percentiles rest on many
inputs rather than on repeats of a few.  Every call into the program goes
through a module attribute (`m.tabular.x`, not an imported name) so the
traced run sees it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from reference import AMB_GRAMMAR, G1_TERMINALS, in_amb, in_g1

ROOT = Path(__file__).resolve().parents[1]
GRAMMARS = ROOT / "grammars"
ALGOS = ("lc", "plr", "elr", "pseudo_elr", "cp")

SWEEP_CORPUS_SEED = 20260810
SWEEP_RANDOM_COUNT = 20
SWEEP_MAX_LEN = 5

# A round of g1-compare or amb-chart has ROUND inputs: ROUND - 8 short
# ones of skewed lengths, seven of one longer length, and one of the
# longest.  The seven equal lengths hold the ranks from 80 to 97 per cent,
# so the p85 tail falls among inputs of one cost, not on a steep slope.
# The mix is synthetic, chosen so that the metrics repeat, not taken from use.
ROUND = 35
G1_LENGTHS = (33, 101, 129, 255)  # short from, short to, the seven, the longest
AMB_LENGTHS = (8, 30, 36, 64)


@dataclass
class Round:
    size: int
    send: Callable[[int], object]
    check: Callable[[int, object], list[str]]
    finish: Callable[[], list[str]] = lambda: []


def round_rng(seed: int, k: int) -> random.Random:
    return random.Random(f"{seed}/{k}")


def round_lengths(lengths: tuple[int, int, int, int]) -> list[int]:
    """ROUND - 8 lengths from lo to hi, short ones the most common
    (lo * (hi/lo) ** (u ** 2) for u evenly spaced on [0, 1]), then seven of
    `mid` and one of `top`."""
    lo, hi, mid, top = lengths
    count = ROUND - 8
    return [round(lo * (hi / lo) ** ((k / (count - 1)) ** 2)) for k in range(count)] + [mid] * 7 + [top]


def spread_long(inputs: list) -> list:
    """A round in sending order: its last eight (long) inputs evenly spaced
    among the short ones.  Sent in a row, they fell into one window of a
    few seconds per round, and the machine's slow and fast stretches moved
    the tail far more than the throughput."""
    short, long = inputs[: ROUND - 8], inputs[ROUND - 8 :]
    slots = {round((j + 0.5) * ROUND / 8): x for j, x in enumerate(long)}
    rest = iter(short)
    return [slots[i] if i in slots else next(rest) for i in range(ROUND)]


def _load(m, name: str):
    return m.grammar.augment(m.grammar.parse_grammar((GRAMMARS / name).read_text()))


# --------------------------------------------------------------------- sweep


def _all_inputs(g, max_len: int):
    names = sorted(t.name for t in g.terminals)
    for n in range(max_len + 1):
        yield from itertools.product(names, repeat=n)


def prepare_sweep(m, seed: int):
    corpus = [_load(m, f) for f in ("g1.cfg", "overlap.cfg", "pseudo_trap.cfg")]
    corpus += [
        m.grammar.augment(g)
        for g in m.random_grammars.random_validated_grammars(SWEEP_CORPUS_SEED, SWEEP_RANDOM_COUNT)
    ]
    languages = [m.oracle.sentences_up_to(g, SWEEP_MAX_LEN) for g in corpus]
    corpus_inputs = [(k, tokens) for k, g in enumerate(corpus) for tokens in _all_inputs(g, SWEEP_MAX_LEN)]

    def send_one(k, tokens):
        g = corpus[k]
        return (
            m.oracle.viable_prefix(g, tokens),
            m.oracle.derives(g, tokens),
            [m.automata.recognize(a, g, tokens) for a in ALGOS],
            m.tabular.tabular_cp(g, tokens),
            m.tabular.tabular_elr(g, tokens, variant="merged"),
            m.tabular.tabular_elr(g, tokens, variant="predict_sets"),
            m.tabular.tabular_elr(g, tokens, variant="naive"),
        )

    def check_one(k, tokens, out, viable, needs_viable):
        v, d, recs, cp, merged, pred, naive = out
        want = tokens in languages[k]
        where = f"grammar {k} input {' '.join(tokens)!r}"
        errors = []
        verdicts = [d] + [r.accepted for r in recs] + [cp.accepted, merged.accepted, pred.accepted, naive.accepted]
        if any(x != want for x in verdicts):
            errors.append(f"{where}: verdicts {verdicts} against membership {want}")
        if any(r.budget_exhausted for r in recs):
            errors.append(f"{where}: a stack engine exhausted its budget")
        if want and not v:
            errors.append(f"{where}: a sentence is not a viable prefix")
        if merged.chart.cells != pred.chart.cells:
            errors.append(f"{where}: merged and predict_sets charts differ")
        unioned: dict = {}
        for cell, items in naive.chart.cells.items():
            per_alpha = unioned.setdefault(cell, {})
            for it in items:
                per_alpha[it.alpha] = per_alpha.get(it.alpha, frozenset()) | it.delta
        got = {cell: {it.alpha: it.delta for it in items} for cell, items in merged.chart.cells.items()}
        if unioned != got:
            errors.append(f"{where}: naive chart unioned per cell and prefix differs from merged")
        viable[(k, tokens)] = v
        needs_viable.update((k, tokens[:end]) for (_, end) in merged.chart.cells if end >= 1)
        return errors

    def finish(viable, needs_viable):
        # Every prefix of a corpus input is a corpus input, so a whole round
        # has asked viable_prefix about each of them.  A prefix whose own
        # request raised has no verdict; that request is counted as failed.
        bad = sorted(p for p in needs_viable if viable.get(p) is False)
        return [f"grammar {k}: chart cell ends after {' '.join(p)!r}, which is no viable prefix" for k, p in bad]

    def make_round(k: int) -> Round:
        inputs = corpus_inputs[:]
        round_rng(seed, k).shuffle(inputs)
        viable: dict = {}  # this round's viable_prefix verdict per (grammar, input)
        needs_viable: set = set()  # (grammar, prefix) pairs this round's charts end a cell after
        return Round(
            size=len(inputs),
            send=lambda i: send_one(*inputs[i]),
            check=lambda i, out: check_one(*inputs[i], out, viable, needs_viable),
            finish=lambda: finish(viable, needs_viable),
        )

    return make_round


# ---------------------------------------------------------------- g1-compare


def g1_sentence(rng: random.Random, n_ops: int) -> list[str]:
    """'a' and n_ops operator-operand pairs: a sixteenth of the operators
    are '^', a quarter '+' (every '^' before every '+'), the rest '*' or '**'.

    The '^' count is fixed because the stack engines' cost grows with the
    right-recursive nesting it opens; a free count would let it swing tenfold.
    """
    n_hat, n_plus = n_ops // 16, n_ops // 4
    ops = [rng.choice(("*", "**")) for _ in range(n_ops)]
    for k, pos in enumerate(sorted(rng.sample(range(n_ops), n_hat + n_plus))):
        ops[pos] = "^" if k < n_hat else "+"
    tokens = ["a"]
    for op in ops:
        tokens += [op, "a"]
    return tokens


def prepare_g1_compare(m, seed: int):
    path = str(GRAMMARS / "g1.cfg")
    lengths = round_lengths(G1_LENGTHS)

    def make_round(k: int) -> Round:
        rng = round_rng(seed, k)
        inputs = [g1_sentence(rng, n // 2) for n in lengths]
        for i in rng.sample(range(ROUND - 8), ROUND // 4):
            p = rng.randrange(len(inputs[i]))
            inputs[i][p] = rng.choice([t for t in G1_TERMINALS if t != inputs[i][p]])
        inputs = spread_long(inputs)
        expected = [0 if in_g1(tokens) else 1 for tokens in inputs]

        def check(i, out):
            code, text = out
            if code != expected[i]:
                return [f"compare on {len(inputs[i])} tokens exited {code}, expected {expected[i]}: {text[-200:]!r}"]
            return []

        return Round(
            size=len(inputs),
            send=lambda i: m.cli.run_command(["compare", path, "--", *inputs[i]]),
            check=check,
        )

    return make_round


# ----------------------------------------------------------------- amb-chart


def amb_string(rng: random.Random, n: int, faulty: bool) -> list[str]:
    """n tokens, a third of them '+', none adjacent and none at either end.

    A faulty string has the 'a' after the '+' nearest three quarters of
    the way turned into '+'.  The fault's place is fixed because the chart
    of a rejected string shrinks with the spans that cross it: a free
    place would make the cost of one faulty input swing threefold.
    """
    p = n // 3
    slots = sorted(rng.sample(range(n - 2 - (p - 1)), p))
    plus = [1 + s + k for k, s in enumerate(slots)]
    tokens = ["a"] * n
    for q in plus:
        tokens[q] = "+"
    if faulty:
        tokens[min(plus, key=lambda q: abs(q - 3 * n // 4)) + 1] = "+"
    return tokens


def amb_builders(tabular) -> dict:
    """The six chart builders of amb-chart, by their per-layer names."""
    return {
        "tabular_cp.filtered": lambda g, t: tabular.tabular_cp(g, t, td_filter=True),
        "tabular_cp.unfiltered": lambda g, t: tabular.tabular_cp(g, t, td_filter=False),
        "tabular_cp_unfiltered_by_rows": lambda g, t: tabular.tabular_cp_unfiltered_by_rows(g, t),
        "tabular_elr.merged": lambda g, t: tabular.tabular_elr(g, t, variant="merged"),
        "tabular_elr.predict_sets": lambda g, t: tabular.tabular_elr(g, t, variant="predict_sets"),
        "tabular_elr.naive": lambda g, t: tabular.tabular_elr(g, t, variant="naive"),
    }


def prepare_amb_chart(m, seed: int):
    g = m.grammar.augment(m.grammar.parse_grammar(AMB_GRAMMAR))
    lengths = round_lengths(AMB_LENGTHS)
    builders = amb_builders(m.tabular)

    def send_one(tokens):
        return {name: build(g, tokens) for name, build in builders.items()}

    def make_round(k: int) -> Round:
        rng = round_rng(seed, k)
        inputs = [amb_string(rng, n, faulty=i % 4 == 1 and i < ROUND - 8) for i, n in enumerate(lengths)]
        inputs = spread_long(inputs)
        expected = [in_amb(tokens) for tokens in inputs]

        def check(i, charts):
            where = f"input {i} ({len(inputs[i])} tokens)"
            errors = [
                f"{where}: {b} accepted={res.accepted}, expected {expected[i]}"
                for b, res in charts.items()
                if res.accepted != expected[i]
            ]
            unfiltered = charts["tabular_cp.unfiltered"].chart.cells
            if unfiltered != charts["tabular_cp_unfiltered_by_rows"].chart.cells:
                errors.append(f"{where}: agenda-built and row-built unfiltered charts differ")
            filtered = charts["tabular_cp.filtered"].chart.cells
            if any(not items <= unfiltered.get(cell, frozenset()) for cell, items in filtered.items()):
                errors.append(f"{where}: a filtered cell holds an item the unfiltered cell lacks")
            if charts["tabular_elr.merged"].chart.cells != charts["tabular_elr.predict_sets"].chart.cells:
                errors.append(f"{where}: merged and predict_sets charts differ")
            return errors

        return Round(size=len(inputs), send=lambda i: send_one(inputs[i]), check=check)

    return make_round


WORKLOADS = {
    "sweep": prepare_sweep,
    "g1-compare": prepare_g1_compare,
    "amb-chart": prepare_amb_chart,
}
