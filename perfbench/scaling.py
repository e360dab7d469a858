#!/usr/bin/env python3
"""Work and seconds per input length, for the README's scaling tables.

    python3 perfbench/scaling.py

Prints two markdown tables.  g1 sentences (built like the g1-compare
inputs) at n = 33..255 through the five stack engines (configurations)
and two charts (items); accepted strings of the ambiguous grammar (built
like the amb-chart inputs) at n = 16..128 through the six chart builders.
Each cell is `work / milliseconds` for one call.  The inputs come from
`random.Random(1)`, so they are the same on every run.
"""

from __future__ import annotations

import random
from operator import attrgetter
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cfrec import augment, parse_grammar, recognize, tabular, tabular_cp, tabular_elr  # noqa: E402

from reference import AMB_GRAMMAR  # noqa: E402
from workloads import ALGOS, GRAMMARS, amb_builders, amb_string, g1_sentence  # noqa: E402


def timed(fn, work):
    t0 = time.perf_counter()
    res = fn()
    return f"{work(res)} / {(time.perf_counter() - t0) * 1e3:.0f}"


def table(title, columns, rows):
    print(f"\n{title}\n")
    print("| n | " + " | ".join(columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for n, cells in rows:
        print(f"| {n} | " + " | ".join(cells) + " |", flush=True)


def main() -> int:
    rng = random.Random(1)
    configurations = attrgetter("configurations_explored")
    items = attrgetter("items_added")

    g1 = augment(parse_grammar((GRAMMARS / "g1.cfg").read_text()))
    rows = []
    for n in (33, 65, 129, 193, 255):
        toks = g1_sentence(rng, n // 2)
        cells = [timed(lambda a=a: recognize(a, g1, toks), configurations) for a in ALGOS]
        cells.append(timed(lambda: tabular_cp(g1, toks), items))
        cells.append(timed(lambda: tabular_elr(g1, toks), items))
        rows.append((n, cells))
    table("g1 (configurations or items / ms)", list(ALGOS) + ["tabular_cp", "tabular_elr"], rows)

    amb = augment(parse_grammar(AMB_GRAMMAR))
    builders = amb_builders(tabular)
    rows = []
    for n in (16, 32, 64, 96, 128):
        toks = amb_string(rng, n, faulty=False)
        rows.append((n, [timed(lambda b=b: b(amb, toks), items) for b in builders.values()]))
    table("S -> S S | S '+' S | 'a' (items / ms)", list(builders), rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
