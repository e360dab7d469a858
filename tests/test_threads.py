"""The README promises that values are safe to share across threads.

Four threads run every engine on one freshly built grammar at once, so
they also race to fill its lazily built tables.  Four threads also race
to the first read of shared chart results' provenance, which is decoded
on first read.
"""

import sys
import threading

from cfrec.automata import ALGORITHMS, accepting_trace, initial_configuration, recognize, successors_with_clauses
from cfrec.oracle import derives, sentences_up_to, viable_prefix
from cfrec.tabular import ELR_VARIANTS, tabular_cp, tabular_cp_unfiltered_by_rows, tabular_elr

from conftest import load_grammar

INPUTS = (["a", "*", "a"], ["a", "+", "a", "^", "a"], ["a", "^", "a", "**", "a", "+", "a"], ["a", "+"])
THREADS = 4


def _run_all(g):
    out = []
    for tokens in INPUTS:
        out.append([recognize(algo, g, tokens) for algo in ALGORITHMS])
        for algo in ALGORITHMS:
            trace = accepting_trace(algo, g, tokens)
            out.append(trace)
            steps = [initial_configuration(algo, g)] if trace is None else [trace.initial] + [c for _, c in trace.steps]
            out.append([successors_with_clauses(algo, g, tokens, cfg) for cfg in steps])
        out.append(tabular_cp(g, tokens))
        out.append(tabular_cp_unfiltered_by_rows(g, tokens))
        out.append([tabular_elr(g, tokens, variant=v) for v in ELR_VARIANTS])
        out.append((derives(g, tokens), viable_prefix(g, tokens)))
    out.append(sentences_up_to(g, 5))
    return out


def test_engines_share_one_grammar_across_threads():
    want = _run_all(load_grammar("g1.cfg"))
    g = load_grammar("g1.cfg")
    barrier = threading.Barrier(THREADS)
    got = [None] * THREADS

    def work(k):
        barrier.wait()
        got[k] = _run_all(g)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(result == want for result in got)


def test_threads_share_one_chart_result():
    g = load_grammar("g1.cfg")
    tokens = INPUTS[2]
    builders = [
        lambda: tabular_cp(g, tokens),
        lambda: tabular_cp(g, tokens, td_filter=False),
        lambda: tabular_cp_unfiltered_by_rows(g, tokens),
        *(lambda v=v: tabular_elr(g, tokens, variant=v) for v in ELR_VARIANTS),
    ]
    want = [build().provenance for build in builders]
    shared = [build() for build in builders]
    barrier = threading.Barrier(THREADS)
    got = [None] * THREADS

    def work(k):
        barrier.wait()
        got[k] = [res.provenance for res in shared]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(reads == want for reads in got)
    # Decoded once: every thread holds the same tuple object.
    assert all(read is first for reads in got for read, first in zip(reads, got[0]))
