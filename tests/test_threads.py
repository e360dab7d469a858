"""The README promises that values are safe to share across threads.

Four threads run every engine on one freshly built grammar at once, so
they also race to fill its lazily built tables.
"""

import sys
import threading

from cfrec.automata import ALGORITHMS, recognize
from cfrec.oracle import derives, viable_prefix
from cfrec.tabular import ELR_VARIANTS, tabular_cp, tabular_elr

from conftest import load_grammar

INPUTS = (["a", "*", "a"], ["a", "+", "a", "^", "a"], ["a", "^", "a", "**", "a", "+", "a"], ["a", "+"])
THREADS = 4


def _run_all(g):
    out = []
    for tokens in INPUTS:
        out.append([recognize(algo, g, tokens) for algo in ALGORITHMS])
        out.append(tabular_cp(g, tokens))
        out.append([tabular_elr(g, tokens, variant=v) for v in ELR_VARIANTS])
        out.append((derives(g, tokens), viable_prefix(g, tokens)))
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
