"""The benchmark's membership checks agree with the oracle on short strings.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import itertools
from pathlib import Path

from cfrec import augment, parse_grammar, sentences_up_to

from reference import AMB_GRAMMAR, AMB_TERMINALS, G1_TERMINALS, in_amb, in_g1

G1_FILE = Path(__file__).resolve().parents[1] / "grammars" / "g1.cfg"


def _mismatches(g, terminals, member, max_len):
    language = sentences_up_to(g, max_len)
    bad = []
    for n in range(max_len + 1):
        for tokens in itertools.product(terminals, repeat=n):
            if member(tokens) != (tokens in language):
                bad.append(tokens)
    return bad, len(language)


def test_g1_expression_matches_oracle_up_to_9_tokens():
    g = augment(parse_grammar(G1_FILE.read_text()))
    bad, size = _mismatches(g, G1_TERMINALS, in_g1, 9)
    assert size > 0
    assert bad == []


def test_amb_expression_matches_oracle_up_to_10_tokens():
    g = augment(parse_grammar(AMB_GRAMMAR))
    bad, size = _mismatches(g, AMB_TERMINALS, in_amb, 10)
    assert size > 0
    assert bad == []


def test_foreign_tokens_are_rejected():
    assert not in_g1(["a", "b"])
    assert not in_amb(["a", "aa"])
    assert not in_amb(["a", ""])
