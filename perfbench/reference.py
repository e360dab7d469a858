"""Membership checks written apart from the engines and the oracle.

The benchmark judges the verdicts of `g1-compare` and `amb-chart` with
these regular expressions, so a fault shared by the engines and the
oracle still shows.  `test_reference.py` proves them against
`oracle.sentences_up_to` on every short string.

L(g1)  = T ('^' T)* ('+' T)*   with  T = 'a' (('*' | '**') 'a')*
L(amb) = 'a' ('+'? 'a')*
"""

from __future__ import annotations

import re

G1_TERMINALS = ("a", "+", "*", "**", "^")
AMB_TERMINALS = ("a", "+")
AMB_GRAMMAR = "start S\nS -> S S | S '+' S | 'a'\n"

# One letter per token, so '*' and '**' stay apart.
_G1_LETTER = {"a": "a", "+": "p", "*": "s", "**": "d", "^": "c"}
_G1_T = "a(?:[sd]a)*"
_G1_RE = re.compile(f"{_G1_T}(?:c{_G1_T})*(?:p{_G1_T})*")
_AMB_RE = re.compile(r"a(?:\+?a)*")


def in_g1(tokens) -> bool:
    letters = []
    for t in tokens:
        letter = _G1_LETTER.get(t)
        if letter is None:
            return False
        letters.append(letter)
    return _G1_RE.fullmatch("".join(letters)) is not None


def in_amb(tokens) -> bool:
    text = "".join(tokens)
    return len(text) == len(tokens) and _AMB_RE.fullmatch(text) is not None
