"""Inverse of the CLI trace renderer, used to check that traces round-trip."""

import re

from cfrec.automata import Configuration
from cfrec.grammar import AugmentedGrammar, Rule, nonterm, term
from cfrec.items import CPItem, ELRItem, LCItem, PLRItem

_TRACE_LINE_RE = re.compile(r"^(\d+)\. \[(init|clause (\d+))\] (.*)$")
_ITEM_RE = re.compile(r"\[([^\[\]]*)\]")
_SYM_RE = re.compile(r"'([^']*)'|(\{[^}]*\})|(->)|(\.)|([A-Za-z_'][A-Za-z0-9_']*)")


def _parse_symbols(text: str):
    out = []
    for m in _SYM_RE.finditer(text):
        if m.group(1) is not None:
            out.append(term(m.group(1)))
        elif m.group(5) is not None:
            out.append(nonterm(m.group(5)))
        else:
            out.append(m.group(0))
    return out


def parse_trace_line(line: str, g: AugmentedGrammar, algo: str, tokens):
    """Inverse of the trace renderer; returns (step, clause, Configuration)."""
    m = _TRACE_LINE_RE.match(line)
    if m is None:
        raise ValueError(f"not a trace line: {line!r}")
    step = int(m.group(1))
    clause = int(m.group(3)) if m.group(3) else None
    body = m.group(4)
    if body.endswith(" |"):
        stack_text, rem_text = body[:-2], ""
    else:
        stack_text, rem_text = body.rsplit(" | ", 1)
    remaining = [t.name for t in _parse_symbols(rem_text) if hasattr(t, "name")]
    pos = len(tokens) - len(remaining)
    items = []
    for item_body in _ITEM_RE.findall(stack_text):
        parts = _parse_symbols(item_body)
        arrow = parts.index("->")
        if algo == "lc":
            lhs = parts[0]
            rest = parts[arrow + 1 :]
            dot = rest.index(".")
            rhs = tuple(s for s in rest if s != ".")
            items.append(LCItem(Rule(lhs, rhs), dot))
        elif algo == "plr":
            items.append(PLRItem(parts[0], tuple(parts[arrow + 1 :])))
        elif algo in ("elr", "pseudo_elr"):
            names = [n for n in parts[0].strip("{}").split(",") if n]
            items.append(ELRItem(frozenset(nonterm(n) for n in names), tuple(parts[arrow + 1 :])))
        elif algo == "cp":
            items.append(CPItem(tuple(parts[arrow + 1 :])))
        else:
            raise ValueError(algo)
    return step, clause, Configuration(tuple(items), pos)
