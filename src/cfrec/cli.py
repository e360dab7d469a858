"""Command-line front end.

Subcommands: validate, relations, recognize, table, compare, sentences.
Input tokens are passed as separate shell arguments after ``--``; each
argument is one terminal name, so quoting of operator tokens is the
shell's job.  Exit codes: 0 accepted/ok, 1 rejected, 2 usage or grammar
error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import automata, oracle, tabular
from .grammar import (
    AugmentedGrammar,
    GrammarError,
    augment,
    left_corner,
    left_corner_star,
    parse_grammar,
    validate,
)
from .items import render_item
from .oracle import LimitExceededError

_ALGO_CLI_TO_INTERNAL = {
    "lc": "lc",
    "plr": "plr",
    "elr": "elr",
    "pseudo-elr": "pseudo_elr",
    "cp": "cp",
}

_TABLE_ALGOS = ("cp", "cp-nofilter", "elr", "elr-si", "elr-naive")


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _build_parser() -> _ArgumentParser:
    p = _ArgumentParser(prog="cfrec", description="Context-free recognition workbench")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a grammar file")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("relations", help="print the left-corner relation and its closure")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_relations)

    sp = sub.add_parser("recognize", help="run a stack recognizer")
    sp.add_argument("--algo", required=True, choices=sorted(_ALGO_CLI_TO_INTERNAL))
    sp.add_argument("--trace", action="store_true", help="print a shortest accepting run")
    sp.add_argument("--budget", type=int, default=automata.DEFAULT_BUDGET)
    sp.add_argument("--allow-cyclic", action="store_true")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_recognize)

    sp = sub.add_parser("table", help="run a tabular recognizer and dump the chart")
    sp.add_argument("--algo", required=True, choices=_TABLE_ALGOS)
    sp.add_argument("--allow-cyclic", action="store_true")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("compare", help="run every recognizer and report metrics")
    sp.add_argument("--oracle", action="store_true", help="include brute-force ground truth")
    sp.add_argument("--budget", type=int, default=automata.DEFAULT_BUDGET)
    sp.add_argument("--allow-cyclic", action="store_true")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("sentences", help="enumerate the language up to a length bound")
    sp.add_argument("--max", type=int, required=True)
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_sentences)

    return p


def _load(path: str, allow_cyclic: bool = False) -> AugmentedGrammar:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    g = parse_grammar(text)
    return augment(g, allow_unit_cycles=allow_cyclic)


def _quote_tokens(tokens) -> str:
    return " ".join(f"'{t}'" for t in tokens)


def _cmd_validate(args, tokens):
    if tokens:
        raise _UsageError("validate takes no input tokens")
    with open(args.file, encoding="utf-8") as fh:
        g = parse_grammar(fh.read())
    report = validate(g)
    lines = []
    for d in report.errors():
        lines.append(f"error {d.code}: {d.message}")
    for d in report.warnings():
        lines.append(f"warning {d.code}: {d.message}")
    lines.append("ok" if report.ok else "invalid")
    return (0 if report.ok else 2), "\n".join(lines) + "\n"


def _cmd_relations(args, tokens):
    if tokens:
        raise _UsageError("relations takes no input tokens")
    g = _load(args.file)
    lc = left_corner(g)
    star = left_corner_star(lc, g)
    lines = ["left-corner:"]
    lines += [f"{b.name} < {a.name}" for b, a in sorted(lc.pairs, key=lambda p: (p[0].name, p[1].name))]
    lines.append("left-corner*:")
    lines += [f"{b.name} < {a.name}" for b, a in sorted(star.pairs, key=lambda p: (p[0].name, p[1].name))]
    return 0, "\n".join(lines) + "\n"


def render_trace(trace: automata.Trace, tokens) -> str:
    n = len(tokens)

    def one(step, label, cfg):
        stack = " ".join(render_item(i) for i in cfg.stack)
        rem = _quote_tokens(tokens[cfg.pos :])
        return f"{step}. [{label}] {stack} | {rem}".rstrip()

    lines = [one(0, "init", trace.initial)]
    for k, (clause, cfg) in enumerate(trace.steps, start=1):
        lines.append(one(k, f"clause {clause}", cfg))
    return "\n".join(lines) + "\n"


def _cmd_recognize(args, tokens):
    g = _load(args.file, args.allow_cyclic)
    algo = _ALGO_CLI_TO_INTERNAL[args.algo]
    lines = []
    if args.trace:
        try:
            trace = automata.accepting_trace(algo, g, tokens, budget=args.budget)
        except automata.BudgetExhaustedError:
            return 3, "budget exhausted\n"
        if trace is not None:
            lines.append(render_trace(trace, tokens).rstrip("\n"))
            lines.append("accepted")
            return 0, "\n".join(lines) + "\n"
        lines.append("rejected")
        return 1, "\n".join(lines) + "\n"
    result = automata.recognize(algo, g, tokens, budget=args.budget)
    if result.budget_exhausted:
        return 3, "budget exhausted\n"
    return (0 if result.accepted else 1), ("accepted" if result.accepted else "rejected") + "\n"


def _table_result(algo: str, g: AugmentedGrammar, tokens) -> tabular.ChartResult:
    if algo == "cp":
        return tabular.tabular_cp(g, tokens, td_filter=True)
    if algo == "cp-nofilter":
        return tabular.tabular_cp(g, tokens, td_filter=False)
    if algo == "elr":
        return tabular.tabular_elr(g, tokens, variant="merged")
    if algo == "elr-si":
        return tabular.tabular_elr(g, tokens, variant="predict_sets")
    if algo == "elr-naive":
        return tabular.tabular_elr(g, tokens, variant="naive")
    raise ValueError(algo)


def _cmd_table(args, tokens):
    g = _load(args.file, args.allow_cyclic)
    result = _table_result(args.algo, g, tokens)
    return (0 if result.accepted else 1), tabular.render_chart_dump(result, args.algo)


@dataclass(frozen=True)
class CompareRow:
    algo: str
    accepted: bool
    explored: int
    choice_points: int | None
    duplicate_alpha_cells: int | None


@dataclass(frozen=True)
class CompareReport:
    rows: tuple[CompareRow, ...]
    oracle_accepted: bool | None
    budget_exhausted: bool


def build_compare_report(g: AugmentedGrammar, tokens, budget=automata.DEFAULT_BUDGET, with_oracle=False) -> CompareReport:
    rows = []
    exhausted = False
    for cli_name in ("lc", "plr", "elr", "pseudo-elr", "cp"):
        res = automata.recognize(_ALGO_CLI_TO_INTERNAL[cli_name], g, tokens, budget=budget)
        exhausted = exhausted or res.budget_exhausted
        rows.append(CompareRow(cli_name, res.accepted, res.configurations_explored, res.choice_points, None))
    tab_cp = tabular.tabular_cp(g, tokens, td_filter=True)
    rows.append(CompareRow("tab-cp", tab_cp.accepted, tab_cp.items_added, None, None))
    tab_elr = tabular.tabular_elr(g, tokens, variant="merged")
    rows.append(CompareRow("tab-elr", tab_elr.accepted, tab_elr.items_added, None, None))
    naive = tabular.tabular_elr(g, tokens, variant="naive")
    rows.append(
        CompareRow("tab-elr-naive", naive.accepted, naive.items_added, None, tabular.duplicate_alpha_cells(naive.chart))
    )
    oracle_accepted = oracle.derives(g, tokens) if with_oracle else None
    return CompareReport(rows=tuple(rows), oracle_accepted=oracle_accepted, budget_exhausted=exhausted)


def render_compare_report(report: CompareReport) -> str:
    headers = ("algo", "accepted", "explored", "choice-points", "dup-alpha-cells")
    table = [headers]
    for r in report.rows:
        table.append(
            (
                r.algo,
                "yes" if r.accepted else "no",
                str(r.explored),
                "-" if r.choice_points is None else str(r.choice_points),
                "-" if r.duplicate_alpha_cells is None else str(r.duplicate_alpha_cells),
            )
        )
    if report.oracle_accepted is not None:
        table.append(("oracle", "yes" if report.oracle_accepted else "no", "-", "-", "-"))
    widths = [max(len(row[c]) for row in table) for c in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


def _cmd_compare(args, tokens):
    g = _load(args.file, args.allow_cyclic)
    report = build_compare_report(g, tokens, budget=args.budget, with_oracle=args.oracle)
    text = render_compare_report(report)
    if report.budget_exhausted:
        return 3, text + "budget exhausted\n"
    verdicts = {r.accepted for r in report.rows}
    if report.oracle_accepted is not None:
        verdicts.add(report.oracle_accepted)
    if len(verdicts) > 1:
        return 2, text + "error: recognizers disagree\n"
    return (0 if verdicts.pop() else 1), text


def _cmd_sentences(args, tokens):
    if tokens:
        raise _UsageError("sentences takes no input tokens")
    g = _load(args.file)
    found = oracle.sentences_up_to(g, args.max)
    lines = [_quote_tokens(s) for s in sorted(found, key=lambda s: (len(s), s))]
    return 0, "\n".join(lines) + ("\n" if lines else "")


def run_command(argv) -> tuple[int, str]:
    """Parse and execute one command line; returns (exit code, output text)."""
    argv = list(argv)
    if "--" in argv:
        cut = argv.index("--")
        head, tokens = argv[:cut], argv[cut + 1 :]
    else:
        head, tokens = argv, []
    parser = _build_parser()
    try:
        args = parser.parse_args(head)
        return args.func(args, tokens)
    except _UsageError as e:
        return 2, str(e) + ("\n" if not str(e).endswith("\n") else "")
    except FileNotFoundError as e:
        return 2, f"error: {e}\n"
    except LimitExceededError as e:
        return 2, f"error: {e}\n"
    except GrammarError as e:
        return 2, f"error: {e}\n"


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if code == 2 else sys.stdout
    if text:
        stream.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
