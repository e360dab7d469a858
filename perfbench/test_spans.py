"""The tracer: self times, and wrappers that see names bound by import.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import run
from spans import Tracer
from workloads import GRAMMARS


def test_self_time_subtracts_the_time_children_cover():
    t = Tracer()
    t.spans = [("request", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1), ("a", 5.0, 6.0, 0)]
    inclusive, own, calls = t.totals()
    assert (inclusive["a"], own["a"], calls["a"]) == (4.0, 3.0, 2)
    assert (own["request"], own["b"]) == (6.0, 1.0)


def test_wrappers_see_functions_the_cli_imported_by_name():
    m = run.fresh_import()
    t = Tracer()
    t.install()
    code, _ = m.cli.run_command(["compare", str(GRAMMARS / "g1.cfg"), "--", "a", "*", "a"])
    assert code == 0
    names = {span[0] for span in t.spans}
    assert {
        "cli.run_command",
        "grammar.parse_grammar",
        "grammar.augment",
        "grammar.validate",
        "automata.recognize.lc",
        "automata.recognize.pseudo_elr",
        "tabular.tabular_cp.filtered",
        "tabular.tabular_elr.merged",
        "tabular.tabular_elr.naive",
        "tabular.duplicate_alpha_cells",
    } <= names
    totals = t.totals()
    assert t.layer_metric("tabular.tabular_elr.naive.items", totals) > 0
    assert 0 < t.layer_metric("cli.run_command.self_s", totals) < t.layer_metric("cli.run_command.s", totals)
