import subprocess
import sys
from pathlib import Path

from cfrec.automata import accepting_trace
from cfrec.cli import render_trace, run_command
from trace_parser import parse_trace_line

REPO = Path(__file__).resolve().parents[1]
G1 = str(REPO / "grammars" / "g1.cfg")
OVERLAP = str(REPO / "grammars" / "overlap.cfg")
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_recognize_trace_golden():
    code, out = run_command(["recognize", "--algo", "lc", "--trace", G1, "--", "a", "*", "a"])
    assert code == 0
    assert out == (GOLDEN / "expr_lc_trace.txt").read_text()


def test_recognize_rejection_exit_code():
    code, out = run_command(["recognize", "--algo", "cp", G1, "--", "a", "+", "a", "^", "a"])
    assert code == 1
    assert out == "rejected\n"


def test_recognize_acceptance_without_trace():
    code, out = run_command(["recognize", "--algo", "elr", G1, "--", "a", "**", "a"])
    assert code == 0
    assert out == "accepted\n"


def test_table_golden_and_exit_code():
    code, out = run_command(["table", "--algo", "cp", G1, "--", "a", "+", "a", "^", "a"])
    assert code == 1
    assert out == (GOLDEN / "expr_bad_input_cp_chart.txt").read_text()


def test_table_variants_run(tmp_path):
    for algo in ("cp", "cp-nofilter", "elr", "elr-si", "elr-naive"):
        code, out = run_command(["table", "--algo", algo, G1, "--", "a", "*", "a"])
        assert code == 0
        assert out.startswith(f"n=3 algo={algo} accepted=true")


def test_compare_report(g1):
    code, out = run_command(["compare", "--oracle", G1, "--", "a", "*", "a"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["algo", "accepted", "explored", "choice-points", "dup-alpha-cells"]
    rows = {ln.split()[0]: ln.split() for ln in lines[1:]}
    assert set(rows) == {"lc", "plr", "elr", "pseudo-elr", "cp", "tab-cp", "tab-elr", "tab-elr-naive", "oracle"}
    assert all(r[1] == "yes" for r in rows.values())
    cp_row = {ln.split()[0]: int(ln.split()[3]) for ln in lines[1:] if ln.split()[0] in ("lc", "plr", "elr")}
    assert cp_row["elr"] <= cp_row["plr"] <= cp_row["lc"]


def test_compare_rejected_exit_code():
    code, _ = run_command(["compare", G1, "--", "a", "+", "a", "^", "a"])
    assert code == 1


def test_sentences():
    code, out = run_command(["sentences", "--max", "3", G1])
    assert code == 0
    assert out.splitlines() == ["'a'", "'a' '*' 'a'", "'a' '**' 'a'", "'a' '+' 'a'", "'a' '^' 'a'"]


def test_sentences_cap_is_an_error():
    code, out = run_command(["sentences", "--max", "11", G1])
    assert code == 2


def test_validate_ok_and_invalid(tmp_path):
    code, out = run_command(["validate", G1])
    assert code == 0 and out == "ok\n"
    bad = tmp_path / "bad.cfg"
    bad.write_text("start S\nS -> A\nA -> S\nS -> 'a'\n")
    code, out = run_command(["validate", str(bad)])
    assert code == 2
    assert "UNIT_CYCLE" in out and out.endswith("invalid\n")


def test_relations_output():
    code, out = run_command(["relations", G1])
    assert code == 0
    lines = out.splitlines()
    head = lines.index("left-corner:")
    star = lines.index("left-corner*:")
    plain = set(lines[head + 1 : star])
    assert plain == {"E < E", "E < E'", "F < T", "T < E", "T < T"}
    assert "F < E" in set(lines[star + 1 :])


def test_usage_errors():
    code, out = run_command(["recognize", G1, "--", "a"])
    assert code == 2
    code, out = run_command(["nonsense"])
    assert code == 2
    code, out = run_command(["recognize", "--algo", "lc", "/nonexistent.cfg", "--", "a"])
    assert code == 2


def test_unknown_token_is_a_grammar_error():
    code, out = run_command(["recognize", "--algo", "lc", G1, "--", "z"])
    assert code == 2
    assert "unknown token" in out


def test_budget_exit_code():
    code, out = run_command(["recognize", "--algo", "cp", "--budget", "3", G1, "--", "a", "+", "a"])
    assert code == 3
    assert out == "budget exhausted\n"


def test_output_is_deterministic():
    args = ["compare", "--oracle", G1, "--", "a", "**", "a"]
    assert run_command(args) == run_command(args)
    args = ["table", "--algo", "elr-naive", OVERLAP, "--", "m", "a"]
    assert run_command(args) == run_command(args)


def test_trace_round_trips_through_the_debug_parser(g1, overlap):
    cases = [
        (g1, "lc", ["a", "*", "a"]),
        (g1, "plr", ["a", "*", "a"]),
        (g1, "elr", ["a", "**", "a"]),
        (g1, "cp", ["a", "+", "a"]),
        (overlap, "elr", ["m", "a"]),
    ]
    for g, algo, tokens in cases:
        trace = accepting_trace(algo, g, tokens)
        assert trace is not None
        lines = render_trace(trace, tokens).splitlines()
        step0 = parse_trace_line(lines[0], g, algo, tokens)
        assert step0 == (0, None, trace.initial)
        for k, (clause, cfg) in enumerate(trace.steps, start=1):
            assert parse_trace_line(lines[k], g, algo, tokens) == (k, clause, cfg)


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "cfrec", "recognize", "--algo", "lc", G1, "--", "a"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "accepted\n"
