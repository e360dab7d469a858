import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

from cfrec import automata, cli, tabular
from cfrec.automata import accepting_trace
from cfrec.cli import main, render_trace, run_command
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


def test_compare_exits_2_when_recognizers_disagree(monkeypatch):
    real = automata.recognize

    def plr_flipped(algo, g, tokens, **kw):
        res = real(algo, g, tokens, **kw)
        return dataclasses.replace(res, accepted=not res.accepted) if algo == "plr" else res

    monkeypatch.setattr(automata, "recognize", plr_flipped)
    code, out = run_command(["compare", G1, "--", "a", "*", "a"])
    assert code == 2
    assert out.startswith("algo") and out.endswith("error: recognizers disagree\n")
    assert out.splitlines()[2].split()[:2] == ["plr", "no"]


def test_sentences():
    code, out = run_command(["sentences", "--max", "3", G1])
    assert code == 0
    assert out.splitlines() == ["'a'", "'a' '*' 'a'", "'a' '**' 'a'", "'a' '+' 'a'", "'a' '^' 'a'"]


def test_sentences_cap_is_an_error():
    code, out = run_command(["sentences", "--max", "11", G1])
    assert code == 2


def test_sentences_rejects_a_negative_bound():
    code, out = run_command(["sentences", "--max", "-1", G1])
    assert code == 2
    assert out.endswith("error: argument --max: must not be negative: -1\n")


def test_budget_must_not_be_negative():
    for command in (["recognize", "--algo", "lc"], ["compare"]):
        code, out = run_command([*command, "--budget", "-5", G1, "--", "a"])
        assert code == 2
        assert out.endswith("error: argument --budget: must not be negative: -5\n")


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


def test_unreadable_grammar_paths_are_errors(tmp_path):
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("start S\nS -> 'é'\n".encode("latin-1"))
    for path in (str(REPO / "grammars"), str(latin1)):
        for argv in (["validate", path], ["compare", path, "--", "a"]):
            code, out = run_command(argv)
            assert code == 2, argv
            assert out.startswith("error: ") and "Traceback" not in out, argv


def test_commands_without_input_reject_tokens():
    for command, extra in (("validate", []), ("relations", []), ("sentences", ["--max", "2"])):
        code, out = run_command([command, *extra, G1, "--", "a"])
        assert code == 2
        assert out == f"{command} takes no input tokens\n"


def test_validate_prints_warnings_and_passes():
    code, out = run_command(["validate", str(REPO / "grammars" / "pseudo_trap.cfg")])
    assert code == 0
    assert out == (
        "warning UNREACHABLE_NONTERMINAL: nonterminal B is unreachable from S\n"
        "warning UNREACHABLE_NONTERMINAL: nonterminal Z is unreachable from S\n"
        "ok\n"
    )


def test_recognize_trace_of_a_rejected_input():
    code, out = run_command(["recognize", "--algo", "elr", "--trace", G1, "--", "a", "+", "a", "^", "a"])
    assert code == 1
    assert out == "rejected\n"


def test_main_writes_exit_2_text_to_stderr_and_the_rest_to_stdout(capsys):
    for argv, code in (
        (["recognize", "--algo", "lc", G1, "--", "a"], 0),
        (["recognize", "--algo", "lc", G1, "--", "a", "a"], 1),
        (["recognize", "--algo", "cp", "--budget", "3", G1, "--", "a", "+", "a"], 3),
        (["recognize", "--algo", "lc", G1, "--", "z"], 2),
    ):
        text = run_command(argv)[1]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (("", text) if code == 2 else (text, ""))


def test_unknown_token_is_a_grammar_error():
    code, out = run_command(["recognize", "--algo", "lc", G1, "--", "z"])
    assert code == 2
    assert "unknown token" in out


def test_budget_exit_code():
    code, out = run_command(["recognize", "--algo", "cp", "--budget", "3", G1, "--", "a", "+", "a"])
    assert code == 3
    assert out == "budget exhausted\n"


def test_compare_budget_bounds_the_charts():
    # 11 configurations truncate every stack engine, which only flags it;
    # the naive chart needs 12 items and stops the command.
    code, out = run_command(["compare", "--budget", "11", G1, "--", "a", "*", "a"])
    assert (code, out) == (3, "budget exhausted\n")
    code, out = run_command(["compare", "--budget", "12", G1, "--", "a", "*", "a"])
    assert code == 3 and out.startswith("algo") and out.endswith("budget exhausted\n")


def test_table_maps_the_chart_budget_to_exit_3(monkeypatch):
    full = tabular.tabular_cp
    monkeypatch.setattr(tabular, "tabular_cp", lambda g, t, **kw: full(g, t, budget=3, **kw))
    assert run_command(["table", "--algo", "cp", G1, "--", "a", "*", "a"]) == (3, "budget exhausted\n")


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
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cfrec", "recognize", "--algo", "lc", G1, "--", "a"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "accepted\n"


def test_threads_share_one_parser():
    argvs = [
        ["recognize", "--algo", "lc", "--trace", G1, "--", "a", "*", "a"],
        ["recognize", "--algo", "pseudo-elr", G1, "--", "a", "+"],
        ["table", "--algo", "elr-naive", G1, "--", "a", "^", "a"],
        ["compare", "--budget", "3", G1, "--", "a", "+", "a"],
        ["compare", OVERLAP, "--", "m", "a"],
        ["compare", G1, "--", "a", "**", "a", "+", "a"],
        ["relations", OVERLAP],
        ["sentences", "--max", "3", G1],
        ["validate", G1, "--", "a"],
        ["recognize", "--algo", "slr", G1, "--", "a"],
        ["table", "--budget", "5", G1],
    ]
    want = [run_command(argv) for argv in argvs]
    assert {code for code, _ in want} >= {0, 1, 2, 3}
    barrier = threading.Barrier(4)
    got = [None] * 4

    def work(k):
        barrier.wait()
        got[k] = [run_command(argv) for _ in range(5) for argv in argvs]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
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
    assert all(outputs == want * 5 for outputs in got)
    assert cli._build_parser() is cli._build_parser()
