"""The example scripts run from a checkout and print their tables."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_demo_expression_prints_the_comparison_tables():
    lines = _run("demo_expression.py")
    header = ["algo", "accepted", "explored", "choice-points", "dup-alpha-cells"]
    assert sum(1 for ln in lines if ln.split() == header) == 2


def test_sweep_metrics_prints_one_row_per_grammar():
    lines = _run("sweep_metrics.py", "--count", "1", "--max-len", "2")
    assert lines[0].split()[:3] == ["grammar", "sents", "lc:cfg/cp"]
    assert [ln.split()[0] for ln in lines[1:]] == ["g1", "overlap", "rand00"]
