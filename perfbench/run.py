#!/usr/bin/env python3
"""Benchmark command: one caller, a closed loop, one workload per process.

    python3 perfbench/run.py --workload {sweep,g1-compare,amb-chart} \
        --seed N --seconds S --trace {0,1}

Sets up (import, load and index, round 0 and its reference verdicts) and
times that from process start.  Then the loop builds the workload's
seeded rounds of requests, sends them one at a time, each after the
previous one returned, and runs whole rounds until S seconds have been
spent inside requests.  After each round, SETUPS_PER_ROUND processes,
run one after another with --setup-only, repeat the set-up from their
own start; setup_s is the median of all the set-ups.  Every output is checked against
a reference computed apart from the engines.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
named in BENCHMARK.json (end-to-end ones with --trace 0, per-layer ones
with --trace 1).  See README.md in this directory.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import array  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Set-ups are sampled between rounds, not all at once, so that they
# meet the machine's slow and fast stretches as the requests do.
SETUPS_PER_ROUND = 3
MODULES = ("grammar", "random_grammars", "automata", "tabular", "oracle", "cli")
# Highest percentile that keeps at least ten samples beyond it in the
# shortest run the loop makes: one round of sweep, two of the others
# (README.md, "Latency tail").
TAIL_PERCENTILE = {"sweep": 99.8, "g1-compare": 85.0, "amb-chart": 85.0}


def fresh_import() -> SimpleNamespace:
    """Import cfrec from this checkout's src/, dropping any earlier import.

    Only the traced run finds an earlier import, and drops it so that its
    wrappers and the oracle's cache start clean.
    """
    for name in [n for n in sys.modules if n == "cfrec" or n.startswith("cfrec.")]:
        del sys.modules[name]
    importlib.import_module("cfrec")
    m = SimpleNamespace(**{name: importlib.import_module(f"cfrec.{name}") for name in MODULES})
    if Path(m.grammar.__file__).resolve().parent != SRC / "cfrec":
        raise ImportError(f"cfrec was imported from {m.grammar.__file__}, not from {SRC}")
    return m


def setup(workload: str, seed: int, tracer=None):
    """Import, load and index, and build round 0 with its reference verdicts."""
    m = fresh_import()
    if tracer is not None:
        tracer.install()
    make_round = WORKLOADS[workload](m, seed)
    return make_round, make_round(0)


def nearest_rank(sorted_values, percentile: float) -> tuple[float, int]:
    """Value at the percentile, and how many samples lie beyond it."""
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Loop:
    """Closed loop over whole rounds; checks run between requests, untimed."""

    def __init__(self, make_round, first):
        self.make_round = make_round
        self.first = first
        self.latencies = array.array("d")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_round(self, rnd, tracer=None) -> float:
        busy = 0.0
        for i in range(rnd.size):
            busy += self._send(rnd, i, tracer)
        self.errors += rnd.finish()
        return busy

    def _send(self, rnd, i, tracer) -> float:
        # The output dies when this returns, so it is not held while the
        # next request runs and does not raise that request's memory peak.
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = rnd.send(i)
            else:
                with tracer.span("request"):
                    out = rnd.send(i)
        except Exception:  # one failed request must not end the run
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return 0.0
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        self.errors += rnd.check(i, out)
        return dt

    def run_for(self, seconds: float, between_rounds) -> list[float]:
        """Busy seconds of each whole round, until they add up to `seconds`."""
        rounds: list[float] = []
        while sum(rounds) < seconds:
            rnd = self.make_round(len(rounds)) if rounds else self.first
            rounds.append(self.run_round(rnd))
            between_rounds()
        return rounds


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def setup_samples(args) -> list[float]:
    """Set-up seconds of SETUPS_PER_ROUND fresh processes, each timed from its own start."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", "0", "--setup-only"]
    return [
        float(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.split()[-1])
        for _ in range(SETUPS_PER_ROUND)
    ]


def end_to_end_values(workload: str, loop: Loop, setups: list[float], inputs_per_s: float) -> dict:
    latencies = sorted(loop.latencies)
    tail, beyond = nearest_rank(latencies, TAIL_PERCENTILE[workload])
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p{TAIL_PERCENTILE[workload]}", file=sys.stderr)
    return {
        "setup_s": statistics.median(setups),
        "inputs_per_s": inputs_per_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_round(workload: str, seed: int, inputs_per_s: float, names, spans_path) -> tuple[dict, Loop]:
    """One traced set-up and exactly one traced round, so counts repeat per seed."""
    tracer = Tracer()
    with tracer.span("setup"):
        loop = Loop(*setup(workload, seed, tracer))
    busy = loop.run_round(loop.first, tracer)
    values = {
        "trace.untraced_inputs_per_s": inputs_per_s,
        "trace.traced_inputs_per_s": len(loop.latencies) / busy,
        "trace.spans": len(tracer.spans),
    }
    values["trace.slowdown"] = inputs_per_s / values["trace.traced_inputs_per_s"]
    totals = tracer.totals()
    for name in names:
        if name not in values:
            values[name] = tracer.layer_metric(name, totals)
    tracer.write_spans(spans_path)
    return values, loop


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "cfrec" / "__init__.py").is_file():
        print(f"error: no cfrec sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    end_to_end, per_layer = metric_specs()
    loop = Loop(*setup(args.workload, args.seed))
    setups = [time.perf_counter() - PROCESS_START]
    if args.setup_only:
        print(setups[0])
        return 0
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    rounds = loop.run_for(args.seconds, lambda: setups.extend(setup_samples(args)))
    inputs_per_s = len(loop.latencies) / sum(rounds)
    loops = [loop]

    if args.trace:
        wanted = per_layer
        values, traced = traced_round(
            args.workload, args.seed, inputs_per_s, [m["name"] for m in per_layer], RESULTS / f"{stem}-spans.jsonl"
        )
        loops.append(traced)
    else:
        wanted = end_to_end
        values = end_to_end_values(args.workload, loop, setups, inputs_per_s)

    errors = [e for lp in loops for e in lp.errors]
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        f"{args.workload}: {len(loop.latencies)} timed requests, "
        f"rounds of {[round(r, 2) for r in rounds]} s in requests, setups {[round(s, 4) for s in setups]}",
        file=sys.stderr,
    )
    result = {
        "correct": not errors,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
