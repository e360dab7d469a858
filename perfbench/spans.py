"""Spans and counts at the boundary of each layer, recorded from outside.

`Tracer.install` replaces each public function named in `LAYERS` with a
wrapper, in every loaded `cfrec` module that holds it under any name, so
calls made through `from .grammar import augment` are seen as well as
calls made through `grammar.augment`.  A wrapper keeps one span
(name, start, end, parent) in memory per call and adds the counts it
reads from the result; nothing is written until `write_spans`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _recognition_counts(res):
    return {"configurations": res.configurations_explored, "choice_points": res.choice_points}


def _chart_counts(res):
    counts = {"items": res.items_added, "firings": len(res.provenance)}
    counts.update({f"clause{c}": 0 for c in (1, 2, 3, 4)})
    for entry in res.provenance:
        if entry.clause:
            counts[f"clause{entry.clause}"] += 1
    return counts


# (module, function, layer name, variant from the bound arguments, counts from the result)
LAYERS = (
    ("grammar", "parse_grammar", "grammar.parse_grammar", None, None),
    ("grammar", "validate", "grammar.validate", None, None),
    ("grammar", "augment", "grammar.augment", None, None),
    ("random_grammars", "random_validated_grammars", "grammar.random_validated_grammars", None, None),
    ("automata", "recognize", "automata.recognize", lambda a: a["algo"], _recognition_counts),
    (
        "tabular",
        "tabular_cp",
        "tabular.tabular_cp",
        lambda a: "filtered" if a["td_filter"] else "unfiltered",
        _chart_counts,
    ),
    ("tabular", "tabular_cp_unfiltered_by_rows", "tabular.tabular_cp_unfiltered_by_rows", None, _chart_counts),
    ("tabular", "tabular_elr", "tabular.tabular_elr", lambda a: a["variant"], _chart_counts),
    ("tabular", "duplicate_alpha_cells", "tabular.duplicate_alpha_cells", None, lambda r: {"count": r}),
    ("oracle", "viable_prefix", "oracle.viable_prefix", None, None),
    ("oracle", "derives", "oracle.derives", None, None),
    ("oracle", "sentences_up_to", "oracle.sentences_up_to", None, None),
    ("cli", "run_command", "cli.run_command", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict = defaultdict(int)  # (span name, stat) -> total
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        k = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._open[-1] if self._open else -1))
        self._open.append(k)
        return k

    def _exit(self, k: int):
        name, start, _, parent = self.spans[k]
        self.spans[k] = (name, start, time.perf_counter(), parent)
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        k = self._enter(name)
        try:
            yield
        finally:
            self._exit(k)

    def _wrap(self, fn, layer, variant, counts):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            name = layer
            if variant is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                name = f"{layer}.{variant(bound.arguments)}"
            k = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(k)
            if counts is not None:
                for stat, value in counts(result).items():
                    self.counts[(name, stat)] += value
            return result

        return wrapper

    def install(self):
        """Wrap every function in LAYERS wherever a loaded cfrec module binds it."""
        modules = [mod for key, mod in sys.modules.items() if key == "cfrec" or key.startswith("cfrec.")]
        for module, function, layer, variant, counts in LAYERS:
            original = getattr(sys.modules[f"cfrec.{module}"], function)
            wrapper = self._wrap(original, layer, variant, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def totals(self):
        """Per span name: inclusive seconds, self seconds and call count."""
        inclusive: dict = defaultdict(float)
        own: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for k, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - covered[k]
            calls[name] += 1
        return inclusive, own, calls

    def layer_metric(self, metric: str, totals) -> float:
        """Value of `<layer>.<stat>`; a layer the run never entered reads 0."""
        inclusive, own, calls = totals
        layer, stat = metric.rsplit(".", 1)
        if stat == "s":
            return inclusive[layer]
        if stat == "self_s":
            return own[layer]
        if stat == "calls":
            return calls[layer]
        if stat.startswith("us_per_"):
            work = self.counts[(layer, stat[len("us_per_") :] + "s")]
            return inclusive[layer] / work * 1e6 if work else 0.0
        return self.counts[(layer, stat)]

    def write_spans(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent]) + "\n")
