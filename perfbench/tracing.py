"""Spans around calls into qlogic's public functions, recorded from outside.

`Tracer.install` replaces module attributes of qlogic with timing wrappers.
`qlogic.cli` and `sweep.py` look those functions up on their module at call
time (`states.enumerate_vertex_states(...)`), so they go through the wrappers
and run the same code as an untraced process; qlogic itself is not edited.
Spans stay in memory and are written out once, when the process ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (qlogic module, function, span name, counts read from the return value,
# keyed by metric name). Counts use observable return values only; qlogic's
# internal counters are not exposed and are not read.
LAYERS = (
    ("algebra", "from_json", "algebra.load", None),
    ("algebra", "structure_report", "algebra.report", None),
    (
        "cloning",
        "find_cloning_bimorphism",
        "cloning.search",
        lambda out: {
            "cloning.nodes": out.nodes_explored,
            "cloning.witnesses": len(out.witnesses),
        },
    ),
    ("cloning", "check_witness_lemmas", "cloning.lemmas", None),
    (
        "states",
        "enumerate_vertex_states",
        "states.enumerate",
        lambda poly: {"states.vertices": len(poly.vertices)},
    ),
    ("states", "is_separating", "states.separation", None),
    ("mv", "find_chain_decomposition", "mv.decompose", None),
    ("mv", "hidden_variable_construct", "mv.construct", None),
    (
        "mv",
        "verify_hidden_variable",
        "mv.verify",
        lambda rep: {"mv.states_checked": rep.states_checked + rep.mixtures_checked},
    ),
    ("reports", "digest_file", "reports.digest", None),
    ("reports", "emit", "reports.emit", None),
)


class Tracer:
    """Records spans: name, start, end, parent span index, op id, counts."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "op": self.op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record["counts"] = counter(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in LAYERS:
            module = importlib.import_module(f"qlogic.{module_name}")
            setattr(module, attr, self._wrap(getattr(module, attr), name, counter))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Self time, call count and summed counts per span name.

    Self time is a span's duration minus the durations of its direct
    children. Keys: "<name>_s", "<name>_calls" and the count names.
    """
    child_time = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] += record["end"] - record["start"]
    totals: dict[str, float] = {}
    for record, inner in zip(spans, child_time):
        name = record["name"]
        self_s = record["end"] - record["start"] - inner
        totals[f"{name}_s"] = totals.get(f"{name}_s", 0.0) + self_s
        totals[f"{name}_calls"] = totals.get(f"{name}_calls", 0) + 1
        for key, value in record["counts"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def top_level_time(spans: list[dict]) -> float:
    """Summed duration of spans with no parent span."""
    return sum(r["end"] - r["start"] for r in spans if r["parent"] is None)
