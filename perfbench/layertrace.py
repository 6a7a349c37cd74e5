"""Per-layer tracing of fastcloud, wrapped from outside the package.

Each wrapper sits at the name its caller looks up (``fastcloud.cli.assess``,
``fastcloud.selection.actual_slo_interval``, ``fastcloud.trust.normalize``)
or, for ``Registry`` and ``Store`` methods, on the class. A span records its
name, op, parent span, and wall and CPU start and end. Spans stay in memory
and are written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from pathlib import Path

from fastcloud import cli, intervals, registry, selection, trust

# (owner, attribute, span name); an owner may be a module or a class.
WRAPPED = (
    (cli, "main", "cli.main"),
    (registry.Store, "load", "store.load"),
    (registry.Store, "save", "store.save"),
    (registry.Registry, "amv_samples", "registry.amv_samples"),
    (registry.Registry, "slos_for", "registry.slos_for"),
    (registry.Registry, "submit_amv", "registry.submit_amv"),
    (registry.Registry, "submit_slo", "registry.submit_slo"),
    (cli, "import_qws", "registry.import_qws"),
    (cli, "assess", "selection.assess"),
    (cli, "result_document", "selection.result_document"),
    (selection, "match_candidates", "selection.match_candidates"),
    (selection, "actual_slo_interval", "consistency.actual_slo_interval"),
    (selection, "evaluate", "trust.evaluate"),
    (selection, "rank", "trust.rank"),
    (trust, "evaluate", "trust.evaluate"),
    (trust, "rank", "trust.rank"),
    (trust, "normalize", "trust.normalize"),
    (trust, "deviation_weights", "trust.deviation_weights"),
    (trust, "trust_levels", "trust.trust_levels"),
    (trust, "possibility_matrix", "trust.possibility_matrix"),
    (trust, "ordering_vector", "trust.ordering_vector"),
)

# Reported per-layer metric -> unit.
METRICS = {
    "registry.amv_samples.calls": "count",
    "registry.amv_samples.cpu_ms": "ms",
    "registry.slos_for.calls": "count",
    "registry.slos_for.cpu_ms": "ms",
    "consistency.actual_slo_interval.calls": "count",
    "consistency.actual_slo_interval.self_ms": "ms",
    "consistency.profiles_useful_ratio": "ratio",
    "selection.match_candidates.cpu_ms": "ms",
    "selection.assess.self_ms": "ms",
    "selection.candidates": "count",
    "selection.result_document.cpu_ms": "ms",
    "cli.main.self_ms": "ms",
    "store.load.cpu_ms": "ms",
    "store.load.records": "count",
    "store.save.cpu_ms": "ms",
    "store.save.wait_ms": "ms",
    "store.save.bytes": "bytes",
    "registry.submit_amv.calls": "count",
    "registry.submit_amv.cpu_ms": "ms",
    "registry.submit_slo.cpu_ms": "ms",
    "registry.import_qws.cpu_ms": "ms",
    "trust.normalize.cpu_ms": "ms",
    "trust.deviation_weights.cpu_ms": "ms",
    "trust.trust_levels.cpu_ms": "ms",
    "trust.possibility_matrix.cpu_ms": "ms",
    "trust.ordering_vector.cpu_ms": "ms",
    "trust.rank.cpu_ms": "ms",
    "intervals.constructed": "count",
}


SPAN_FIELDS = ("op", "id", "parent", "name", "wall_start", "wall_end", "cpu_start", "cpu_end")


class Tracer:
    """Installs the wrappers, records spans and counts, and restores on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span(original, name))
        post_init = intervals.IntervalNumber.__post_init__
        self._saved.append((intervals.IntervalNumber, "__post_init__", post_init))

        def counted(instance):
            self.counts["intervals.constructed"] += 1
            post_init(instance)

        intervals.IntervalNumber.__post_init__ = counted
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _span(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu_end, wall_end = time.process_time(), time.perf_counter()
                self._stack.pop()
                self.spans.append((self.op, span_id, parent, name, wall, wall_end, cpu, cpu_end))
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result) -> None:
        if name == "store.load":
            self.counts["store.load.records"] += (
                len(result.attributes) + len(result.slos) + len(result.amvs))
        elif name == "store.save":
            root = args[0].root
            self.counts["store.save.bytes"] += sum(
                os.path.getsize(root / f) for f in
                (registry.Store.ATTRIBUTES_FILE, registry.Store.SLOS_FILE,
                 registry.Store.AMVS_FILE))
        elif name == "selection.match_candidates":
            self.counts["selection.candidates"] += len(result)
        elif name == "selection.assess":
            self.counts["selection.useful_profiles"] += (
                len(result.candidates) * len(result.request.requested))

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op averages of every reported metric over the traced ops."""
        calls: Counter = Counter()
        cpu: Counter = Counter()
        wall: Counter = Counter()
        child_cpu: Counter = Counter()
        for _, _, parent, name, w0, w1, c0, c1 in self.spans:
            calls[name] += 1
            cpu[name] += c1 - c0
            wall[name] += w1 - w0
            if parent is not None:
                child_cpu[parent] += c1 - c0
        self_cpu: Counter = Counter()
        for _, span_id, _, name, _, _, c0, c1 in self.spans:
            self_cpu[name] += (c1 - c0) - child_cpu[span_id]
        derived = {
            "consistency.profiles_useful_ratio": (
                self.counts["selection.useful_profiles"]
                / calls["consistency.actual_slo_interval"]
                if calls["consistency.actual_slo_interval"] else 0.0),
            "store.save.wait_ms": 1e3 * (wall["store.save"] - cpu["store.save"]) / n_ops,
        }
        out = {}
        for metric in METRICS:
            layer, _, kind = metric.rpartition(".")
            if metric in derived:
                out[metric] = derived[metric]
            elif kind == "calls":
                out[metric] = calls[layer] / n_ops
            elif kind == "cpu_ms":
                out[metric] = 1e3 * cpu[layer] / n_ops
            elif kind == "self_ms":
                out[metric] = 1e3 * self_cpu[layer] / n_ops
            else:
                out[metric] = self.counts[metric] / n_ops
        return out

    def write(self, path: Path, summary: dict) -> None:
        """Write the summary, then one JSON list per span in ``SPAN_FIELDS`` order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(summary, span_fields=SPAN_FIELDS)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
