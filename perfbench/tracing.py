"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, run id); times come from
`time.perf_counter`, which on Linux reads CLOCK_MONOTONIC, so spans that a
child process records share the parent's clock and can be grafted into one
tree.  Nothing is written until `dump`, after the measured phase.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.elapsed: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block; yields the span's index."""
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self._add(record)

    def _add(self, record: dict) -> None:
        name = record["name"]
        self.elapsed[name] = self.elapsed.get(name, 0.0) + record["end"] - record["start"]

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def adopt(self, spans: list[dict], counts: dict[str, float], parent: int) -> None:
        """Graft another tracer's spans (say, a child process's) under `parent`."""
        offset = len(self.spans)
        for s in spans:
            own = s["parent"]
            record = {**s, "parent": parent if own is None else own + offset}
            self.spans.append(record)
            self._add(record)
        for name, amount in counts.items():
            self.count(name, amount)

    def _own(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        totals: dict[str, float] = {}
        for s, own in zip(self.spans, self._own()):
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def span_self_times(self, name: str, first: int = 0) -> list[float]:
        """Self time of each span called `name`, from span index `first` on."""
        own = self._own()
        return [own[i] for i in range(first, len(self.spans)) if self.spans[i]["name"] == name]

    def dump(self, path: Path, **extra) -> None:
        doc = {"spans": self.spans, "counts": self.counts, **extra}
        path.write_text(json.dumps(doc))


def load(path: Path) -> tuple[list[dict], dict[str, float]]:
    doc = json.loads(path.read_text())
    return doc["spans"], doc["counts"]
