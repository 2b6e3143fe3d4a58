"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files, around the calls it makes
into each layer's public functions, so the layers are measured from outside.
A span is ``(name, start, end, parent, run_id)``; spans are kept in memory
and written as JSONL only when the benchmark ends, so the traced loop pays
one ``perf_counter`` pair and one list append per span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Collects spans of one benchmark run; nesting follows the ``span`` stack."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus the time their children cover.

        Children of one span never overlap (they are sequential calls on one
        thread), so their durations can simply be subtracted.
        """
        own = {i for i, s in enumerate(self.spans) if s["name"] == name}
        covered = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in own
        )
        return self.total(name) - covered

    def write_jsonl(self, path: Path, header: dict) -> None:
        """Write ``header`` (the run's environment stamp), then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **record}) + "\n")
