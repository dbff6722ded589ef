"""Benchmark-side span recorder.

Spans wrap the benchmark's calls *into* each layer's public functions;
spans inside the program are a later change.  Everything stays in
memory until :meth:`Tracer.write` at exit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

from stats import self_times


class Tracer:
    """Nested wall-clock spans: name, start, end, parent, workload, seed."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, workload: str, seed: int) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": workload,
            "seed": seed,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span, own in zip(self.spans, self_times(self.spans)):
                handle.write(json.dumps({**span, "self": own}, sort_keys=True))
                handle.write("\n")
