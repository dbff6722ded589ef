"""Event sinks: where an observer's event stream goes.

Three built-ins, selected by the scenario ``observe`` field:

* :class:`RingSink` — bounded in-memory buffer (the default).  Keeps the
  newest raw records once the capacity is reached and counts what it
  dropped, so a long run cannot exhaust memory *and* cannot silently
  pretend the trace is complete; its events are rendered when read.
* :class:`JsonlSink` — one event per line, append-only, rendered in
  chunks of :data:`JSONL_CHUNK` records and flushed on close.  The file
  format is the stable :meth:`Event.to_dict` shape; :func:`load_events`
  reads it back.
* :func:`render_events` — the human timeline, for library callers.

A sink's ``emit`` takes one raw record: an :class:`Event`, its six
fields in a plain tuple, or an observer's 5-tuple message record.
:func:`~repro.obs.events.render_records` turns any of them into the
:class:`Event` it stands for.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import IO, Any, Deque, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigError
from .events import Event, EventLog, render_records


class RingSink:
    """Bounded in-memory event buffer.

    ``capacity`` caps retained records; overflow evicts the oldest, and
    every evicted record counts in ``dropped`` — surfaced in
    :meth:`summary` so truncation is always visible.  Records are kept
    raw; :attr:`events` renders the retained ones when they are read,
    so an evicted record is never rendered at all.
    """

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ConfigError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: Deque[Tuple[Any, ...]] = deque(maxlen=capacity)
        self.total = 0

    def emit(self, record: Tuple[Any, ...]) -> None:
        self._events.append(record)
        self.total += 1

    @property
    def dropped(self) -> int:
        """Events evicted so far: everything beyond ``capacity``."""
        return max(0, self.total - self.capacity)

    def close(self) -> None:
        pass

    @property
    def events(self) -> EventLog:
        """The retained events, oldest first, rendered on first read."""
        return EventLog(self._events)

    def summary(self) -> dict:
        return {
            "sink": "ring",
            "events": self.total,
            "retained": len(self._events),
            "dropped": self.dropped,
        }


#: Records a :class:`JsonlSink` renders in one call, so that the n
#: copies of a fan-out share one classification; ``close`` writes the tail.
JSONL_CHUNK = 1024


class JsonlSink:
    """Append events to a JSONL file, one :meth:`Event.to_dict` per line."""

    def __init__(self, path: Union[str, Any], stream: Optional[IO[str]] = None):
        self.path = str(path)
        self.total = 0
        self._owns_stream = stream is None
        if stream is None:
            try:
                parent = os.path.dirname(self.path)
                if parent:
                    os.makedirs(parent, exist_ok=True)
                stream = open(self.path, "w", encoding="utf-8")
            except OSError as exc:
                raise ConfigError(
                    f"cannot open observe trace file {self.path}: {exc}"
                ) from exc
        self._stream: Optional[IO[str]] = stream
        self._chunk: List[Tuple[Any, ...]] = []

    def emit(self, record: Tuple[Any, ...]) -> None:
        if self._stream is None:
            return
        self._chunk.append(record)
        self.total += 1
        if len(self._chunk) >= JSONL_CHUNK:
            self._write()

    def _write(self) -> None:
        for event in render_records(self._chunk):
            self._stream.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self._chunk = []

    def close(self) -> None:
        if self._stream is None:
            return
        try:
            self._write()
        finally:
            if self._owns_stream:
                self._stream.close()
            self._stream = None

    def summary(self) -> dict:
        return {"sink": "jsonl", "events": self.total, "path": self.path}


def load_events(path: Union[str, Any]) -> List[Event]:
    """Read a JSONL trace back into :class:`Event` values.

    Blank lines are skipped; malformed lines raise
    :class:`~repro.errors.ConfigError` naming the line number, so a
    truncated or corrupted trace fails loudly.
    """
    events: List[Event] = []
    try:
        with open(str(path), "rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    data = json.loads(line)
                except ValueError as exc:  # not UTF-8, or not JSON
                    raise ConfigError(
                        f"{path}:{lineno}: invalid trace line: {exc}"
                    ) from exc
                if not isinstance(data, dict) or "kind" not in data:
                    raise ConfigError(
                        f"{path}:{lineno}: not an event record: {line[:80]!r}"
                    )
                try:
                    events.append(Event.from_dict(data))
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}:{lineno}: not an event record: {exc}"
                    ) from exc
    except OSError as exc:
        raise ConfigError(f"cannot read trace file {path}: {exc}") from exc
    return events


def render_events(events: Iterable[Event], limit: Optional[int] = None) -> str:
    """The event stream as a readable multi-line timeline.

    ``limit`` keeps the newest ``limit`` events (none when it is 0).
    """
    rows = list(events)
    if limit is not None:
        rows = rows[max(0, len(rows) - limit):]
    return "\n".join(event.render() for event in rows)


__all__ = ["JsonlSink", "RingSink", "load_events", "render_events"]
