"""Event sinks: where an observer's event stream goes.

Three built-ins, selected by the scenario ``observe`` field:

* :class:`RingSink` — bounded in-memory buffer (the default).  Keeps the
  newest events once the capacity is reached and counts what it dropped,
  so a long run cannot exhaust memory *and* cannot silently pretend the
  trace is complete.
* :class:`JsonlSink` — one event per line, append-only, flushed on
  close.  The file format is the stable :meth:`Event.to_dict` shape;
  :func:`load_events` reads it back.
* :func:`render_events` — the human timeline (used by ``repro report``
  and by tests).
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import IO, Any, Deque, Iterable, List, Optional, Union

from ..errors import ConfigError
from .events import Event


class RingSink:
    """Bounded in-memory event buffer.

    ``capacity`` caps retained events; overflow evicts the oldest, and
    every evicted event counts in ``dropped`` — surfaced in
    :meth:`summary` so truncation is always visible.
    """

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ConfigError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: Deque[Event] = deque(maxlen=capacity)
        self.total = 0

    def emit(self, event: Event) -> None:
        self._events.append(event)
        self.total += 1

    @property
    def dropped(self) -> int:
        """Events evicted so far: everything beyond ``capacity``."""
        return max(0, self.total - self.capacity)

    def close(self) -> None:
        pass

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    def summary(self) -> dict:
        return {
            "sink": "ring",
            "events": self.total,
            "retained": len(self._events),
            "dropped": self.dropped,
        }


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

    def emit(self, event: Event) -> None:
        if self._stream is None:
            return
        self._stream.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self.total += 1

    def close(self) -> None:
        if self._stream is not None and self._owns_stream:
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
        with open(str(path), "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
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
    """The event stream as a readable multi-line timeline."""
    rows = list(events)
    if limit is not None:
        rows = rows[-limit:]
    return "\n".join(event.render() for event in rows)


__all__ = ["JsonlSink", "RingSink", "load_events", "render_events"]
