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

Both keep raw records flat (:mod:`repro.obs.events`) and share one
writer protocol, which the simulator follows with no Python
call per record: ``record`` (the store's C-level ``extend``, one
record's :data:`~repro.obs.events.WIDTH` fields), then ``named(slot,
payload, n)`` once for the ``n`` records just made that name one
payload.  A closed sink is sealed: it keeps what it holds and ignores
every later write.
"""

from __future__ import annotations

import json
import os
from collections import deque
from itertools import islice
from typing import IO, Any, Dict, Iterable, List, Optional, Union

from ..errors import ConfigError
from .events import WIDTH, Event, EventLog, read_records, render_records


#: What a sealed sink records with: nothing.
_DISCARD = deque(maxlen=0).extend


class _FlatSink:
    """The flat store and payload table of a sink.  A payload-table
    entry keeps its object alive, so a slot (``id``) names one object
    while the entry exists; every writer sets the entry of the payload
    it names (:meth:`named`), so ``settle`` may drop any entry no stored
    record names.
    """

    def _open(self, fields: Any, every: int) -> None:
        self._fields = fields
        self.record = fields.extend
        self.payloads: Dict[int, Any] = {}
        self.recorded = 0
        self._every = every
        self.due = every

    @property
    def sealed(self) -> bool:
        """Closed: what the sink holds stays, and later writes are ignored."""
        return self.record is _DISCARD

    def emit(self, record: Any) -> None:
        """Hold one event record: an :class:`Event`, or its six fields."""
        if self.record is _DISCARD:
            return
        self.record((record, None, None, None, None, None))
        self.recorded += 1
        if self.recorded >= self.due:
            self.settle()

    def message(self, time: float, kind: int, node: Optional[int],
                payload: Any, sender: Any, seq: int) -> None:
        """Record a ``SEND``/``DELIVER`` with causal id ``"<sender>:<seq>"``
        (``seq`` 0: ``sender`` is the id, or ``None``)."""
        slot = id(payload)
        self.record((time, kind, node, slot, sender, seq))
        self.named(slot, payload, 1)

    def named(self, slot: int, payload: Any, n: int) -> None:
        """Count the ``n`` records just made through ``record`` that name
        ``payload`` by ``slot``, and keep the payload.  A writer calls
        this once per payload, not per record; ``Simulation.run``
        inlines it per delivery, as a call there is a frame a record."""
        if self.record is _DISCARD:
            return
        self.payloads[slot] = payload
        self.recorded += n
        if self.recorded >= self.due:
            self.settle()

    def settle(self) -> None:
        """Bound the store (the sink's ``_settle``), every ``_every`` records."""
        self.due = self.recorded + self._every
        self._settle()


class RingSink(_FlatSink):
    """Bounded in-memory event buffer.

    ``capacity`` caps retained records; overflow evicts the oldest, and
    every evicted record counts in ``dropped`` — surfaced in
    :meth:`summary` so truncation is always visible.  Records are kept
    raw; :attr:`events` renders the retained ones when they are read,
    so an evicted record is never rendered at all.  Every ``capacity``
    records the payload table drops the payloads no retained record
    names, so it never holds more than ``2 * capacity``.
    """

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ConfigError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._open(deque(maxlen=capacity * WIDTH), capacity)

    def _settle(self) -> None:
        named = set(islice(self._fields, 3, None, WIDTH))
        payloads = self.payloads
        for slot in [slot for slot in payloads if slot not in named]:
            del payloads[slot]

    @property
    def dropped(self) -> int:
        """Events recorded but no longer retained."""
        return self.recorded - len(self._fields) // WIDTH

    def close(self) -> None:
        """Seal the ring: it keeps what it holds, ignores later records,
        and :attr:`events` shares the store instead of copying it."""
        self.record = _DISCARD

    @property
    def events(self) -> EventLog:
        """The retained events, oldest first, rendered on first read."""
        fields = self._fields
        return EventLog(fields if self.sealed else list(fields), self.payloads)

    def summary(self) -> dict:
        return {
            "sink": "ring",
            "events": self.recorded,
            "retained": len(self._fields) // WIDTH,
            "dropped": self.dropped,
        }


#: Records a :class:`JsonlSink` renders in one call, so that the n
#: copies of a fan-out share one classification; ``close`` writes the tail.
JSONL_CHUNK = 1024


class JsonlSink(_FlatSink):
    """Append events to a JSONL file, one :meth:`Event.to_dict` per line."""

    def __init__(self, path: Union[str, Any], stream: Optional[IO[str]] = None):
        self.path = str(path)
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
        self._open([], JSONL_CHUNK)

    def _settle(self) -> None:
        """Write the pending chunk."""
        for event in render_records(read_records(self._fields, self.payloads)):
            self._stream.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self._fields.clear()
        self.payloads.clear()

    def close(self) -> None:
        if self._stream is None:
            return
        self.record = _DISCARD
        try:
            self._settle()
        finally:
            if self._owns_stream:
                self._stream.close()
            self._stream = None

    def summary(self) -> dict:
        return {"sink": "jsonl", "events": self.recorded, "path": self.path}


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
