"""The observer: one emission hub per run, shared by every layer.

A run owns at most one :class:`Observer`.  The fabrics hand it to the
layers that see interesting things happen — the simulator network, the
runtime node pump/flush path, the reliable link, the netem policy — and
each layer guards its emission with one ``observer is not None`` check,
so a run without observability pays a single attribute read per hot-path
call and nothing else.

Selection is a validated spec string (the scenario ``observe`` field),
parsed by :func:`parse_observe`:

* ``"off"`` / ``None`` — no observer (the default);
* ``"ring"`` / ``"ring:N"`` — in-memory ring buffer of the newest ``N``
  events (default 100000), attached to ``RunResult.meta["obs_events"]``;
* ``"jsonl"`` / ``"jsonl:PATH"`` — JSONL trace file (default path
  ``obs_trace.jsonl``), readable by ``repro report`` and
  :func:`~repro.obs.sinks.load_events`.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional, Tuple

from ..errors import ConfigError
from .events import DELIVER, SEND, EventLog
from .sinks import JsonlSink, RingSink

#: The validated observe modes of the Scenario field.
OBSERVE_MODES = ("off", "ring", "ring:N", "jsonl", "jsonl:PATH")

DEFAULT_RING_CAPACITY = 100_000
DEFAULT_JSONL_PATH = "obs_trace.jsonl"

_MESSAGE_KINDS = {"send": SEND, "deliver": DELIVER}


def parse_observe(spec: Any) -> Tuple[str, Any]:
    """Validate an observe spec; return ``(mode, arg)``.

    ``arg`` is the ring capacity for ``ring`` modes and the file path
    for ``jsonl`` modes.  Anything unrecognized raises
    :class:`~repro.errors.ConfigError` listing the accepted modes.
    """
    if spec is None or spec == "off":
        return ("off", None)
    if spec == "ring":
        return ("ring", DEFAULT_RING_CAPACITY)
    if isinstance(spec, str) and spec.startswith("ring:"):
        text = spec[len("ring:"):]
        try:
            capacity = int(text)
        except ValueError:
            raise ConfigError(
                f"bad observe spec {spec!r}: {text!r} is not an integer"
            ) from None
        if capacity < 1:
            raise ConfigError(
                f"observe 'ring:N' needs N >= 1, got {capacity}"
            )
        return ("ring", capacity)
    if spec == "jsonl":
        return ("jsonl", DEFAULT_JSONL_PATH)
    if isinstance(spec, str) and spec.startswith("jsonl:"):
        path = spec[len("jsonl:"):]
        if not path:
            raise ConfigError("observe 'jsonl:PATH' needs a non-empty path")
        return ("jsonl", path)
    raise ConfigError(
        f"unknown observe spec {spec!r}; choose from {list(OBSERVE_MODES)}"
    )


class Observer:
    """Event emission hub for one run.

    ``clock`` supplies the event timestamps; the hosting fabric binds it
    to its own notion of time (virtual time on the simulator, seconds
    since run start on the runtime) via :meth:`bind_clock` so the whole
    run shares one timeline.
    """

    def __init__(self, sink: Any):
        self.sink = sink
        self._clock: Callable[[], float] = lambda: 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # -- emission ------------------------------------------------------------

    def emit(
        self,
        kind: str,
        node: Optional[int] = None,
        instance: Optional[str] = None,
        round: Optional[int] = None,
        detail: Any = None,
        time: Optional[float] = None,
    ) -> None:
        # A plain tuple in :class:`Event` field order, rendered on read.
        self.sink.emit((
            self._clock() if time is None else time,
            kind, node, instance, round, detail,
        ))

    def message(
        self,
        kind: str,
        node: Optional[int],
        payload: Any,
        time: Optional[float] = None,
        mid: Optional[str] = None,
    ) -> None:
        """Record a ``send``/``deliver``, its payload described only when
        read (:func:`~repro.obs.events.render_records`).  With a ``mid``
        the event detail is ``{"msg": mid, "payload": <repr>}``, which
        :mod:`repro.obs.report` correlates."""
        self.sink.message(self._clock() if time is None else time,
                          _MESSAGE_KINDS[kind], node, payload, mid, 0)

    # -- lifecycle -----------------------------------------------------------

    def events(self) -> EventLog:
        """Retained events, rendered on first read (ring sink only;
        empty for file sinks)."""
        events = getattr(self.sink, "events", None)
        return EventLog((), {}) if events is None else events

    def close(self) -> dict:
        """Flush and close the sink; return its summary mapping."""
        self.sink.close()
        return self.sink.summary()


def build_observer(spec: Any) -> Optional[Observer]:
    """Build the observer selected by an observe spec (``None`` = off).

    A ``jsonl`` path whose parent directory is missing raises
    :class:`~repro.errors.ConfigError` here, when the run opens its
    sink and before any message moves — not at spec-parse time, which
    would tie building a :class:`~repro.scenario.spec.Scenario` (and
    importing the catalog) to the caller's working directory.
    """
    mode, arg = parse_observe(spec)
    if mode == "off":
        return None
    if mode == "ring":
        return Observer(RingSink(capacity=arg))
    parent = os.path.dirname(arg)
    if parent and not os.path.isdir(parent):
        raise ConfigError(
            f"observe 'jsonl:{arg}': directory {parent!r} does not "
            "exist — create it before the run"
        )
    return Observer(JsonlSink(arg))


__all__ = [
    "DEFAULT_JSONL_PATH",
    "DEFAULT_RING_CAPACITY",
    "OBSERVE_MODES",
    "Observer",
    "build_observer",
    "parse_observe",
]
