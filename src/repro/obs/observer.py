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
from typing import Any, Callable, List, Optional, Tuple

from ..errors import ConfigError
from .events import Classified, Event, classify_payload
from .sinks import JsonlSink, RingSink

#: The validated observe modes of the Scenario field.
OBSERVE_MODES = ("off", "ring", "ring:N", "jsonl", "jsonl:PATH")

DEFAULT_RING_CAPACITY = 100_000
DEFAULT_JSONL_PATH = "obs_trace.jsonl"


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


#: What the memo holds before the first classification (no payload is it).
_NO_PAYLOAD = object()

_new_event = tuple.__new__


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
        #: The last payload object classified and its classification:
        #: one entry, compared with ``is``.  Holding the payload itself
        #: (not its ``id``) keeps it alive, so a new object can never
        #: be mistaken for it at a reused address.
        self._last_payload: Any = _NO_PAYLOAD
        self._last_classified: Classified = (None, None, "")

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
        # ``tuple.__new__`` is the NamedTuple's own constructor minus its
        # generated Python frame: the same record, one frame fewer.
        self.sink.emit(_new_event(Event, (
            self._clock() if time is None else time,
            kind, node, instance, round, detail,
        )))

    def message(
        self,
        kind: str,
        node: Optional[int],
        payload: Any,
        time: Optional[float] = None,
        mid: Optional[str] = None,
        classified: Optional[Classified] = None,
    ) -> Classified:
        """Emit a ``send``/``deliver`` event, classifying the payload.

        ``mid`` is the causal message id assigned by the fabric's
        :class:`~repro.sim.effects.CausalStamper`; when present the
        event detail becomes ``{"msg": mid, "payload": <repr>}`` so a
        ``deliver`` can be correlated with the ``send`` that caused it
        (:mod:`repro.obs.causality`).

        A payload *object* is classified once: consecutive calls with
        the same object (the n sends a ``Broadcast`` expands to) reuse
        the last classification, and the classification is returned so
        a fabric that still holds the object at delivery can hand it
        back as ``classified`` instead of having it derived again.
        Sharing is by identity only — an equal but distinct object is
        classified on its own.
        """
        if classified is None:
            if payload is self._last_payload:
                classified = self._last_classified
            else:
                classified = classify_payload(payload)
                self._last_payload = payload
                self._last_classified = classified
        instance, round_, detail = classified
        # Not through :meth:`emit`: one frame per message event.
        self.sink.emit(_new_event(Event, (
            self._clock() if time is None else time,
            kind, node, instance, round_,
            detail if mid is None else {"msg": mid, "payload": detail},
        )))
        return classified

    # -- lifecycle -----------------------------------------------------------

    def events(self) -> List[Event]:
        """Retained events (ring sink only; empty for file sinks)."""
        return getattr(self.sink, "events", [])

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
