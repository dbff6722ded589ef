"""The structured event schema shared by every fabric.

An :class:`Event` is one timeline entry of a protocol execution:
*when* (monotonic time — virtual on the simulator, seconds since run
start on the runtime fabrics), *who* (node pid), *where in the protocol*
(instance/module tag and round, when extractable), *what* (kind), and a
JSON-safe detail.

The schema is deliberately flat and JSON-friendly — an event is a
six-field ``NamedTuple`` — and every event
serializes to one line of JSONL (:meth:`Event.to_dict`), loads back
losslessly (:meth:`Event.from_dict`), and projects to a *logical* key
(:meth:`Event.logical`) that strips time so event streams can be
compared across fabrics — the same fixed-seed run on ``sim``, ``local``,
and ``tcp`` differs in timing and interleaving but must agree on the
logical protocol events (what the determinism tests in
``tests/obs/test_trace_determinism.py`` hold the repository to).

Event kinds emitted by the built-in instrumentation:

====================  ======================================================
kind                  emitted by
====================  ======================================================
``send``              a protocol message handed to the network (both worlds)
``deliver``           a protocol message delivered to a process
``note``              a protocol annotation (``ctx.note``)
``decide``            a protocol instance reached its decision
``frame``             the runtime node flushed one wire frame (batching)
``retransmit``        the reliable link resent an unacked frame
``abandon``           the reliable link gave up on a frame (faulty peer)
``netem``             a link-policy verdict dropped/duplicated a frame
``restart``           a restart-fault node went down / was respawned
``recovery_replayed`` a recovered node finished replaying its WAL (kept
                      in memory on the simulator); detail ``replayed``
``recovery_complete`` the recovered node rejoined; detail carries
                      ``recovery_time``
====================  ======================================================

Recording and reading are split, as in raw-record tracers: a run hands
its sink *raw records*, kept flat, :data:`WIDTH` fields each, and an
:class:`Event` is built only when someone reads one (:func:`read_records`,
then :func:`render_records`, the one renderer).  A ``send``/``deliver``
is six scalars ``(time, SEND | DELIVER, node, slot, sender, seq)``:
``slot`` names the payload in the sink's payload table, and the id
``"<sender>:<seq>"`` is formatted when read (with ``seq`` 0, ``sender``
is the id, or ``None``).  Any other event is held whole.  A payload is
classified (:func:`classify_payload`) once per object read, so a run
classifies nothing, and a record of scalars gives the garbage collector
nothing to track: on sim-observed-n7x8 (2-core host) an observed run
starts ~28 gen0 collections, an unobserved one ~19 (~102 while records
referred to their payloads).
:class:`EventLog` is the read side of a ring: a ``Sequence[Event]``
that renders its records once, on first access to an element.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

#: Stable field order for the JSONL encoding — one writer, one shape.
_FIELDS = ("t", "kind", "node", "inst", "round", "detail")


class Event(NamedTuple):
    """One structured observability record.

    A ``NamedTuple``: immutable, compared field by field, built by
    keyword or — on the emission path — positionally in field order at
    the cost of one tuple allocation.
    """

    time: float
    kind: str
    node: Optional[int] = None
    instance: Optional[str] = None
    round: Optional[int] = None
    detail: Any = None

    def to_dict(self) -> Dict[str, Any]:
        """A compact JSON-ready mapping (``None`` fields omitted)."""
        out: Dict[str, Any] = {"t": round_time(self.time), "kind": self.kind}
        if self.node is not None:
            out["node"] = self.node
        if self.instance is not None:
            out["inst"] = self.instance
        if self.round is not None:
            out["round"] = self.round
        if self.detail is not None:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Event":
        """Rebuild an event from its :meth:`to_dict` mapping.

        A ``t`` that is not a number, a ``node``/``round`` that is not
        an integer, or an ``inst`` that is not a string raises
        :class:`ValueError` naming the field —
        :func:`~repro.obs.sinks.load_events` turns it into a
        ``ConfigError`` with the line number.
        """
        time = data.get("t", 0.0)
        if isinstance(time, bool) or not isinstance(time, (int, float)):
            raise ValueError(f"event time 't' must be a number, got {time!r}")
        for key in ("node", "round"):
            value = data.get(key)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise ValueError(
                    f"event {key!r} must be an integer, got {value!r}"
                )
        instance = data.get("inst")
        if instance is not None and not isinstance(instance, str):
            raise ValueError(f"event 'inst' must be a string, got {instance!r}")
        return cls(
            float(time),
            str(data.get("kind", "")),
            data.get("node"),
            instance,
            data.get("round"),
            data.get("detail"),
        )

    def logical(self) -> Tuple[Any, ...]:
        """The event without its timestamp — the cross-fabric identity."""
        return (self.kind, self.node, self.instance, self.round, self.detail)

    def render(self) -> str:
        who = "  *" if self.node is None else f"p{self.node:>2}"
        where = f" [{self.instance}]" if self.instance else ""
        round_ = f" r{self.round}" if self.round is not None else ""
        return (
            f"[{self.time:>12.6f}] {who} {self.kind:<10}"
            f"{where}{round_} {self.detail if self.detail is not None else ''}"
        )


def round_time(value: float) -> float:
    """Quantize a timestamp to microseconds for a stable JSONL encoding.

    Virtual times are already exact; wall-clock floats carry noise bits
    that would make otherwise-identical streams differ textually.
    """
    return round(value, 6)


#: ``(instance, round, detail)`` — what :func:`classify_payload` returns.
Classified = Tuple[Optional[str], Optional[int], str]

#: Fields per record in a sink's flat store.
WIDTH = 6
#: The kind field of a message record (any other record holds ``None``).
SEND, DELIVER = 0, 1
_MESSAGE_KINDS = ("send", "deliver")

_new_event = tuple.__new__


def read_records(fields: Iterable[Any], payloads: Dict[int, Any]) -> List[Tuple[Any, ...]]:
    """A sink's flat store as records, oldest first.

    A message record comes back as ``(time, kind, node, payload, mid)``
    — its payload looked up in ``payloads`` by slot, its causal id
    formatted — and any other as the record that was held.
    """
    return [
        r[0] if r[1] is None else (
            r[0], _MESSAGE_KINDS[r[1]], r[2], payloads[r[3]],
            f"{r[4]}:{r[5]}" if r[5] else r[4],
        )
        for r in zip(*[iter(fields)] * WIDTH)
    ]


def render_records(records: Iterable[Tuple[Any, ...]]) -> List[Event]:
    """The :class:`Event` each record stands for, in order.

    A 5-tuple ``(time, kind, node, payload, mid)`` is a message record
    (:func:`read_records`): its payload is classified here, through a
    memo keyed by ``id(payload)`` that lives for this one call and holds
    each payload it describes, so no id is reused while it exists — and
    its detail is wrapped as ``{"msg": mid, "payload": detail}`` when
    the message carries a causal id.  Anything else holds the six
    :class:`Event` fields in order — an :class:`Event` comes back as it is.
    """
    memo: Dict[int, Tuple[Any, ...]] = {}
    # One comprehension, not a call per record: a ring is read in one
    # pass of tens of thousands of records.
    return [
        _new_event(Event, (
            r[0], r[1], r[2], c[0], c[1],
            c[2] if r[4] is None else {"msg": r[4], "payload": c[2]},
        ))
        if len(r) == 5 and (c := memo.get(id(r[3])) or memo.setdefault(
            id(r[3]), (*classify_payload(r[3]), r[3])))
        else r if type(r) is Event else _new_event(Event, r)
        for r in records
    ]


class EventLog(Sequence):
    """A read-only ``Sequence[Event]`` over a sink's flat store.

    ``fields`` is a store (:func:`read_records`) that no sink writes any
    more, and ``payloads`` its payload table, copied.  ``len`` and
    ``bool`` count the records; the first access to an element
    (indexing, slicing, iteration, comparison) renders all of them once
    with :func:`render_records`, and the store is dropped.  It compares
    equal to the ``list`` of the same events.
    """

    __slots__ = ("_fields", "_payloads", "_events")

    def __init__(self, fields: Any, payloads: Dict[int, Any]):
        self._fields, self._payloads = fields, dict(payloads)
        self._events: Optional[List[Event]] = None

    def _rendered(self) -> List[Event]:
        if self._events is None:
            self._events = render_records(read_records(self._fields, self._payloads))
            self._fields = self._payloads = None
        return self._events

    def __len__(self) -> int:
        if self._events is not None:
            return len(self._events)
        return len(self._fields) // WIDTH

    def __getitem__(self, index: Any) -> Any:
        return self._rendered()[index]

    def __iter__(self) -> Iterator[Event]:
        return iter(self._rendered())

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, EventLog):
            other = other._rendered()
        elif not isinstance(other, list):
            return NotImplemented
        return self._rendered() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"EventLog({self._rendered()!r})"


def classify_payload(payload: Any) -> Classified:
    """Best-effort ``(instance, round, detail)`` extraction from a payload.

    Wire payloads are routed tuples ``(module_id, inner)``; the inner
    message may carry a ``round`` attribute (Ben-Or / MMR-14 votes) or a
    broadcast ``instance`` tuple of the conventional shape
    ``(module_id, round, step, originator)`` (Bracha's consensus steps).
    Extraction is observational only — unknown shapes degrade to
    ``(None, None, repr(payload))``, never to an error.

    The ``repr`` is the cost (the whole message rendered), so
    :func:`render_records` calls this once per payload *object* it
    reads, and never during a run.
    """
    instance: Optional[str] = None
    round_: Optional[int] = None
    inner = payload
    if isinstance(payload, tuple) and len(payload) == 2 and isinstance(payload[0], str):
        instance = payload[0]
        inner = payload[1]

    found = getattr(inner, "round", None)
    if isinstance(found, int):
        round_ = found
    else:
        # Broadcast messages name their instance; consensus instances are
        # (module_id, round, step, originator) tuples by convention.
        tag = getattr(inner, "instance", None)
        if (
            isinstance(tag, tuple)
            and len(tag) == 4
            and isinstance(tag[0], str)
            and isinstance(tag[1], int)
        ):
            instance = tag[0]
            round_ = tag[1]
    return instance, round_, repr(inner)


__all__ = [
    "Classified",
    "DELIVER",
    "Event",
    "EventLog",
    "SEND",
    "WIDTH",
    "classify_payload",
    "read_records",
    "render_records",
    "round_time",
]
