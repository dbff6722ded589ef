"""The message-passing fabric connecting processes to the simulator.

The network implements *authenticated reliable point-to-point links*: a
message sent between two correct processes is delivered exactly once,
unmodified, and the receiver learns the true sender identity (the
simulator passes the authentic ``source`` out of band, which is the
standard idealization of MACs; on tcp and mp every frame carries the
:mod:`repro.net.auth` HMAC over its wire bytes instead).

Delivery order is entirely up to the attached scheduler — the network
itself guarantees nothing about ordering, matching the paper's model.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Callable, DefaultDict, Dict, Iterable, Optional, Protocol

from ..errors import SimulationError
from ..obs.events import SEND
from ..types import Envelope, ProcessId
from .events import PendingSet
from .rng import SplitRng


def payload_kind(payload: Any) -> str:
    """A short classification label for a message payload.

    Payloads are routed tuples ``(module_id, inner)``; the kind combines
    the module with the inner message's class name so per-primitive
    message counts (VALUE vs ECHO vs READY vs step messages) fall out of
    one counter.
    """
    if isinstance(payload, tuple) and len(payload) == 2 and isinstance(payload[0], str):
        module, inner = payload
        return f"{module}/{type(inner).__name__}"
    return type(payload).__name__


class Deliverable(Protocol):
    """What the network requires of a registered process (correct or not).

    A process holding reference cycles may also define ``close()``;
    :meth:`Simulation.close <repro.sim.runner.Simulation.close>` calls it
    once the run is over.
    """

    pid: ProcessId

    def deliver(self, sender: ProcessId, payload: Any) -> None: ...

    def start(self) -> None: ...


class NetworkAPI(Protocol):
    """What processes and behaviors require of *any* message fabric.

    Both the simulator's :class:`Network` and the asyncio runtime's
    :class:`~repro.runtime.node.NodeNetwork` satisfy this structural
    interface, which is what lets the protocol stacks run unmodified in
    either world.  Protocol code must never rely on anything beyond it:
    a test or attack double needs ``rng``, ``register``, ``send``,
    ``now`` and ``trace_note``, and nothing else.

    The two fabric networks additionally define ``broadcast(source,
    payload)`` — ``n`` sends in pid order with the shared work done once
    — which :class:`~repro.sim.process.Process` uses when it is there.
    It is deliberately not part of this interface: a network that
    filters or records ``send`` must leave it out (and define no
    ``__getattr__``) to keep seeing every per-destination message.
    """

    rng: SplitRng

    def register(self, process: Deliverable) -> None: ...

    def send(self, source: ProcessId, dest: ProcessId, payload: Any) -> None: ...

    def now(self) -> float: ...

    def trace_note(self, pid: Optional[ProcessId], detail: Any) -> None: ...


class Network:
    """Registry of processes plus the in-flight message set.

    ``outbound_filter`` is a test/attack hook: a callable receiving each
    envelope before it enters the pending set; returning ``False`` drops
    the message (allowed only for traffic touching faulty processes —
    the model forbids dropping correct-to-correct traffic, and the
    default filter enforces nothing so the *harness* checks this).

    The paper's complexity claims (O(n²) messages per broadcast, O(n³)
    per consensus round) are read off the tallies kept here, so
    protocols cannot forget to report and Byzantine traffic counts like
    any other: ``sent_by_kind[pid]`` is the ``kind -> count`` table of
    the envelopes ``pid`` put in flight, ``delivered[pid]`` the
    deliveries made to it — a :class:`~repro.outcome.NodeReport`'s
    ``sent_by_kind`` and ``delivered`` as they stand — and ``dropped``
    the sends ``outbound_filter`` refused (``Simulation.run`` delivers).
    """

    def __init__(self, rng: SplitRng, pending: PendingSet):
        self.rng = rng
        self.pending = pending
        self.processes: Dict[ProcessId, Deliverable] = {}
        self.outbound_filter: Optional[Callable[[Envelope], bool]] = None
        self.sent_by_kind: DefaultDict[ProcessId, Counter] = defaultdict(Counter)
        self.delivered: Counter = Counter()
        self.dropped = 0
        #: Optional structured-event hub (:class:`repro.obs.Observer`).
        #: One ``is not None`` check per fan-out and step when disabled.
        self.observer: Optional[Any] = None
        #: Causal message ids ``"<sender>:<seq>"`` for send/deliver
        #: correlation, assigned only under an observer (a
        #: :class:`~repro.sim.effects.CausalStamper` of epoch 0, inline,
        #: kept as ints).  The uid side table carries each in-flight
        #: message's ``seq`` to its deliver record without the envelope
        #: (or the protocol payload) ever changing shape: added at
        #: ``send``, popped by the step loop's delivery.
        self._seqs: Dict[ProcessId, int] = {}
        self._mids: Dict[int, int] = {}
        self._uid = 0
        self._now_fn: Callable[[], float] = lambda: 0.0
        self._on_send: Optional[Callable[[Envelope], None]] = None

    # -- wiring used by Simulation ---------------------------------------

    def bind_clock(self, now_fn: Callable[[], float]) -> None:
        self._now_fn = now_fn

    def bind_send_hook(self, hook: Callable[[Envelope], None]) -> None:
        self._on_send = hook

    def now(self) -> float:
        return self._now_fn()

    def trace_note(self, pid: Optional[ProcessId], detail: Any) -> None:
        if self.observer is not None:
            self.observer.emit("note", node=pid, detail=detail, time=self._now_fn())

    @property
    def sent(self) -> int:
        """Every envelope put in flight so far, all sources and kinds."""
        return sum(sum(table.values()) for table in self.sent_by_kind.values())

    # -- registry ---------------------------------------------------------

    def register(self, process: Deliverable) -> None:
        if process.pid in self.processes:
            raise SimulationError(f"pid {process.pid} registered twice")
        self.processes[process.pid] = process

    # -- data plane ---------------------------------------------------------

    def send(self, source: ProcessId, dest: ProcessId, payload: Any) -> None:
        """Hand a message to the network for asynchronous delivery."""
        self._fan_out(source, (dest,), payload)

    def broadcast(self, source: ProcessId, payload: Any) -> None:
        """Hand one message per registered process (pids ``0..n-1``) to
        the network: the same envelopes, hooks and events as ``n``
        :meth:`send` calls in pid order, with the clock read and the
        send counters paid once.
        """
        self._fan_out(source, range(len(self.processes)), payload)

    def _fan_out(self, source: ProcessId, dests: Iterable[ProcessId], payload: Any) -> None:
        """One envelope per destination; what they share is done once.
        Observed, each send appends its message record to the sink's
        store itself (:mod:`repro.obs.sinks`): six scalars, no call; the
        fan-out names its payload to the sink once."""
        now = self._now_fn()
        processes, add, new = self.processes, self.pending.add, tuple.__new__
        outbound_filter, on_send = self.outbound_filter, self._on_send
        observer = self.observer
        if observer is not None:
            sink = observer.sink
            record, mids, slot = sink.record, self._mids, id(payload)
            seq = self._seqs.get(source, 0)
        sent = 0
        try:
            for dest in dests:
                if dest not in processes:
                    raise SimulationError(f"send to unknown process {dest}")
                self._uid = uid = self._uid + 1
                # ``Envelope(...)`` less the namedtuple's Python ``__new__``.
                env = new(Envelope, (uid, source, dest, payload, now))
                if outbound_filter is not None and not outbound_filter(env):
                    self.dropped += 1
                    continue
                add(env)
                sent += 1
                if observer is not None:
                    seq += 1
                    mids[uid] = seq
                    record((now, SEND, source, slot, source, seq))
                if on_send is not None:
                    on_send(env)
        finally:
            # Also when a destination is unknown: the tally covers
            # exactly the envelopes that entered the pending set.
            if sent:
                self.sent_by_kind[source][payload_kind(payload)] += sent
                if observer is not None:
                    self._seqs[source] = seq
                    sink.named(slot, payload, sent)
