"""The message-passing fabric connecting processes to the simulator.

The network implements *authenticated reliable point-to-point links*: a
message sent between two correct processes is delivered exactly once,
unmodified, and the receiver learns the true sender identity (the
simulator passes the authentic ``source`` out of band, which is the
standard idealization of MACs; :mod:`repro.net.auth` additionally
implements the MAC machinery explicitly for the link-layer tests).

Delivery order is entirely up to the attached scheduler — the network
itself guarantees nothing about ordering, matching the paper's model.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Callable, DefaultDict, Dict, Iterable, Optional, Protocol, Tuple

from ..errors import SimulationError
from ..types import Envelope, ProcessId
from .effects import CausalStamper
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
    the sends ``outbound_filter`` refused.
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
        #: One ``is not None`` check per send/deliver when disabled.
        self.observer: Optional[Any] = None
        #: Causal message ids for send/deliver correlation.  Stamping
        #: happens only under an observer; the uid side table carries
        #: each in-flight message's id — and the classification of its
        #: payload made at ``send`` — to its deliver event without the
        #: envelope (or the protocol payload) ever changing shape.  One
        #: entry per pending envelope: added at ``send``, popped at
        #: ``deliver``.
        self.stamper = CausalStamper()
        self._mids: Dict[int, Tuple[str, Any]] = {}
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

    def replace(self, process: Deliverable) -> None:
        """Swap in a different implementation for a pid (fault injection)."""
        if process.pid not in self.processes:
            raise SimulationError(f"pid {process.pid} not registered")
        self.processes[process.pid] = process

    @property
    def n(self) -> int:
        return len(self.processes)

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
        self._fan_out(source, range(self.n), payload)

    def _fan_out(self, source: ProcessId, dests: Iterable[ProcessId], payload: Any) -> None:
        """One envelope per destination; what they share is done once."""
        now = self._now_fn()
        processes, add = self.processes, self.pending.add
        outbound_filter, on_send = self.outbound_filter, self._on_send
        observer = self.observer
        sent = 0
        try:
            for dest in dests:
                if dest not in processes:
                    raise SimulationError(f"send to unknown process {dest}")
                self._uid = uid = self._uid + 1
                env = Envelope(uid, source, dest, payload, now)
                if outbound_filter is not None and not outbound_filter(env):
                    self.dropped += 1
                    continue
                add(env)
                sent += 1
                if observer is not None:
                    mid = self.stamper.stamp(source)
                    classified = observer.message(
                        "send", source, payload, time=now, mid=mid
                    )
                    self._mids[uid] = (mid, classified)
                if on_send is not None:
                    on_send(env)
        finally:
            # Also when a destination is unknown: the tally covers
            # exactly the envelopes that entered the pending set.
            if sent:
                self.sent_by_kind[source][payload_kind(payload)] += sent

    def deliver(self, rank: int, time: float) -> None:
        """Take the ``rank``-th oldest in-flight envelope out of the
        pending set and deliver it to its destination (runner only).

        The caller names a rank, never an envelope, so a delivery can
        reorder but not forge; an out-of-range rank raises
        :class:`IndexError` before anything is delivered.
        """
        env = self.pending.pop(rank)
        self.delivered[env.dest] += 1
        if self.observer is not None:
            # Sent before the observer was attached: no id, classify now.
            mid, classified = self._mids.pop(env.uid, (None, None))
            self.observer.message(
                "deliver", env.dest, env.payload, time=time,
                mid=mid, classified=classified,
            )
        target = self.processes.get(env.dest)
        if target is not None:
            target.deliver(env.source, env.payload)
