"""Per-node asynchronous transport endpoints.

A :class:`Transport` is one node's connection to the rest of the
cluster: an outbound ``send`` attributed to the node's own pid (the
authenticated-links assumption: a node cannot speak in another's name)
and an inbound stream consumed with ``recv``.  Delivery between correct
nodes is reliable and unordered-across-links, exactly the asynchronous
model of the paper — here the nondeterminism comes from real
interleaving of tasks or sockets rather than from a seeded scheduler.

:class:`LocalHub` wires ``n`` in-process endpoints over ``asyncio``
queues — the tcp path minus MAC and socket: every payload still makes
the :mod:`~repro.runtime.binarycodec` round trip, so in-process runs
exercise the wire representation and serialization bugs surface in fast
tests.  The TCP implementation lives in :mod:`repro.runtime.tcp`.

Both ends of that round trip do the work once per *distinct* payload,
here for every :class:`InboxTransport`: the sender packs a payload
object once for all its destinations (:meth:`InboxTransport._body`), and
the receiver decodes each distinct body once
(:attr:`InboxTransport.memo`, a
:class:`~repro.runtime.binarycodec.BodyMemo`) — Bracha hands every
process 2n+1 frames per broadcast, of which 3 are distinct byte strings.
The copy a node sends itself is not decoded at all when the encoder
vouches for an exact round trip (:meth:`InboxTransport._loopback`).

Transports move *wire frames* and never look inside: a payload may be a
single protocol message or a whole :class:`~repro.runtime.codec.WireBatch`
coalesced by the node's batching pipeline — either way it is one
dispatch, one codec round-trip, one netem verdict.
"""

from __future__ import annotations

import abc
import asyncio
from typing import TYPE_CHECKING, Any, Dict, Optional, Set, Tuple

from ..errors import ReproError
from ..types import ProcessId
from . import binarycodec

if TYPE_CHECKING:  # imported lazily at runtime to keep the layer light
    from ..netem.clock import Clock
    from ..netem.policy import LinkPolicy


class TransportClosed(ReproError):
    """Raised by ``recv`` once the endpoint is closed and drained."""


class Transport(abc.ABC):
    """One node's message endpoint.

    Lifecycle: ``await start()`` (bind listeners), ``await connect()``
    (establish outbound links; a no-op for in-process transports), then
    ``send``/``recv`` freely, and finally ``await close()``.
    """

    pid: ProcessId

    async def start(self) -> None:
        """Bind inbound resources (servers, queues)."""

    async def connect(self) -> None:
        """Establish outbound links to every peer."""

    @abc.abstractmethod
    async def send(self, dest: ProcessId, payload: Any) -> None:
        """Send ``payload`` to ``dest``, attributed to ``self.pid``."""

    @abc.abstractmethod
    async def recv(self) -> Tuple[ProcessId, Any]:
        """Await the next inbound ``(sender, payload)``."""

    async def close(self) -> None:
        """Release resources; pending ``recv`` raises :class:`TransportClosed`."""


_CLOSED = object()  # sentinel pushed into inboxes on close


class InboxTransport(Transport):
    """Base for endpoints that deliver through a local ``asyncio.Queue``.

    Subclasses push inbound messages with :meth:`_push` and signal
    shutdown with :meth:`_push_closed`; ``recv`` and the close-sentinel
    semantics live here so every transport drains and closes the same
    way.  So do the two halves of the codec round trip: :meth:`_body`
    on the way out, :attr:`memo` on the way in, and the short cut
    between them for a payload the endpoint sends itself
    (:meth:`_loopback`).  A delivery is never another node's object.
    """

    def __init__(self) -> None:
        self._inbox: asyncio.Queue = asyncio.Queue()
        self._closed = False
        self.delivered = 0
        #: Every body this endpoint receives is decoded through here —
        #: once per distinct body.  Per endpoint by construction: two
        #: nodes hosted in one process never serve each other.
        self.memo = binarycodec.BodyMemo()
        #: The last payload object packed, its body and the encoder's
        #: exact verdict (see :meth:`_body`).
        self._packed: Optional[Tuple[Any, bytes, bool]] = None

    def _body(self, payload: Any) -> bytes:
        """The body of ``payload``, packed once per payload *object*.

        A broadcast reaches a transport as consecutive sends of one
        object — the same routed message with ``batching: off``, the
        same :class:`~repro.runtime.codec.WireBatch` from the node's
        flush otherwise — self-delivery included.  Remembering the last
        object packed (by identity, with a strong reference, so the id
        cannot be reused) turns those n codec passes into one.  Equal
        but distinct objects are packed again: an equivocating sender
        hands over different objects per destination and gets different
        bytes on each link.  Payloads are immutable wire values; nothing
        mutates one between two sends.  The encoder's exact verdict is
        kept beside the body for :meth:`_loopback`, and an exact body is
        seeded into this endpoint's own memo as it is packed — before
        the first send of it yields — so a peer's identical body is a
        hit even when it arrives ahead of the self-send.
        """
        packed = self._packed
        if packed is None or packed[0] is not payload:
            packed = self._packed = (payload, *binarycodec.pack(payload))
            if packed[2]:
                self.memo.seed(packed[1], payload)
        return packed[1]

    def _loopback(self, payload: Any) -> Any:
        """What this endpoint delivers when it sends ``payload`` to itself.

        Bracha counts a process's own ECHO and READY toward its quorums,
        so every broadcast includes this copy.  When the encoder
        vouched for an exact round trip it is ``payload`` itself, never
        decoded (:meth:`_body` seeded its body).  Anything else is
        decoded through the memo as a peer's body is — a fresh object
        with the types a decode normalises to.
        """
        body = self._body(payload)
        return payload if self._packed[2] else self.memo.loads(body)

    def _push(self, sender: ProcessId, payload: Any) -> None:
        self._inbox.put_nowait((sender, payload))

    def _push_closed(self) -> None:
        self._inbox.put_nowait(_CLOSED)

    async def recv(self) -> Tuple[ProcessId, Any]:
        item = await self._inbox.get()
        if item is _CLOSED:
            raise TransportClosed(f"transport of node {self.pid} closed")
        self.delivered += 1
        return item


class LocalTransport(InboxTransport):
    """In-process endpoint wired to its peers through a :class:`LocalHub`."""

    def __init__(self, hub: "LocalHub", pid: ProcessId):
        super().__init__()
        self.hub = hub
        self.pid = pid

    async def send(self, dest: ProcessId, payload: Any) -> None:
        if self._closed:
            return  # a closed node's late sends vanish, like a dead socket
        await self.hub.dispatch(self.pid, dest, payload)

    async def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._push_closed()


class LocalHub:
    """Shared fabric for ``n`` in-process endpoints.

    Every dispatch round-trips the payload through the wire codec — the
    source endpoint packs it (once per payload object), the destination
    endpoint's memo decodes the bytes (once per distinct body), so a
    delivery is never another node's object; an endpoint's own exact
    payload comes back to it as the object it sent
    (:meth:`InboxTransport._loopback`).  A payload the codec refuses
    raises its :class:`~repro.runtime.codec.CodecError` out of ``send``.

    With a :class:`~repro.netem.policy.LinkPolicy` (and its clock)
    installed, every dispatch consults the policy: dropped frames
    vanish, delayed/duplicated copies are delivered by tasks sleeping on
    the clock — under the deterministic
    :class:`~repro.netem.clock.TickClock`, in a fully reproducible
    order.

    >>> hub = LocalHub(4)
    >>> transports = [hub.endpoint(pid) for pid in range(4)]
    """

    def __init__(
        self,
        n: int,
        policy: Optional["LinkPolicy"] = None,
        clock: Optional["Clock"] = None,
    ):
        if n < 1:
            raise ReproError(f"hub needs at least one node, got n={n}")
        if policy is not None and clock is None:
            raise ReproError("a hub with a link policy needs a clock")
        self.n = n
        self.policy = policy
        self.clock = clock
        self._endpoints: Dict[ProcessId, LocalTransport] = {}
        self._delayed: Set[asyncio.Task] = set()

    def endpoint(self, pid: ProcessId) -> LocalTransport:
        if not 0 <= pid < self.n:
            raise ReproError(f"pid {pid} out of range for n={self.n}")
        endpoint = self._endpoints.get(pid)
        if endpoint is None:
            endpoint = LocalTransport(self, pid)
            self._endpoints[pid] = endpoint
        return endpoint

    async def dispatch(self, source: ProcessId, dest: ProcessId, payload: Any) -> None:
        if not 0 <= dest < self.n:
            raise ReproError(f"send to unknown node {dest}")
        receiver = self.endpoint(dest)
        if source == dest:
            payload = receiver._loopback(payload)
        else:
            payload = receiver.memo.loads(self.endpoint(source)._body(payload))
        if self.policy is not None:
            verdict = self.policy.plan(source, dest, self.clock.now())
            if verdict.dropped:
                await asyncio.sleep(0)
                return
            for delay in verdict.delays:
                if delay <= 0:
                    receiver._push(source, payload)
                else:
                    task = asyncio.ensure_future(
                        self._deliver_later(source, dest, payload, delay)
                    )
                    self._delayed.add(task)
                    task.add_done_callback(self._delayed.discard)
        else:
            receiver._push(source, payload)
        # Yield to the event loop so sends interleave with other nodes'
        # progress instead of letting one node run a long synchronous
        # burst — closer to real concurrency, and it keeps any single
        # inbox from starving.
        await asyncio.sleep(0)

    async def _deliver_later(
        self, source: ProcessId, dest: ProcessId, payload: Any, delay: float
    ) -> None:
        await self.clock.sleep(delay)
        endpoint = self._endpoints.get(dest)
        if endpoint is not None and not endpoint._closed:
            endpoint._push(source, payload)

    async def close(self) -> None:
        """Cancel in-flight delayed deliveries and drop the endpoints,
        which refer back to this hub (cluster teardown)."""
        for task in list(self._delayed):
            task.cancel()
        if self._delayed:
            await asyncio.gather(*self._delayed, return_exceptions=True)
        self._delayed.clear()
        self._endpoints.clear()


__all__ = [
    "InboxTransport",
    "LocalHub",
    "LocalTransport",
    "Transport",
    "TransportClosed",
]
