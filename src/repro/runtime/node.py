"""Bridging synchronous protocol modules onto async transports.

The protocol classes are deterministic state machines driven through two
sim-facing entry points — ``start()`` and ``deliver(sender, payload)`` —
and they emit *effects* (sends, notes) into their process outbox while
handling a delivery.  Nothing in them may block or await.

:class:`NodeNetwork` satisfies the network surface those classes use
(``send``, ``register``, ``rng``, ``now``, ``trace_note`` — see
:class:`repro.sim.network.NetworkAPI`), but instead of scheduling into a
simulator it buffers outbound messages in a wire outbox.  :class:`Node`
owns the event-loop side: one task awaits the transport inbox, feeds
each inbound message to the process, then flushes the outbox to the
transport.  Protocol code therefore runs *unmodified* in both worlds;
asynchrony now comes from task/socket interleaving instead of a seeded
scheduler.

**Batching.**  The flush is where the batched message pipeline lives:
with ``batching="flush"`` everything queued for one
destination during a pump iteration is coalesced into a single
:class:`~repro.runtime.codec.WireBatch` payload — one MAC and one
length-prefixed TCP write per destination instead of one per message.
Every message of Bracha's protocol is a broadcast, so the destinations'
batches are usually the *same* messages: destinations whose batch holds
the same payload objects share one ``WireBatch`` object, which the TCP
transport packs once (one codec pass per broadcast, not per
destination).  Inbound batches are unpacked here too, and the whole batch is
delivered before the next flush, so replies to a burst coalesce in
turn.  ``frames_sent`` / ``wire_messages_sent`` / ``messages_delivered``
count the effect; per-link order is preserved, and the protocols are
built for arbitrary cross-link reordering, so semantics are unchanged.

Every node derives its randomness from the same master seed, exactly as
the simulator's shared :class:`~repro.sim.rng.SplitRng` does — so a
seeded local-coin sequence is identical under the simulator and under
any runtime transport, which is what makes the sim-vs-runtime parity
tests meaningful.

**Assembly.**  :func:`assemble_node` builds one node of a scenario, and
it is the only place that does: :class:`~repro.runtime.cluster.Cluster`
calls it n times in one interpreter (``local``, ``tcp``), and
:class:`~repro.mp.noderunner.NodeRunner` once per OS process (``mp``).
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter, deque
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable, List, Mapping,
    Optional, Set, Tuple,
)

from ..errors import ReproError
from ..netem import ReliableLink
from ..netem.reliable import SEQ_EPOCH_SPAN
from ..outcome import NodeReport
from ..params import ProtocolParams
from ..recovery.wal import WalWriter
from ..sim.effects import CausalStamper, parse_batching
from ..sim.network import payload_kind
from ..sim.process import Process
from ..sim.rng import SplitRng
from ..stacks import ProtocolPlan, build_plan_behavior
from ..types import ProcessId
from .codec import Stamped, WireBatch
from .transport import Transport, TransportClosed

if TYPE_CHECKING:
    from ..netem import Clock, LinkPolicy
    from ..scenario.spec import Scenario


class NodeNetwork:
    """Per-node stand-in for the simulator's network.

    Implements the :class:`~repro.sim.network.NetworkAPI` surface that
    :class:`~repro.sim.process.Process`, coin sources, and Byzantine
    behaviors consume.  ``send`` is synchronous and merely enqueues; the
    owning :class:`Node` drains the outbox onto the real transport after
    every protocol activation.
    """

    def __init__(self, pid: ProcessId, params: ProtocolParams, seed: int = 0):
        self.pid = pid
        self.params = params
        self.rng = SplitRng(seed)
        #: ``kind -> count`` of this node's sends, as its
        #: :class:`~repro.outcome.NodeReport` carries it.
        self.sent_by_kind: Counter = Counter()
        self.processes: dict[ProcessId, Any] = {}
        self.outbox: Deque[Tuple[ProcessId, Any]] = deque()
        #: Optional structured-event hub (:class:`repro.obs.Observer`),
        #: shared with every other node of the cluster.
        self.observer: Optional[Any] = None
        #: Causal message ids for send/deliver correlation.  Under an
        #: observer every outbound payload is wrapped in a
        #: :class:`~repro.runtime.codec.Stamped` so the id survives the
        #: wire; the receiving node strips it before the protocol sees
        #: the message.  Crash-recovered incarnations get a fresh epoch
        #: (``attempt`` in :func:`assemble_node`) so their ids cannot
        #: collide with ones the dead incarnation already sent.
        self.stamper = CausalStamper()
        self._clock_zero = time.monotonic()

    # -- NetworkAPI ----------------------------------------------------------

    def register(self, process: Any) -> None:
        if process.pid != self.pid:
            raise ReproError(
                f"node {self.pid} cannot host a process claiming pid {process.pid}"
            )
        self.processes[process.pid] = process

    def send(self, source: ProcessId, dest: ProcessId, payload: Any) -> None:
        # ``source`` is advisory here exactly as in the simulator: the
        # transport attributes traffic to the node's own pid, so a stack
        # (or a Byzantine behavior) cannot forge another identity.
        self.sent_by_kind[payload_kind(payload)] += 1
        if self.observer is None:
            self.outbox.append((dest, payload))
        else:
            self._stamped((dest,), payload)

    def broadcast(self, source: ProcessId, payload: Any) -> None:
        """``n`` :meth:`send` calls in pid order, counted once; observed,
        each send gets its own stamp."""
        n = self.params.n
        self.sent_by_kind[payload_kind(payload)] += n
        if self.observer is None:
            self.outbox.extend([(dest, payload) for dest in range(n)])
        else:
            self._stamped(range(n), payload)

    def _stamped(self, dests: Iterable[ProcessId], payload: Any) -> None:
        """Queue observed sends, each under its own message id."""
        for dest in dests:
            mid = self.stamper.stamp(self.pid)
            self.observer.message("send", self.pid, payload, mid=mid)
            self.outbox.append((dest, Stamped(mid, payload)))

    def now(self) -> float:
        """Wall-clock seconds since this node booted (measurement only)."""
        return time.monotonic() - self._clock_zero

    def trace_note(self, pid: Optional[ProcessId], detail: Any) -> None:
        if self.observer is not None:
            self.observer.emit("note", node=pid, detail=detail)

    # -- node-side plumbing ---------------------------------------------------

    def drain(self) -> list[Tuple[ProcessId, Any]]:
        out = list(self.outbox)
        self.outbox.clear()
        return out


class Node:
    """One cluster member: a protocol target pumped by an async run loop.

    The *target* is anything with the sim-facing interface —
    ``start()`` + ``deliver(sender, payload)`` — i.e. a correct
    :class:`~repro.sim.process.Process` or any Byzantine behavior from
    :mod:`repro.adversary.behaviors`.

    ``on_activation`` is the cluster's hook, invoked after every
    activation (start, proposal, delivery) so it can check decision
    predicates without polling.

    ``batching`` is a spec accepted by
    :func:`~repro.sim.effects.parse_batching` (``off`` | ``flush``)
    selecting how the per-iteration outbox maps to wire frames.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: NodeNetwork,
        transport: Transport,
        target: Any,
        on_activation: Optional[Callable[["Node"], None]] = None,
        batching: Any = "off",
    ):
        if transport.pid != pid:
            raise ReproError(f"node {pid} given transport of node {transport.pid}")
        self.pid = pid
        self.network = network
        self.transport = transport
        self.target = target
        self.on_activation = on_activation
        self.batch_mode, self.batch_limit = parse_batching(batching)
        self.started = asyncio.Event()
        self.stopped = asyncio.Event()
        self.activations = 0
        self.frames_sent = 0
        self.wire_messages_sent = 0
        self.messages_delivered = 0
        #: Inbound messages that were not a routed ``(module_id, body)``
        #: pair; read out with the transport's ``frames_rejected``.
        self.unroutable = 0
        self.crashed: Optional[BaseException] = None
        #: Optional :class:`~repro.recovery.wal.WalWriter`.  Each inbound
        #: protocol message is logged *before* it reaches the target, so
        #: the WAL is always a superset of the applied state — the
        #: invariant crash recovery replays against (docs/recovery.md).
        self.wal: Optional[Any] = None
        #: Optional :class:`~repro.obs.profile.SpanProfiler` timing the
        #: flush path and WAL appends (``profile: on``).
        self.profiler: Optional[Any] = None
        #: Filled in by :func:`assemble_node` and read out by
        #: :meth:`report`: a correct node's decision modules (``None``
        #: for a Byzantine target), the netem policy its links run
        #: through, its first-Decide time on the run's timeline and the
        #: modules that have decided.
        self.modules: Optional[List[Any]] = None
        self.policy: Optional[Any] = None
        self.decide_time: Optional[float] = None
        self.decided_modules: Set[Any] = set()
        #: Set once the scenario's ``stop`` condition holds at this node.
        self.done = asyncio.Event()
        self._proposals: Deque[Callable[[], None]] = deque()
        #: :meth:`run` as a task, from :meth:`launch` on.
        self._pump: Optional[asyncio.Task] = None

    # -- cluster-side controls ------------------------------------------------

    def queue_action(self, action: Callable[[], None]) -> None:
        """Schedule a synchronous protocol action (e.g. ``propose``) to run
        inside the node's own task, before it consumes its inbox."""
        self._proposals.append(action)

    def report(self) -> NodeReport:
        """This node's readout for :func:`~repro.outcome.build_result`;
        its ``to_dict()`` is the mp fabric's ``result`` message."""
        return NodeReport.from_modules(
            self.pid, self.modules, self.network.sent_by_kind,
            delivered=self.messages_delivered,
            decide_time=self.decide_time,
            module_decisions=len(self.decided_modules),
            node=self, transport=self.transport, policy=self.policy,
        )

    # -- lifecycle -------------------------------------------------------------

    def launch(self) -> None:
        """Start the pump: :meth:`run` as a task of the running loop."""
        self._pump = asyncio.ensure_future(self.run())

    def stop(self) -> None:
        """Stop the pump where it stands.  Synchronous, so a cluster can
        stop every node's pump before any node's teardown awaits."""
        if self._pump is not None:
            self._pump.cancel()

    async def close(self, clock: Optional["Clock"] = None) -> None:
        """Tear the node down in the one order every fabric uses: pump,
        WAL, transport, then ``clock`` if the node owns one alone.

        The pump goes first, so once a caller has read the node out
        nothing more is delivered, logged, encoded, MAC'd or traced, and
        the WAL is never closed under a running node.  Last, the cycles
        through the node (pump traceback, stack, registry, hooks) are
        unlinked, so it is freed by reference counting.
        """
        self.stop()
        if self._pump is not None:
            await asyncio.gather(self._pump, return_exceptions=True)
            self._pump = None
        if self.wal is not None:
            self.wal.close()
        await self.transport.close()
        if clock is not None:
            await clock.close()
        close = getattr(self.target, "close", None)
        if close is not None:
            close()
        self.network.processes.clear()
        self.on_activation = None

    # -- the run loop ---------------------------------------------------------

    async def run(self) -> None:
        """Start the target, then pump inbound messages until closed."""
        try:
            self.target.start()
            await self._after_activation()
            self.started.set()
            while True:
                while self._proposals:
                    self._proposals.popleft()()
                    await self._after_activation()
                sender, payload = await self.transport.recv()
                self._deliver(sender, payload)
                await self._after_activation()
        except TransportClosed:
            pass
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # surface crashes to the cluster
            self.crashed = exc
            raise
        finally:
            self.stopped.set()
            # Wake the cluster's waiter so a crash surfaces immediately
            # instead of after its liveness timeout.
            if self.on_activation is not None:
                self.on_activation(self)

    def _deliver(self, sender: ProcessId, payload: Any) -> None:
        """Hand one inbound wire payload to the target, unpacking batches.

        A whole batch is delivered before the next outbox flush, so the
        responses it provokes coalesce into batched frames themselves —
        the pipelining half of the throughput win.
        """
        if isinstance(payload, WireBatch):
            for message in payload.messages:
                self._deliver_one(sender, message)
        else:
            self._deliver_one(sender, payload)

    def _deliver_one(self, sender: ProcessId, message: Any) -> None:
        # Strip the causal stamp before the WAL, the observer, and the
        # target: replay and protocol state must be id-agnostic, and the
        # deliver event carries the id that matches the sender's send.
        mid: Optional[str] = None
        if isinstance(message, Stamped):
            mid, message = message.mid, message.payload
        if not (isinstance(message, tuple) and len(message) == 2):
            # Authenticated, decodable, and addressed to no module: what
            # ``Process.deliver`` raises on as a simulator programming
            # error is, off a real link, one more shape of garbage a
            # Byzantine peer may send.  Count it and carry on.
            self.unroutable += 1
            return
        self.messages_delivered += 1
        if self.wal is not None:
            profiler = self.profiler
            if profiler is None:
                self.wal.append_deliver(sender, message)
            else:
                started = profiler.start()
                self.wal.append_deliver(sender, message)
                profiler.stop("wal_append", started)
        observer = self.network.observer
        if observer is not None:
            observer.message("deliver", self.pid, message, mid=mid)
        self.target.deliver(sender, message)

    async def _after_activation(self) -> None:
        self.activations += 1
        # The callback runs *before* the outbox drain: draining awaits,
        # and the cluster's waiter may observe protocol state (e.g. the
        # decision) at that yield point — the callback must have seen it
        # first or decision timestamps would be lost.
        if self.on_activation is not None:
            self.on_activation(self)
        queued = self.network.drain()
        if not queued:
            return
        profiler = self.profiler
        if profiler is None:
            await self._flush(queued)
        else:
            started = profiler.start()
            await self._flush(queued)
            profiler.stop("node_flush", started)

    async def _flush(self, queued: List[Tuple[ProcessId, Any]]) -> None:
        """Map one pump iteration's outbox onto wire frames."""
        observer = self.network.observer
        if self.batch_mode == "off":
            for dest, payload in queued:
                self.frames_sent += 1
                self.wire_messages_sent += 1
                if observer is not None:
                    observer.emit(
                        "frame", node=self.pid,
                        detail={"dest": dest, "messages": 1},
                    )
                await self.transport.send(dest, payload)
            return
        # Group by destination, preserving per-link message order and
        # first-appearance destination order; each group becomes one
        # frame (chunked at batch_limit so frames stay well under the
        # transports' hard frame cap).
        groups: Dict[ProcessId, List[Any]] = {}
        for dest, payload in queued:
            groups.setdefault(dest, []).append(payload)
        # A broadcast queued the same payload object for every
        # destination, so their chunks are the same objects in the same
        # order: such chunks share one WireBatch, and a transport that
        # packs per payload object encodes it once.  Keyed by identity
        # (``queued`` keeps every payload alive for the whole flush):
        # an equivocator's equal-looking but distinct messages, or
        # anything under ``observe`` (each send has its own Stamped id),
        # never share.
        batches: Dict[Tuple[int, ...], WireBatch] = {}
        for dest, payloads in groups.items():
            for i in range(0, len(payloads), self.batch_limit):
                chunk = payloads[i:i + self.batch_limit]
                self.frames_sent += 1
                self.wire_messages_sent += len(chunk)
                if observer is not None:
                    observer.emit(
                        "frame", node=self.pid,
                        detail={"dest": dest, "messages": len(chunk)},
                    )
                if len(chunk) == 1:
                    await self.transport.send(dest, chunk[0])
                    continue
                key = tuple(map(id, chunk))
                batch = batches.get(key)
                if batch is None:
                    batch = batches[key] = WireBatch(tuple(chunk))
                await self.transport.send(dest, batch)


def assemble_node(
    scenario: "Scenario",
    pid: ProcessId,
    transport: Transport,
    plan: ProtocolPlan,
    proposals: Mapping[ProcessId, Any],
    elapsed: Callable[[], float],
    *,
    observer: Optional[Any] = None,
    policy: Optional["LinkPolicy"] = None,
    clock: Optional["Clock"] = None,
    attempt: int = 0,
    wal_path: Optional[str] = None,
    wal_header: Optional[Mapping[str, Any]] = None,
    propose: bool = True,
    on_activation: Optional[Callable[[Node], None]] = None,
) -> Node:
    """Build node ``pid`` of ``scenario`` over a bound, connected transport.

    The node runs an honest :class:`~repro.sim.process.Process` with the
    ``plan``'s stack, or the Byzantine behavior its fault spec names.
    With netem retransmission on, ``transport`` is wrapped in a
    :class:`~repro.netem.ReliableLink` (``clock`` and ``policy`` are the
    caller's netem machinery).  ``attempt`` numbers a crash-recovered
    incarnation: it selects a fresh causal-id epoch and link-sequence
    range.  ``elapsed`` is the run's timeline, which stamps the node's
    first Decide and its ``decide`` events.

    A correct node logs into a WAL at ``wal_path`` (the header is
    ``wal_header``, naming the run, plus this node's binding fields)
    and, unless ``propose`` is false (a recovering node replays its
    logged proposal instead), has its proposal queued — logged before
    it is applied.  :attr:`Node.done` is set once the scenario's
    ``stop`` condition holds; ``on_activation`` is called after every
    activation, after that check.
    """
    params = scenario.params
    network = NodeNetwork(pid, params, seed=scenario.seed)
    network.observer = observer
    if attempt:
        # A respawned incarnation restarts its per-sender sequence
        # counters; a fresh causal-id epoch keeps its stamps disjoint
        # from any still-on-the-wire messages of the dead incarnation.
        network.stamper = CausalStamper(epoch=attempt)
    netem = scenario.netem_config()
    if netem is not None and netem.retransmit:
        # Every node gets the link layer (uniform framing); the
        # eventual-delivery guarantee it provides only binds between
        # correct endpoints — a faulty peer may ignore the discipline,
        # and its unacked frames die after max_retries.  Resends pause
        # for scripted partitions (severed) so the retry budget is spent
        # on unresponsive peers, not windows the scenario promised would
        # heal.
        transport = ReliableLink(
            transport, clock, rto=netem.rto, max_retries=netem.max_retries,
            severed=lambda dest, now: policy.severed(pid, dest, now),
            observer=observer,
            # A recovered incarnation must not reuse link sequence
            # numbers its peers already filtered: one epoch per restart
            # attempt keeps every new frame above the old incarnation's
            # reachable range.
            seq_base=attempt * SEQ_EPOCH_SPAN,
        )
        transport.start_scan()

    # 'kill' and 'restart' faults are signals from outside (SIGKILL, and
    # for restart a WAL-recovered respawn); until one lands the node is
    # simply honest — which is exactly what a real crash fault means.
    crashes = {**scenario.fault_specs("kill"), **scenario.fault_specs("restart")}
    spec = None if pid in crashes else scenario.faults_dict().get(pid)
    modules: Optional[List[Any]] = None
    if spec is None:
        target: Any = Process(pid, network, params)  # type: ignore[arg-type]

        def on_decide(effect: Any) -> None:
            # The simulator's rule: a node decides at its first Decide,
            # and each module's decision counts once.
            if effect.module in node.decided_modules:
                return
            node.decided_modules.add(effect.module)
            now = elapsed()
            if node.decide_time is None:
                node.decide_time = now
            if observer is not None:
                observer.emit(
                    "decide", node=pid, instance=effect.module,
                    round=effect.round, detail=effect.value, time=now,
                )

        target.on_decide = on_decide
        modules = plan.build(target)
    else:
        target = build_plan_behavior(
            pid, spec, network, params, plan, proposals
        )
    stop = plan.decided if scenario.stop == "decided" else plan.halted

    def activated(node: Node) -> None:
        if modules is not None and not node.done.is_set() and stop(modules):
            node.done.set()
        if on_activation is not None:
            on_activation(node)

    node = Node(
        pid, network, transport, target,
        on_activation=activated, batching=scenario.batching,
    )
    node.modules, node.policy = modules, policy
    if modules is None:
        return node
    if wal_path is not None:
        # The header binds the file to this exact run, so a recovery
        # boot against the wrong scenario is refused, not replayed.
        node.wal = WalWriter.open(wal_path, {
            **(wal_header or {}), "node": pid, "seed": scenario.seed,
            "protocol": scenario.protocol, "instances": scenario.instances,
        })
    if propose:
        bit = proposals[pid]

        def proposal() -> None:
            if node.wal is not None:
                node.wal.append_propose(bit)
            plan.propose(modules, pid, bit)

        node.queue_action(proposal)
    return node


__all__ = ["Node", "NodeNetwork", "assemble_node"]
