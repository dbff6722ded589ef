"""Sequence-number/ack retransmission over an unreliable transport.

Under a :class:`~repro.netem.policy.LinkPolicy` that drops frames, the
raw transports no longer satisfy the paper's model — the asynchronous
network may delay messages between correct processes arbitrarily but
must deliver them *eventually*.  :class:`ReliableLink` restores that
guarantee the textbook way: every outbound payload is wrapped in a
:class:`LinkFrame` carrying a per-destination sequence number and kept
in a pending table until the matching :class:`LinkAck` returns; a
background scan resends frames whose ack is overdue.  The receiver acks
every frame it sees (acks are themselves unreliable — a lost ack just
costs one more resend) and filters duplicates, whether the duplicate
came from the retransmitter or from the link model's own duplication.

The guarantee is deliberately asymmetric, matching the fault model:
between two *correct* endpoints, loss probability ``p < 1`` plus
unbounded-in-expectation resends give eventual delivery; a faulty peer
is owed nothing, so a frame is abandoned after ``max_retries`` resends
(a crashed or forever-partitioned peer must not pin memory and
bandwidth eternally — with the default 50 retries the abandonment
probability for a *live* link is ``loss^50``, beyond negligible).

No ordering is imposed: the protocols are built for an asynchronous
network and tolerate arbitrary reordering, so frames are delivered
upward the moment they arrive.  Payloads that are not link frames pass
through untouched — traffic from peers outside the reliability layer
remains visible, exactly as a real stack demotes unknown framing to
best-effort.

The payload a frame carries is opaque: with the batched message
pipeline on, it is a whole :class:`~repro.runtime.codec.WireBatch`, and
sequencing, acking, retransmission, and dedup all operate on the batch
as one wire frame — the per-frame semantics of this layer are
independent of how many protocol messages ride inside.
"""

from __future__ import annotations

import asyncio
import heapq
from bisect import bisect_right
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..types import ProcessId
from .clock import Clock
from .frames import LinkAck, LinkFrame

if TYPE_CHECKING:
    # Not imported at runtime: pulling in the transport module here would
    # close an import cycle (runtime package -> cluster -> netem ->
    # reliable -> runtime).  ReliableLink implements the Transport
    # surface structurally instead of by inheritance.
    from ..runtime.transport import Transport


#: Sequence numbers one incarnation may use per destination (~10**12).
#: A node respawned for the k-th time starts at ``k * SEQ_EPOCH_SPAN``
#: (see ``seq_base``), so a sender that ran past its span would walk into
#: numbers its own next incarnation will reuse — and its peers' dedup
#: windows would then drop real frames as duplicates.
SEQ_EPOCH_SPAN = 1 << 40


class _Pending:
    """Book-keeping for one unacknowledged frame.

    ``due`` is the next instant the retransmission wheel should look at
    this frame; a heap record whose due time disagrees with the entry's
    is stale (the frame was resent or paused meanwhile) and is skipped.
    """

    __slots__ = ("frame", "sent_at", "retries", "due")

    def __init__(self, frame: LinkFrame, sent_at: float, due: float):
        self.frame = frame
        self.sent_at = sent_at
        self.retries = 0
        self.due = due


class _SeenWindow:
    """Duplicate filter for one inbound link: the seqs seen so far as
    merged half-open runs, flattened into one sorted list of bounds
    (``[start0, end0, start1, end1, ...]``, no two runs touching).
    Memory is one run per gap, not one entry per frame: a peer's restart
    jumps its seqs by :data:`SEQ_EPOCH_SPAN`, and a window opened
    mid-stream (this node restarted) never hears the seqs below the
    first one it sees; each leaves one gap for the rest of the run.
    """

    __slots__ = ("bounds",)

    def __init__(self) -> None:
        self.bounds: List[int] = []

    @property
    def floor(self) -> int:
        """Every seq below it has been seen."""
        bounds = self.bounds
        return bounds[1] if bounds and bounds[0] == 0 else 0

    def add(self, seq: int) -> bool:
        """Record ``seq``; return True when it is new."""
        bounds = self.bounds
        i = bisect_right(bounds, seq)
        if i & 1:
            return False  # inside the run [bounds[i - 1], bounds[i])
        joins_next = i < len(bounds) and bounds[i] == seq + 1
        if i and bounds[i - 1] == seq:  # extends the run ending at seq
            if joins_next:
                del bounds[i - 1:i + 1]
            else:
                bounds[i - 1] = seq + 1
        elif joins_next:
            bounds[i] = seq
        else:
            bounds[i:i] = (seq, seq + 1)
        return True


class ReliableLink:
    """Wrap any :class:`~repro.runtime.transport.Transport` with
    per-destination sequencing, acks, dedup, and timed retransmission.
    Implements the full ``Transport`` surface (structurally, to stay out
    of the transport module's import graph), so nodes use it unchanged.

    The wrapper is transparent to the node: ``send``/``recv`` carry the
    protocol payloads; framing, acking, and resends happen underneath.
    Counters (``retransmitted``, ``abandoned``, ``duplicates_filtered``,
    ``acks_sent``) feed the run report's netem section.
    """

    def __init__(
        self,
        inner: "Transport",
        clock: Clock,
        rto: float = 0.05,
        max_retries: int = 50,
        severed: Optional[Callable[[ProcessId, float], bool]] = None,
        observer: Optional[Any] = None,
        seq_base: int = 0,
    ):
        self.inner = inner
        self.pid = inner.pid
        self.clock = clock
        self.rto = rto
        self.max_retries = max_retries
        # severed(dest, now) -> True while a scripted partition blocks
        # this link.  Resends pause (and the retry budget is not
        # charged) for the duration: a partition that later heals must
        # not exhaust max_retries first — the budget exists for peers
        # that never answer, not for windows the scenario promised would
        # close.
        self._severed = severed
        #: Optional structured-event hub: resends and abandonments are
        #: the link-layer facts worth a timeline entry.
        self.observer = observer
        # A process recovered from a WAL restarts its per-destination
        # counters, but its peers' duplicate filters remember the old
        # sequence space — everything it sends would be dropped as
        # duplicates.  A recovery boot passes a seq_base above any seq
        # the previous incarnation could have reached (one
        # SEQ_EPOCH_SPAN per restart attempt; ``send`` refuses to leave
        # the span), so post-recovery frames are always new.
        self.seq_base = seq_base
        self._next_seq: Dict[ProcessId, int] = {}
        self._pending: Dict[Tuple[ProcessId, int], _Pending] = {}
        # Timer wheel: a heap of (due, dest, seq) records with lazy
        # deletion — acks only remove the _pending entry, and a resend
        # pushes a fresh record rather than resorting.  The scan pops
        # only what is due, O(due · log P) instead of the old full
        # sorted sweep's O(P log P) per tick.
        self._heap: List[Tuple[float, ProcessId, int]] = []
        self._seen: Dict[ProcessId, _SeenWindow] = {}
        self._scan_task: Optional[asyncio.Task] = None
        self._closed = False
        self.delivered = 0
        self.retransmitted = 0
        self.retransmitted_by_dest: Dict[ProcessId, int] = {}
        self.abandoned = 0
        self.duplicates_filtered = 0
        self.acks_sent = 0

    # -- delegated surface ---------------------------------------------------

    @property
    def rejected(self) -> int:
        return getattr(self.inner, "rejected", 0)

    async def start(self) -> None:
        await self.inner.start()
        self.start_scan()

    def start_scan(self) -> None:
        """Launch the retransmission scan (idempotent).

        Split out of :meth:`start` so a cluster that has already
        started/connected the raw transports can wrap them without
        re-running their lifecycle.
        """
        if self._scan_task is None and not self._closed:
            self._scan_task = asyncio.ensure_future(self._scan_loop())

    async def connect(self) -> None:
        await self.inner.connect()

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._scan_task is not None:
            self._scan_task.cancel()
            try:
                await self._scan_task
            except asyncio.CancelledError:
                pass
            self._scan_task = None
        self._pending.clear()
        self._heap.clear()
        await self.inner.close()

    # -- data plane ----------------------------------------------------------

    async def send(self, dest: ProcessId, payload: Any) -> None:
        if self._closed:
            return
        if dest == self.pid:
            # Self-delivery is internal; it needs no loss protection and
            # must not consume link sequence numbers.
            await self.inner.send(dest, payload)
            return
        seq = self._next_seq.get(dest, self.seq_base)
        if seq >= self.seq_base + SEQ_EPOCH_SPAN:
            raise ReproError(
                f"link sequence epoch exhausted: node {self.pid} has sent "
                f"{SEQ_EPOCH_SPAN} frames to node {dest} in one incarnation, "
                "and the next seq belongs to a restarted incarnation's range"
            )
        self._next_seq[dest] = seq + 1
        frame = LinkFrame(seq, payload)
        now = self.clock.now()
        self._pending[(dest, seq)] = _Pending(frame, now, now + self.rto)
        heapq.heappush(self._heap, (now + self.rto, dest, seq))
        await self.inner.send(dest, frame)

    async def recv(self) -> Tuple[ProcessId, Any]:
        while True:
            sender, payload = await self.inner.recv()  # raises TransportClosed
            if isinstance(payload, LinkAck):
                self._pending.pop((sender, payload.seq), None)
                continue
            if isinstance(payload, LinkFrame):
                # Ack first, even for duplicates: the original ack may be
                # the thing the link lost.
                self.acks_sent += 1
                await self.inner.send(sender, LinkAck(payload.seq))
                window = self._seen.get(sender)
                if window is None:
                    window = self._seen[sender] = _SeenWindow()
                if not window.add(payload.seq):
                    self.duplicates_filtered += 1
                    continue
                self.delivered += 1
                return sender, payload.inner
            # Unframed traffic (e.g. a peer outside the reliability layer)
            # passes through as-is.
            self.delivered += 1
            return sender, payload

    # -- the retransmission scan ---------------------------------------------

    def _collect_due(self, now: float) -> List[Tuple[ProcessId, _Pending]]:
        """Pop every frame whose resend is due; return what to retransmit.

        Synchronous on purpose: the scan tick's cost is exactly this
        call (heap pops plus lazy-deletion skips), so the benchmark can
        measure it without an event loop.  Counters, abandonment, and
        observer events happen here; the caller only awaits the sends.
        """
        heap = self._heap
        pending = self._pending
        resend: List[Tuple[ProcessId, _Pending]] = []
        while heap and heap[0][0] <= now:
            due, dest, seq = heapq.heappop(heap)
            entry = pending.get((dest, seq))
            if entry is None or entry.due != due:
                continue  # acked, abandoned, or rescheduled meanwhile
            if self._severed is not None and self._severed(dest, now):
                # Wait out the partition for free: resends pause and the
                # retry budget is not charged — the budget exists for
                # peers that never answer, not for windows the scenario
                # promised would close.
                entry.sent_at = now
                entry.due = now + self.rto * (1 << min(entry.retries, 3))
                heapq.heappush(heap, (entry.due, dest, seq))
                continue
            if entry.retries >= self.max_retries:
                pending.pop((dest, seq), None)
                self.abandoned += 1
                if self.observer is not None:
                    self.observer.emit(
                        "abandon", node=self.pid,
                        detail={"dest": dest, "seq": seq,
                                "retries": entry.retries},
                    )
                continue
            # Exponential backoff (capped at 8x rto): an ack that is
            # merely slow — a busy receiver drains a deep inbox before
            # acking — must not burn the retry budget the way a
            # genuinely dead link does.
            entry.retries += 1
            entry.sent_at = now
            entry.due = now + self.rto * (1 << min(entry.retries, 3))
            heapq.heappush(heap, (entry.due, dest, seq))
            self.retransmitted += 1
            self.retransmitted_by_dest[dest] = (
                self.retransmitted_by_dest.get(dest, 0) + 1
            )
            if self.observer is not None:
                self.observer.emit(
                    "retransmit", node=self.pid,
                    detail={"dest": dest, "seq": seq,
                            "retry": entry.retries},
                )
            resend.append((dest, entry))
        return resend

    async def _scan_loop(self) -> None:
        while not self._closed:
            await self.clock.sleep(self.rto)
            if self._closed:
                return
            for dest, entry in self._collect_due(self.clock.now()):
                if self._closed:
                    return
                # The entry may have been acked while we awaited an
                # earlier send; a redundant resend is harmless (the
                # receiver's window filters it) and rare.
                await self.inner.send(dest, entry.frame)

    # -- inspection ----------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Frames sent but not yet acknowledged or abandoned."""
        return len(self._pending)


__all__ = ["LinkAck", "LinkFrame", "ReliableLink"]
