"""Length-prefixed binary frames over TCP, authenticated with pairwise MACs.

One wire format, one frame per payload::

    4 bytes big-endian length | 0xB1 | version | >I src | >I dst
    | 32-byte HMAC-SHA256 tag | binary body

The magic byte and the version byte pin the layout, so a future format
change (or a corrupted header) is rejected instead of misparsed.
Receive authenticates every frame and decodes every *distinct body
once*: the MAC is verified by feeding a :class:`memoryview` of the body
straight to the HMAC, and then the endpoint's
:class:`~repro.runtime.binarycodec.BodyMemo` is asked for the body —
sliced out of the frame once, as the table key — and runs the full
decode only for bytes it has not seen.  Bracha's ECHO and READY for an
instance are the same bytes from every sender (the link names the
sender, not the message), so of the 2n+1 frames a broadcast hands a
process 3 are decoded.  Send packs a payload *object* once: every
message of Bracha's protocol is a broadcast, so the node hands the same
payload object to ``send`` once per destination, and only the header
and the MAC — the parts that name the link — are redone for each (see
:meth:`~repro.runtime.transport.InboxTransport._body`).  The frame
then goes through :meth:`TcpTransport._transmit`, the one place a frame
meets a socket.  An idle link — a live writer, no transmit in flight
and an empty write buffer — takes the frame in the caller's pass, with
no await.  Any other frame queues on the link's lock, and only there
is a link (re)connected and ``drain`` awaited: connect, contention and
backpressure are the only things a send waits for.

The MAC is :meth:`repro.net.auth.Authenticator.tag_bytes`, an
HMAC-SHA256 over the raw body bytes with the key of the (claimed
source, destination) pair, whose key schedule the authenticator ran
once per link.  The tag binds source and destination, so a frame
cannot be redirected to another link or claimed by another sender
without detection.  Tampered, malformed, or misaddressed frames increment
``rejected`` and are dropped silently, which is precisely what the
protocols' authenticated-link assumption permits a real network to do
to garbage.

Duplicates are *not* filtered (there are no sequence numbers): Bracha's
protocols are idempotent per (sender, message), a property the fuzzer
behavior tests aggressively, so replay on a link is harmless.

Each node owns one :class:`TcpTransport`: an ``asyncio`` server for
inbound peers plus one lazily-retried outbound connection per peer.
Sends to self short-circuit into the local inbox — a process does not
need a socket to talk to itself, nor a decode of a payload the encoder
vouches round-trips exactly (see
:meth:`~repro.runtime.transport.InboxTransport._loopback`).
"""

from __future__ import annotations

import asyncio
import struct
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Set, Tuple

from ..errors import ReproError
from ..net.auth import Authenticator, KeyRing
from ..types import ProcessId
from . import binarycodec
from .codec import CodecError
from .transport import InboxTransport

if TYPE_CHECKING:  # imported lazily at runtime to keep the layer light
    from ..netem.clock import Clock
    from ..netem.policy import LinkPolicy

#: Hard cap on frame size; a Byzantine peer must not be able to make a
#: correct node allocate unbounded memory from a single length prefix.
MAX_FRAME = 1 << 20

#: After a failed connection attempt to a peer, don't retry it for this
#: long — sends to it are dropped instead, keeping the node's run loop
#: responsive while the peer is down.
RECONNECT_COOLDOWN = 0.25

_LEN = struct.Struct(">I")

#: First byte of every frame.
BINARY_MAGIC = 0xB1

#: Wire-format version.  Bumped on any layout change; a frame
#: with the wrong version byte is rejected outright — peers running
#: different layouts must fail loudly, not misparse each other.
WIRE_VERSION = 1

_BIN_HEADER = struct.Struct(">BBII")  # magic, version, src, dst
_MAC_LEN = 32  # HMAC-SHA256
_BIN_BODY_AT = _BIN_HEADER.size + _MAC_LEN  # offset of the body


def encode_binary_frame(auth: Authenticator, dest: ProcessId, payload: Any) -> bytes:
    """One wire frame (codec pass + MAC), sans length prefix."""
    return _binary_frame(auth, dest, binarycodec.dumps(payload))


def _binary_frame(auth: Authenticator, dest: ProcessId, body: bytes) -> bytes:
    """The per-link part of a frame: header + MAC around a packed body."""
    return (
        _BIN_HEADER.pack(BINARY_MAGIC, WIRE_VERSION, auth.pid, dest)
        + auth.tag_bytes(dest, body)
        + body
    )


class TcpTransport(InboxTransport):
    """One node's authenticated TCP endpoint.

    Args:
        pid: this node's identity.
        n: cluster size (bounds the accepted ``src`` range).
        keyring: trusted-setup pairwise keys shared by the cluster.
        host/port: listen address; port 0 picks a free port, exposed as
            :attr:`address` after :meth:`start` for the peer map.
        policy/clock: optional netem link conditions
            (:mod:`repro.netem`), applied on the outbound path — a frame
            the policy drops is never written, a delayed frame is
            written by a task sleeping on the clock (so later frames may
            genuinely overtake it on the wire).
        wire: a validated constant — ``"binary"`` is the only legal
            value (the JSON wire format was removed).  Kept only because
            the frozen ``benchmarks/e2e`` drivers still pass it; goes
            once a benchmark-only PR stops doing so.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        keyring: KeyRing,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: Optional["LinkPolicy"] = None,
        clock: Optional["Clock"] = None,
        wire: str = "binary",
    ):
        super().__init__()
        if policy is not None and clock is None:
            raise ReproError("a transport with a link policy needs a clock")
        if wire != "binary":
            raise ReproError(
                f"unknown wire codec {wire!r}: binary is the only wire format "
                "(the JSON wire format was removed) — drop the 'wire' argument"
            )
        self.pid = pid
        self.n = n
        self._auth = keyring.authenticator(pid)
        self._host = host
        self._port = port
        self.policy = policy
        self.clock = clock
        self._server: Optional[asyncio.base_events.Server] = None
        self._peers: Dict[ProcessId, Tuple[str, int]] = {}
        self._writers: Dict[ProcessId, asyncio.StreamWriter] = {}
        self._send_locks: Dict[ProcessId, asyncio.Lock] = {}
        #: dest -> transmits holding or waiting for its lock.
        self._in_flight: Dict[ProcessId, int] = {}
        self._retry_after: Dict[ProcessId, float] = {}
        self._peer_tasks: set = set()
        self._peer_writers: set = set()
        self._netem_tasks: Set[asyncio.Task] = set()
        self.accepted = 0
        self.rejected = 0
        self.dropped = 0
        #: Optional :class:`~repro.obs.profile.SpanProfiler`: times the
        #: per-frame codec+MAC work (span ``tcp_encode``) when the run
        #: has ``profile: on``.  For a frame whose body is shared with
        #: the previous one the span covers header + MAC only.
        self.profiler: Optional[Any] = None

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None, "transport not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return (host, port)

    def set_peers(self, peers: Mapping[ProcessId, Tuple[str, int]]) -> None:
        """Install pid -> (host, port) entries before :meth:`connect`, or
        readdress a peer later: its old stream closes and the next send
        dials the new address without a reconnect cooldown."""
        for pid, address in peers.items():
            if self._peers.get(pid, address) != address:
                stale = self._writers.pop(pid, None)
                if stale is not None:
                    stale.close()
                self._retry_after.pop(pid, None)
            self._peers[pid] = address

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_peer, self._host, self._port
        )

    async def connect(self, retry_for: float = 5.0) -> None:
        """Open an outbound stream to every peer, retrying while they boot."""
        for dest in sorted(self._peers):
            if dest == self.pid:
                continue
            await self._open(dest, retry_for)

    async def _open(
        self, dest: ProcessId, retry_for: float = 0.0
    ) -> Optional[asyncio.StreamWriter]:
        """The live outbound stream to ``dest``, (re)connecting if needed.

        ``retry_for > 0`` (the boot-time path) blocks and retries while
        the peer comes up.  ``retry_for == 0`` (the send path) makes one
        attempt at most, and none at all during the reconnect cooldown —
        a dead peer must not stall the node's single run-loop task.
        """
        writer = self._writers.get(dest)
        if writer is not None and not writer.is_closing():
            return writer
        host, port = self._peers[dest]
        loop = asyncio.get_running_loop()
        if retry_for <= 0 and loop.time() < self._retry_after.get(dest, 0.0):
            return None
        deadline = loop.time() + retry_for
        delay = 0.02
        while True:
            try:
                _reader, writer = await asyncio.open_connection(host, port)
                break
            except OSError:
                if loop.time() >= deadline or self._closed:
                    self._retry_after[dest] = loop.time() + RECONNECT_COOLDOWN
                    return None
                await asyncio.sleep(delay)
                delay = min(delay * 2, 0.25)
        self._retry_after.pop(dest, None)
        self._writers[dest] = writer
        return writer

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for task in list(self._netem_tasks):
            task.cancel()
        if self._netem_tasks:
            await asyncio.gather(*self._netem_tasks, return_exceptions=True)
        self._netem_tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            # The server holds ``_handle_conn``, a method of this object.
            self._server = None
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        # Close inbound connections so their handlers exit via EOF rather
        # than cancellation (cancelling them makes Python 3.11's stream
        # machinery log spurious CancelledErrors at loop shutdown).
        for peer_writer in list(self._peer_writers):
            peer_writer.close()
        if self._peer_tasks:
            await asyncio.wait(list(self._peer_tasks), timeout=1.0)
        self._peer_tasks.clear()
        self._peer_writers.clear()
        self._push_closed()

    # -- data plane ----------------------------------------------------------

    async def send(self, dest: ProcessId, payload: Any) -> None:
        if self._closed:
            return
        if not 0 <= dest < self.n:
            raise ReproError(f"send to unknown node {dest}")
        if dest == self.pid:
            # Self-delivery is still encoded, so a node's own messages
            # meet the codec's refusals and the frame cap like everyone
            # else's; it is decoded only if the round trip is inexact.
            # It never touches the netem policy: a process's channel to
            # itself is not network.
            self._pack(dest, payload)
            self._push(self.pid, self._loopback(payload))
            return
        if self.policy is not None:
            verdict = self.policy.plan(self.pid, dest, self.clock.now())
            if verdict.dropped:
                return
            body = self._encode_body(dest, payload)
            for delay in verdict.delays:
                if delay <= 0:
                    await self._transmit(dest, body)
                else:
                    task = asyncio.ensure_future(
                        self._transmit_later(dest, body, delay)
                    )
                    self._netem_tasks.add(task)
                    task.add_done_callback(self._netem_tasks.discard)
            return
        await self._transmit(dest, self._encode_body(dest, payload))

    def _pack(self, dest: ProcessId, payload: Any) -> bytes:
        """The body of ``payload`` (packed once per payload object, see
        :meth:`~repro.runtime.transport.InboxTransport._body`), held to
        the frame cap.

        The cap is checked here, on every call, so it binds the
        self-delivery exactly as it binds a peer's frame.
        """
        body = self._body(payload)
        size = _BIN_BODY_AT + len(body)
        if size > MAX_FRAME:
            # The receiver drops the connection on an over-cap length
            # prefix; without this the link would just go silent.
            raise ReproError(
                f"node {self.pid}: frame for node {dest} is {size} bytes, "
                f"over the {MAX_FRAME}-byte frame cap (MAX_FRAME) — send "
                "smaller payloads"
            )
        return body

    def _encode_body(self, dest: ProcessId, payload: Any) -> bytes:
        """Codec + MAC for one frame, timed when a profiler is attached."""
        profiler = self.profiler
        started = profiler.start() if profiler is not None else 0.0
        frame = _binary_frame(self._auth, dest, self._pack(dest, payload))
        if profiler is not None:
            profiler.stop("tcp_encode", started)
        return frame

    async def _transmit(self, dest: ProcessId, body: bytes) -> None:
        """Write one frame to ``dest``: the one place a frame meets a socket.

        An idle link — a live writer, no transmit in flight and an empty
        write buffer — takes the frame in the caller's pass, without an
        await.  Every other frame queues on the link's lock behind the
        transmits in flight (netem delay tasks, the retransmission scan
        and acks run concurrently with the node loop), and only there is
        a link (re)connected or ``drain`` awaited.  Two tasks awaiting
        ``drain()`` on one StreamWriter would trip asyncio's
        flow-control assertion, and two racing ``_open()`` calls would
        leak the replaced connection.
        """
        frame = _LEN.pack(len(body)) + body
        writer = self._writers.get(dest)
        if (writer is not None and not self._in_flight.get(dest)
                and not writer.transport.get_write_buffer_size()
                and not writer.is_closing()):
            # asyncio reports a socket error on write by closing the
            # transport, where the awaiting path's drain() would raise.
            writer.write(frame)
            if writer.is_closing():
                self._lose(dest)
            return
        self._in_flight[dest] = self._in_flight.get(dest, 0) + 1
        try:
            lock = self._send_locks.get(dest)
            if lock is None:
                lock = self._send_locks[dest] = asyncio.Lock()
            async with lock:
                writer = await self._open(dest)
                if writer is None:
                    self.dropped += 1
                    return
                try:
                    writer.write(frame)
                    await writer.drain()
                except (ConnectionError, OSError):
                    self._lose(dest)
        finally:
            self._in_flight[dest] -= 1

    def _lose(self, dest: ProcessId) -> None:
        """A frame died with its socket: count it, forget the writer (the
        next transmit redials)."""
        self.dropped += 1
        self._writers.pop(dest, None)

    async def _transmit_later(self, dest: ProcessId, body: bytes, delay: float) -> None:
        await self.clock.sleep(delay)
        if not self._closed:
            await self._transmit(dest, body)

    # -- inbound path --------------------------------------------------------

    async def _serve_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._peer_tasks.add(task)
        self._peer_writers.add(writer)
        try:
            while True:
                header = await reader.readexactly(_LEN.size)
                (length,) = _LEN.unpack(header)
                if length > MAX_FRAME:
                    self.rejected += 1
                    return  # drop the connection: the peer is misbehaving
                frame = await reader.readexactly(length)
                self._ingest(frame)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # peer hung up; its messages already ingested stay ingested
        finally:
            writer.close()
            self._peer_writers.discard(writer)
            if task is not None:
                self._peer_tasks.discard(task)

    def _ingest(self, frame: bytes) -> None:
        """Authenticate and decode one frame; count and drop it on any defect.

        The HMAC is fed a memoryview of the body, under the key of the
        claimed (src, dst) link, for every frame — only then is the
        memo asked, so a body it already knows buys a forged frame
        nothing and the same body from two peers is two deliveries,
        each under its own ``src``.
        """
        if len(frame) < _BIN_BODY_AT + 1:
            self.rejected += 1
            return
        magic, version, src, dst = _BIN_HEADER.unpack_from(frame, 0)
        if (magic != BINARY_MAGIC or version != WIRE_VERSION
                or not 0 <= src < self.n or dst != self.pid):
            self.rejected += 1
            return
        view = memoryview(frame)
        if not self._auth.verify_bytes(
            src, view[_BIN_BODY_AT:], view[_BIN_HEADER.size:_BIN_BODY_AT]
        ):
            self.rejected += 1
            return
        try:
            payload = self.memo.loads(frame, _BIN_BODY_AT)
        except CodecError:
            self.rejected += 1
            return
        self.accepted += 1
        self._push(src, payload)


__all__ = [
    "BINARY_MAGIC",
    "MAX_FRAME",
    "TcpTransport",
    "WIRE_VERSION",
    "encode_binary_frame",
]
