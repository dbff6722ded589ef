"""The tcp send path: an idle link takes a frame in the caller's pass.

``TcpTransport._transmit`` writes straight to the socket when the link
has a live writer, no transmit in flight and an empty write buffer;
every other frame queues on the link's lock, where connects and
``drain`` backpressure happen.  These tests pin what the shortcut must
not change: no frame lost or reordered under backpressure, no frame
overtaking one already queued, and a dead socket costing a ``dropped``
count and a redial, exactly as on the awaiting path.
"""

import asyncio
import socket
import struct

from repro.net.auth import KeyRing
from repro.runtime import TcpTransport, binarycodec
from repro.runtime.tcp import _BIN_BODY_AT, _BIN_HEADER
from repro.types import StepValue

_RING = KeyRing(2, master_secret=b"send-path")


async def _paused_peer(expected):
    """A raw listener at pid 1 that reads nothing until ``resume`` is
    set, then reads ``expected`` frames; returns (server, resume,
    frames, done)."""
    resume, done = asyncio.Event(), asyncio.Event()
    frames = []

    async def serve(reader, writer):
        await resume.wait()
        for _ in range(expected):
            (length,) = struct.unpack(">I", await reader.readexactly(4))
            frames.append(await reader.readexactly(length))
        done.set()
        writer.close()

    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    listener.bind(("127.0.0.1", 0))
    server = await asyncio.start_server(serve, sock=listener)
    return server, resume, frames, done


def _payloads(frames):
    """Authenticate and decode raw frames sent by pid 0 to pid 1."""
    receiver = _RING.authenticator(1)
    out = []
    for frame in frames:
        _magic, _version, src, dst = _BIN_HEADER.unpack_from(frame, 0)
        assert (src, dst) == (0, 1)
        view = memoryview(frame)
        assert receiver.verify_bytes(
            0, view[_BIN_BODY_AT:], view[_BIN_HEADER.size:_BIN_BODY_AT])
        out.append(binarycodec.loads(frame, _BIN_BODY_AT))
    return out


async def _sender_to(address):
    a = TcpTransport(0, 2, _RING)
    await a.start()
    a.set_peers({0: a.address, 1: address})
    await a.connect()
    # A small send buffer makes the write buffer fill after a few frames.
    a._writers[1].transport.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    return a


def test_a_peer_that_stops_reading_forces_drain_and_loses_nothing():
    payloads = [("bulk", "x" * 20_000, i) for i in range(60)]

    async def scenario():
        server, resume, frames, done = await _paused_peer(len(payloads))
        a = await _sender_to(server.sockets[0].getsockname()[:2])
        try:
            async def pump():
                for payload in payloads:
                    await a.send(1, payload)

            task = asyncio.ensure_future(pump())
            await asyncio.sleep(0.2)
            # Backpressure: the pump waits in drain with frames buffered.
            assert not task.done()
            assert a._writers[1].transport.get_write_buffer_size() > 0
            resume.set()
            await asyncio.wait_for(task, 10.0)
            await asyncio.wait_for(done.wait(), 10.0)
            assert _payloads(frames) == payloads
            assert a.dropped == 0
        finally:
            await a.close()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_a_frame_queued_behind_a_drain_is_not_overtaken():
    """The pump holds the lock in drain while another task's frame
    queues behind it; once the drain returns, the pump's next frame
    must wait its turn, idle-looking link or not."""
    big = [("bulk", "x" * 100_000, i) for i in range(2)]
    queued, after = ("small", 2), ("small", 3)

    async def scenario():
        server, resume, frames, done = await _paused_peer(4)
        a = await _sender_to(server.sockets[0].getsockname()[:2])
        try:
            async def pump():
                for payload in big:  # the second one blocks in drain
                    await a.send(1, payload)
                await a.send(1, after)

            first = asyncio.ensure_future(pump())
            await asyncio.sleep(0.2)
            assert not first.done()
            second = asyncio.ensure_future(a.send(1, queued))
            await asyncio.sleep(0.05)
            assert not second.done()  # waiting behind the drain
            resume.set()
            await asyncio.wait_for(asyncio.gather(first, second), 10.0)
            await asyncio.wait_for(done.wait(), 10.0)
            assert _payloads(frames) == big + [queued, after]
        finally:
            await a.close()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_a_frame_sent_during_a_reconnect_waits_behind_it():
    """A netem-style task's frame queues behind the pump's redial; when
    the dial is done the link looks idle again — live writer, empty
    buffer — but the pump's next frame must still wait its turn."""
    m0, m1, m2 = (("mod", index) for index in range(3))

    async def scenario():
        a, b = TcpTransport(0, 2, _RING), TcpTransport(1, 2, _RING)
        await a.start()
        await b.start()
        peers = {0: a.address, 1: b.address}
        a.set_peers(peers)
        b.set_peers(peers)
        await a.connect()
        dial, real_open = asyncio.Event(), a._open

        async def gated_open(dest, retry_for=0.0):
            await dial.wait()
            return await real_open(dest, retry_for)

        a._open = gated_open
        try:
            a._writers[1].close()  # the next transmit redials

            async def pump():
                await a.send(1, m0)  # redials, holding the link's lock
                await a.send(1, m2)

            first = asyncio.ensure_future(pump())
            await asyncio.sleep(0.01)
            second = asyncio.ensure_future(a.send(1, m1))
            await asyncio.sleep(0.01)
            assert not first.done() and not second.done()
            dial.set()
            await asyncio.wait_for(asyncio.gather(first, second), 5.0)
            got = [await asyncio.wait_for(b.recv(), 5.0) for _ in range(3)]
            assert got == [(0, m0), (0, m1), (0, m2)]
            assert a.dropped == 0
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_a_write_on_a_dead_socket_counts_dropped_and_forgets_the_writer():
    async def scenario():
        a, b = TcpTransport(0, 2, _RING), TcpTransport(1, 2, _RING)
        await a.start()
        await b.start()
        peers = {0: a.address, 1: b.address}
        a.set_peers(peers)
        b.set_peers(peers)
        await a.connect()
        try:
            await a.send(1, ("mod", StepValue(0)))
            assert await asyncio.wait_for(b.recv(), 5.0) == (
                0, ("mod", StepValue(0)))
            writer = a._writers[1]
            # The socket dies under a writer that still looks idle.
            writer.transport.get_extra_info("socket").shutdown(socket.SHUT_WR)
            assert not writer.is_closing()
            await a.send(1, ("mod", StepValue(1)))  # lost with the socket
            assert a.dropped == 1
            assert 1 not in a._writers
            await a.send(1, ("mod", StepValue(0, decide=True)))  # redials
            assert await asyncio.wait_for(b.recv(), 5.0) == (
                0, ("mod", StepValue(0, decide=True)))
            assert a.dropped == 1
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())
