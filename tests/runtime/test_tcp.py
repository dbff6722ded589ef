"""TCP transport tests: loopback consensus, authentication, framing.

The TCP smoke test is the acceptance bar of the runtime subsystem:
``n=4, t=1`` Bracha consensus over real localhost sockets, with and
without an injected fault.  The remaining tests drive the transport
directly and check that the :mod:`repro.net.auth` MAC layer actually
rejects what it promises to reject.
"""

import asyncio
import json
import struct

import pytest

from repro.net.auth import KeyRing
from repro.runtime import TcpTransport, run_cluster_sync
from repro.runtime.codec import canonical, encode
from repro.types import StepValue


def test_tcp_loopback_consensus_n4_t1():
    result = run_cluster_sync(
        4, t=1, protocol="bracha", transport="tcp", seed=0, timeout=30.0
    )
    assert len(result.decided_values) == 1
    assert len(result.decisions) == 4
    assert result.metrics.counter("frames_rejected") == 0
    assert not result.violations


def test_tcp_loopback_with_silent_fault():
    result = run_cluster_sync(
        4, t=1, protocol="bracha", transport="tcp", seed=1,
        faults={2: "silent"}, timeout=30.0,
    )
    assert len(result.decided_values) == 1
    assert sorted(result.decisions) == [0, 1, 3]


def test_tcp_loopback_benor():
    result = run_cluster_sync(
        4, protocol="benor", transport="tcp", seed=2, timeout=30.0
    )
    assert len(result.decided_values) == 1


# -- transport-level behavior -------------------------------------------------


def _pair(ring=None):
    ring = ring or KeyRing(2, master_secret=b"test-setup")
    return TcpTransport(0, 2, ring), TcpTransport(1, 2, ring)


async def _connected_pair(ring=None):
    a, b = _pair(ring)
    await a.start()
    await b.start()
    peers = {0: a.address, 1: b.address}
    a.set_peers(peers)
    b.set_peers(peers)
    return a, b


async def _wait_for(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.01)


def test_authentic_frame_is_delivered():
    async def scenario():
        a, b = await _connected_pair()
        try:
            await a.send(1, ("mod", StepValue(1, decide=True)))
            sender, payload = await asyncio.wait_for(b.recv(), 5.0)
            assert sender == 0
            assert payload == ("mod", StepValue(1, decide=True))
            assert b.accepted == 1 and b.rejected == 0
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def _frame(body: dict) -> bytes:
    raw = json.dumps(body).encode()
    return struct.pack(">I", len(raw)) + raw


def test_tampered_frame_is_rejected():
    async def scenario():
        a, b = await _connected_pair()
        try:
            encoded = encode(("mod", StepValue(1)))
            mac = a._auth.tag(1, canonical(encoded))
            flipped = encode(("mod", StepValue(0)))  # payload != MAC'd payload
            reader, writer = await asyncio.open_connection(*b.address)
            writer.write(_frame({"src": 0, "dst": 1, "body": flipped, "mac": mac.hex()}))
            await writer.drain()
            await _wait_for(lambda: b.rejected >= 1)
            assert b.accepted == 0
            writer.close()
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_frame_from_wrong_keyring_is_rejected():
    async def scenario():
        a, b = await _connected_pair()
        mallory = KeyRing(2, master_secret=b"attacker-keys").authenticator(0)
        try:
            encoded = encode(("mod", StepValue(1)))
            mac = mallory.tag(1, canonical(encoded))
            reader, writer = await asyncio.open_connection(*b.address)
            writer.write(_frame({"src": 0, "dst": 1, "body": encoded, "mac": mac.hex()}))
            await writer.drain()
            await _wait_for(lambda: b.rejected >= 1)
            assert b.accepted == 0
            writer.close()
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_misaddressed_and_malformed_frames_are_rejected():
    async def scenario():
        a, b = await _connected_pair()
        try:
            reader, writer = await asyncio.open_connection(*b.address)
            encoded = encode(("mod", StepValue(1)))
            mac = a._auth.tag(0, canonical(encoded))  # MAC'd for dst=0, sent to 1
            writer.write(_frame({"src": 0, "dst": 0, "body": encoded, "mac": mac.hex()}))
            writer.write(_frame({"nonsense": True}))
            raw = b"totally not json"
            writer.write(struct.pack(">I", len(raw)) + raw)
            await writer.drain()
            await _wait_for(lambda: b.rejected >= 3)
            assert b.accepted == 0
            writer.close()
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_sends_to_a_dead_peer_do_not_stall_the_loop():
    # A peer going away mid-run must cost a counter bump, not a blocking
    # reconnect loop in the sender's one run-loop task.
    import time

    async def scenario():
        a, b = await _connected_pair()
        await a.connect()
        await b.close()
        start = time.monotonic()
        for _ in range(50):
            await a.send(1, ("mod", StepValue(1)))
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"50 sends to a dead peer took {elapsed:.2f}s"
        assert a.dropped >= 1
        await a.close()

    asyncio.run(scenario())


def test_deeply_nested_frame_is_rejected_not_fatal():
    # A recursion bomb (b"[" * k) must be counted and dropped like any
    # other garbage; the endpoint keeps serving afterwards.
    async def scenario():
        a, b = await _connected_pair()
        try:
            reader, writer = await asyncio.open_connection(*b.address)
            bomb = b"[" * 100_000
            writer.write(struct.pack(">I", len(bomb)) + bomb)
            await writer.drain()
            await _wait_for(lambda: b.rejected >= 1)
            assert b.accepted == 0
            await a.send(1, ("mod", StepValue(1)))
            sender, payload = await asyncio.wait_for(b.recv(), 5.0)
            assert (sender, payload) == (0, ("mod", StepValue(1)))
            writer.close()
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_concurrent_sends_to_one_peer_are_serialized():
    # Netem delay tasks and the retransmission scan transmit
    # concurrently with the node loop; the per-destination send lock
    # must keep racing drain()/reconnect attempts from corrupting the
    # stream or tripping asyncio's flow-control assertion.
    async def scenario():
        a, b = await _connected_pair()
        try:
            payloads = [("bulk", "x" * 2000, i) for i in range(80)]
            await asyncio.gather(
                *(a.send(1, payload) for payload in payloads)
            )
            got = set()
            while len(got) < len(payloads):
                _sender, payload = await asyncio.wait_for(b.recv(), 10.0)
                got.add(payload[2])
            assert got == set(range(len(payloads)))
            assert b.rejected == 0
            assert len(a._writers) <= 1  # no duplicate connections leaked
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_fuzzed_garbage_frames_never_kill_the_serve_task():
    # Satellite of the netem PR: a Byzantine peer can shove arbitrary
    # bytes down a connection.  Spray seeded malformed/truncated/bad-MAC
    # frames through the codec path and assert every one is counted and
    # dropped while the endpoint keeps serving authentic traffic.
    import random

    rng = random.Random(0xBEEF)

    def fuzz_frames(a):
        encoded = encode(("mod", StepValue(1)))
        good_mac = a._auth.tag(1, canonical(encoded)).hex()
        corpus = []
        # 1. random binary garbage of assorted sizes
        for _ in range(10):
            corpus.append(rng.randbytes(rng.randrange(1, 200)))
        # 2. truncated valid JSON bodies
        body = json.dumps(
            {"src": 0, "dst": 1, "body": encoded, "mac": good_mac}
        ).encode()
        for _ in range(10):
            corpus.append(body[: rng.randrange(1, len(body) - 1)])
        # 3. structurally valid JSON with wrong shapes and types
        corpus.extend(
            json.dumps(doc).encode()
            for doc in (
                [],
                42,
                {"src": "zero", "dst": 1, "body": encoded, "mac": good_mac},
                {"src": 99, "dst": 1, "body": encoded, "mac": good_mac},
                {"src": 0, "dst": 99, "body": encoded, "mac": good_mac},
                {"src": 0, "dst": 1, "body": encoded, "mac": "zz-not-hex"},
                {"src": 0, "dst": 1, "body": encoded},
                {"src": 0, "dst": 1, "body": {"__msg__": "NoSuchType",
                                              "fields": {}}, "mac": good_mac},
            )
        )
        # 4. bad MACs: flip one hex digit of a genuine tag
        for _ in range(10):
            i = rng.randrange(len(good_mac))
            flipped = (
                good_mac[:i]
                + ("0" if good_mac[i] != "0" else "1")
                + good_mac[i + 1:]
            )
            corpus.append(
                json.dumps(
                    {"src": 0, "dst": 1, "body": encoded, "mac": flipped}
                ).encode()
            )
        rng.shuffle(corpus)
        return corpus

    async def scenario():
        a, b = await _connected_pair()
        try:
            corpus = fuzz_frames(a)
            reader, writer = await asyncio.open_connection(*b.address)
            for raw in corpus:
                writer.write(struct.pack(">I", len(raw)) + raw)
            await writer.drain()
            await _wait_for(lambda: b.rejected >= len(corpus))
            assert b.accepted == 0
            # The endpoint survived every frame: authentic traffic flows.
            await a.send(1, ("mod", StepValue(1)))
            sender, payload = await asyncio.wait_for(b.recv(), 5.0)
            assert (sender, payload) == (0, ("mod", StepValue(1)))
            assert b.rejected == len(corpus)
            writer.close()
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_oversized_frame_drops_the_connection():
    from repro.runtime.tcp import MAX_FRAME

    async def scenario():
        a, b = await _connected_pair()
        try:
            reader, writer = await asyncio.open_connection(*b.address)
            writer.write(struct.pack(">I", MAX_FRAME + 1))
            await writer.drain()
            await _wait_for(lambda: b.rejected >= 1)
            assert b.accepted == 0
            writer.close()
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


# -- the binary wire path -----------------------------------------------------


def _binary_pair(ring=None):
    ring = ring or KeyRing(2, master_secret=b"test-setup")
    return (TcpTransport(0, 2, ring, wire="binary"),
            TcpTransport(1, 2, ring, wire="binary"))


def test_binary_wire_round_trip_between_peers():
    async def scenario():
        a, b = _binary_pair()
        await a.start()
        await b.start()
        peers = {0: a.address, 1: b.address}
        a.set_peers(peers)
        b.set_peers(peers)
        try:
            payload = ("mod", StepValue(1, decide=True))
            await a.send(1, payload)
            sender, received = await asyncio.wait_for(b.recv(), 5.0)
            assert (sender, received) == (0, payload)
            assert b.rejected == 0
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_mixed_codec_peers_fail_loudly():
    # An *authenticated* frame in the other wire format is a deployment
    # error, not Byzantine garbage: the receiving node's recv() must
    # raise a named error that points at the scenario field to fix.
    from repro.runtime.codec import CodecMismatchError

    async def scenario():
        ring = KeyRing(2, master_secret=b"test-setup")
        a = TcpTransport(0, 2, ring, wire="json")
        b = TcpTransport(1, 2, ring, wire="binary")
        await a.start()
        await b.start()
        peers = {0: a.address, 1: b.address}
        a.set_peers(peers)
        b.set_peers(peers)
        try:
            await a.send(1, ("mod", StepValue(1)))
            with pytest.raises(CodecMismatchError, match="codec"):
                await asyncio.wait_for(b.recv(), 5.0)
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_binary_garbage_frames_never_kill_the_serve_task():
    # The binary-codec arm of the garbage-fuzz corpus: truncated
    # headers, bad version bytes, over-length varints, and flipped MACs
    # must each be counted and dropped — the decoder raises CodecError
    # inside the transport, never out of the node loop.
    import random

    from repro.runtime import binarycodec
    from repro.runtime.tcp import (
        _BIN_HEADER, _MAC_LEN, BINARY_MAGIC, WIRE_VERSION,
        encode_binary_frame,
    )

    rng = random.Random(0xB1B1)

    def fuzz_frames(a):
        good = encode_binary_frame(a._auth, 1, ("mod", StepValue(1)))
        corpus = []
        # 1. truncated headers: cut inside the fixed header + MAC region
        for cut in (1, 2, _BIN_HEADER.size - 1, _BIN_HEADER.size,
                    _BIN_HEADER.size + _MAC_LEN - 1,
                    _BIN_HEADER.size + _MAC_LEN):
            corpus.append(good[:cut])
        # 2. bad wire-format version byte
        for version in (0, WIRE_VERSION + 1, 0xFF):
            corpus.append(bytes([good[0], version]) + good[2:])
        # 3. out-of-range src / dst in the header
        corpus.append(_BIN_HEADER.pack(BINARY_MAGIC, WIRE_VERSION, 99, 1)
                      + good[_BIN_HEADER.size:])
        corpus.append(_BIN_HEADER.pack(BINARY_MAGIC, WIRE_VERSION, 0, 99)
                      + good[_BIN_HEADER.size:])
        # 4. authenticated bodies that fail the decoder: an over-length
        #    varint and a container bomb, each with a *valid* MAC so the
        #    decode path itself is what rejects them
        bad_bodies = [bytes([binarycodec._T_STR]) + b"\xff" * 11]
        bomb = bytearray([binarycodec._T_TUPLE])
        binarycodec._pack_varint(bomb, 1 << 20)
        bad_bodies.append(bytes(bomb) + b"\x00")
        #    ... and a nesting bomb: 200 000 tuples inside one another
        #    (a RecursionError before the codec's nesting cap)
        bad_bodies.append(
            bytes([binarycodec._T_TUPLE, 1]) * 200_000 + b"\x00"
        )
        for body in bad_bodies:
            corpus.append(
                _BIN_HEADER.pack(BINARY_MAGIC, WIRE_VERSION, 0, 1)
                + a._auth.tag_bytes(1, body) + body
            )
        # 5. flipped MAC bits on an otherwise-genuine frame
        for _ in range(10):
            i = _BIN_HEADER.size + rng.randrange(_MAC_LEN)
            corpus.append(good[:i] + bytes([good[i] ^ 0x01]) + good[i + 1:])
        # 6. random garbage opening with the binary magic byte
        for _ in range(10):
            corpus.append(bytes([BINARY_MAGIC])
                          + rng.randbytes(rng.randrange(1, 120)))
        rng.shuffle(corpus)
        return corpus

    async def scenario():
        a, b = _binary_pair()
        await a.start()
        await b.start()
        peers = {0: a.address, 1: b.address}
        a.set_peers(peers)
        b.set_peers(peers)
        try:
            corpus = fuzz_frames(a)
            reader, writer = await asyncio.open_connection(*b.address)
            for raw in corpus:
                writer.write(struct.pack(">I", len(raw)) + raw)
            await writer.drain()
            await _wait_for(lambda: b.rejected >= len(corpus))
            assert b.accepted == 0
            # The endpoint survived every frame: authentic traffic flows.
            await a.send(1, ("mod", StepValue(1)))
            sender, payload = await asyncio.wait_for(b.recv(), 5.0)
            assert (sender, payload) == (0, ("mod", StepValue(1)))
            assert b.rejected == len(corpus)
            writer.close()
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


# -- the sender-side frame cap -------------------------------------------------


def test_oversized_outbound_frame_fails_loudly_at_the_sender():
    # Before the check the sender wrote the frame, the *receiver* dropped
    # the connection on the length prefix, and the link went silent.
    from repro.errors import ReproError
    from repro.runtime.codec import WireBatch
    from repro.runtime.tcp import MAX_FRAME

    big = WireBatch(tuple(("mod", bytes(20_000)) for _ in range(64)))

    async def scenario(wire):
        ring = KeyRing(2, master_secret=b"test-setup")
        a = TcpTransport(0, 2, ring, wire=wire)
        b = TcpTransport(1, 2, ring, wire=wire)
        await a.start()
        await b.start()
        peers = {0: a.address, 1: b.address}
        a.set_peers(peers)
        b.set_peers(peers)
        try:
            with pytest.raises(ReproError, match=rf"\d+ bytes.*{MAX_FRAME}-byte"):
                await a.send(1, big)
            # Nothing was written: the link is intact and still carries
            # the next frame.
            await a.send(1, ("mod", StepValue(1)))
            sender, payload = await asyncio.wait_for(b.recv(), 5.0)
            assert (sender, payload) == (0, ("mod", StepValue(1)))
            assert (b.rejected, a.dropped) == (0, 0)
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario("binary"))
    asyncio.run(scenario("json"))


def test_a_frame_of_exactly_max_frame_still_passes():
    from repro.errors import ReproError
    from repro.runtime.tcp import MAX_FRAME, encode_binary_frame

    async def scenario():
        a, b = _binary_pair()
        await a.start()
        await b.start()
        peers = {0: a.address, 1: b.address}
        a.set_peers(peers)
        b.set_peers(peers)
        try:
            overhead = len(encode_binary_frame(a._auth, 1, bytes(70_000))) - 70_000
            payload = bytes(MAX_FRAME - overhead)
            assert len(encode_binary_frame(a._auth, 1, payload)) == MAX_FRAME
            await a.send(1, payload)
            sender, received = await asyncio.wait_for(b.recv(), 5.0)
            assert (sender, received) == (0, payload)
            with pytest.raises(ReproError, match="frame cap"):
                await a.send(1, payload + b"\x00")
            assert b.rejected == 0
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())
