"""TCP transport tests: loopback consensus, authentication, framing.

The TCP smoke test is the acceptance bar of the runtime subsystem:
``n=4, t=1`` Bracha consensus over real localhost sockets, with and
without an injected fault.  The remaining tests drive the transport
directly and check that the :mod:`repro.net.auth` MAC layer actually
rejects what it promises to reject.
"""

import asyncio
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.net.auth import KeyRing
from repro.runtime import TcpTransport, binarycodec
from repro.runtime.codec import WireBatch
from repro.scenario import Scenario, run
from repro.runtime.tcp import (
    _BIN_BODY_AT, _BIN_HEADER, _MAC_LEN, BINARY_MAGIC, MAX_FRAME, WIRE_VERSION,
    encode_binary_frame,
)
from repro.types import StepValue


def test_tcp_loopback_consensus_n4_t1():
    result = run(Scenario(
        t=1, protocol="bracha", fabric="tcp", seed=0, timeout=30.0
    ))
    assert len(result.decided_values) == 1
    assert len(result.decisions) == 4
    assert result.metrics.counter("frames_rejected") == 0
    assert not result.violations


def test_tcp_loopback_with_silent_fault():
    result = run(Scenario(
        t=1, protocol="bracha", fabric="tcp", seed=1,
        faults={2: "silent"}, timeout=30.0,
    ))
    assert len(result.decided_values) == 1
    assert sorted(result.decisions) == [0, 1, 3]


def test_tcp_loopback_benor():
    result = run(Scenario(
        protocol="benor", fabric="tcp", seed=2, timeout=30.0
    ))
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


def test_a_readdressed_peer_is_dialled_at_its_new_port_at_once():
    """A respawned mp node binds a fresh port; one ``set_peers`` entry
    moves its peers' next send there — past a live stream to the old
    address and past the reconnect cooldown a refused dial leaves."""
    async def scenario():
        ring = KeyRing(2, master_secret=b"test-setup")
        a, b = await _connected_pair(ring)
        respawn = TcpTransport(1, 2, ring)
        try:
            await a.send(1, ("mod", StepValue(0)))
            await asyncio.wait_for(b.recv(), 5.0)
            await b.close()
            await a.send(1, ("mod", StepValue(0)))  # lost to the dead peer
            await respawn.start()
            a.set_peers({1: respawn.address})
            await a.send(1, ("mod", StepValue(1)))
            sender, payload = await asyncio.wait_for(respawn.recv(), 5.0)
            assert (sender, payload) == (0, ("mod", StepValue(1)))
        finally:
            for transport in (a, b, respawn):
                await transport.close()

    asyncio.run(scenario())


def _prefixed(raw: bytes) -> bytes:
    return struct.pack(">I", len(raw)) + raw


def _header(src: int, dst: int, version: int = WIRE_VERSION) -> bytes:
    return _BIN_HEADER.pack(BINARY_MAGIC, version, src, dst)


async def _inject(b, frames, rejected):
    """Write raw frames at ``b`` and wait until it has rejected that many."""
    _reader, writer = await asyncio.open_connection(*b.address)
    for raw in frames:
        writer.write(_prefixed(raw))
    await writer.drain()
    await _wait_for(lambda: b.rejected >= rejected)
    return writer


async def _assert_still_serving(a, b):
    await a.send(1, ("mod", StepValue(1)))
    sender, payload = await asyncio.wait_for(b.recv(), 5.0)
    assert (sender, payload) == (0, ("mod", StepValue(1)))


def test_the_wire_argument_is_a_validated_constant():
    ring = KeyRing(2, master_secret=b"test-setup")
    TcpTransport(0, 2, ring, wire="binary")  # what benchmarks/e2e passes
    for wire in ("json", "msgpack"):
        with pytest.raises(ReproError, match="JSON wire format was removed"):
            TcpTransport(0, 2, ring, wire=wire)


def test_tampered_frame_is_rejected():
    async def scenario():
        a, b = await _connected_pair()
        try:
            # The MAC of one payload around the body of another.
            mac = a._auth.tag_bytes(1, binarycodec.dumps(("mod", StepValue(1))))
            flipped = binarycodec.dumps(("mod", StepValue(0)))
            writer = await _inject(b, [_header(0, 1) + mac + flipped], 1)
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
            frame = encode_binary_frame(mallory, 1, ("mod", StepValue(1)))
            writer = await _inject(b, [frame], 1)
            assert b.accepted == 0
            writer.close()
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_a_frame_relabelled_with_another_sender_is_rejected():
    """p2 holds the keys of its own links only: its frame to p1,
    relabelled as p0's, fails p1's check, while the same frame under
    its true source is delivered as p2's."""
    async def scenario():
        ring = KeyRing(3, master_secret=b"test-setup")
        b = TcpTransport(1, 3, ring)
        await b.start()
        try:
            genuine = encode_binary_frame(
                ring.authenticator(2), 1, ("mod", StepValue(1)))
            forged = _header(0, 1) + genuine[_BIN_HEADER.size:]
            writer = await _inject(b, [forged], 1)
            assert b.accepted == 0
            writer.write(_prefixed(genuine))  # same connection
            await writer.drain()
            sender, payload = await asyncio.wait_for(b.recv(), 5.0)
            assert (sender, payload) == (2, ("mod", StepValue(1)))
            assert (b.accepted, b.rejected) == (1, 1)
            writer.close()
        finally:
            await b.close()

    asyncio.run(scenario())


def test_misaddressed_and_malformed_frames_are_rejected():
    async def scenario():
        a, b = await _connected_pair()
        try:
            frames = [
                # genuinely MAC'd for dst=0, delivered to node 1
                encode_binary_frame(a._auth, 0, ("mod", StepValue(1))),
                b"",  # a zero-length frame
                b"totally not json",
                b'{"nonsense": true}',
            ]
            writer = await _inject(b, frames, len(frames))
            assert b.accepted == 0
            await _assert_still_serving(a, b)
            assert b.rejected == len(frames)
            writer.close()
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


#: ``encode_json_frame(auth0, 1, ("mod", StepValue(1)))`` under the
#: ``b"test-setup"`` keyring, captured at the last commit that had a
#: JSON wire format (69cb50e): a frame a not-yet-upgraded *correct* peer
#: would send, valid MAC and all.
_PARENT_JSON_FRAME = bytes.fromhex(
    "7b22626f6479223a7b225f5f7475706c655f5f223a5b226d6f64222c7b225f5f6d73"
    "675f5f223a225374657056616c7565222c226669656c6473223a7b22626974223a31"
    "2c22646563696465223a66616c73657d7d5d7d2c22647374223a312c226d6163223a"
    "2264306363646234393566343630386232396432653433323731656465326130383164"
    "366265333237393439613437346133356163326339376332316239616263222c2273"
    "7263223a307d"
)


def test_json_frame_with_a_valid_mac_is_rejected_and_the_link_survives():
    # The format is gone, not special-cased: what used to raise
    # CodecMismatchError out of recv() is now one more counted, dropped
    # frame, and the connection keeps carrying good ones.
    async def scenario():
        a, b = await _connected_pair()
        try:
            assert _PARENT_JSON_FRAME.startswith(b'{"body":')
            writer = await _inject(b, [_PARENT_JSON_FRAME], 1)
            assert (b.accepted, b.rejected) == (0, 1)
            good = encode_binary_frame(a._auth, 1, ("mod", StepValue(1)))
            writer.write(_prefixed(good))  # same connection
            await writer.drain()
            sender, payload = await asyncio.wait_for(b.recv(), 5.0)
            assert (sender, payload) == (0, ("mod", StepValue(1)))
            assert (b.accepted, b.rejected) == (1, 1)
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


def test_oversized_frame_drops_the_connection():
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


def test_garbage_frames_never_kill_the_serve_task():
    # A Byzantine peer can shove arbitrary bytes down a connection:
    # random garbage, truncated frames, bad version bytes, out-of-range
    # headers, authenticated bodies the decoder refuses, and flipped
    # MACs must each be counted and dropped — the decoder raises
    # CodecError inside the transport, never out of the node loop.
    rng = random.Random(0xB1B1)

    def fuzz_frames(a):
        good = encode_binary_frame(a._auth, 1, ("mod", StepValue(1)))
        corpus = []
        # 1. truncated frames: the fixed cuts inside the header + MAC
        #    region, and random cuts anywhere
        for cut in (1, 2, _BIN_HEADER.size - 1, _BIN_HEADER.size,
                    _BIN_BODY_AT - 1, _BIN_BODY_AT):
            corpus.append(good[:cut])
        for _ in range(10):
            corpus.append(good[: rng.randrange(1, len(good) - 1)])
        # 2. bad wire-format version byte
        for version in (0, WIRE_VERSION + 1, 0xFF):
            corpus.append(bytes([good[0], version]) + good[2:])
        # 3. out-of-range src / dst in the header
        corpus.append(_header(99, 1) + good[_BIN_HEADER.size:])
        corpus.append(_header(0, 99) + good[_BIN_HEADER.size:])
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
            corpus.append(_header(0, 1) + a._auth.tag_bytes(1, body) + body)
        # 5. flipped MAC bits on an otherwise-genuine frame
        for _ in range(10):
            i = _BIN_HEADER.size + rng.randrange(_MAC_LEN)
            corpus.append(good[:i] + bytes([good[i] ^ 0x01]) + good[i + 1:])
        # 6. random garbage, with and without the magic byte in front
        for _ in range(10):
            corpus.append(bytes([BINARY_MAGIC])
                          + rng.randbytes(rng.randrange(1, 120)))
            corpus.append(rng.randbytes(rng.randrange(1, 200)))
        rng.shuffle(corpus)
        return corpus

    async def scenario():
        a, b = await _connected_pair()
        try:
            corpus = fuzz_frames(a)
            writer = await _inject(b, corpus, len(corpus))
            assert b.accepted == 0
            # The endpoint survived every frame: authentic traffic flows.
            await _assert_still_serving(a, b)
            assert b.rejected == len(corpus)
            writer.close()
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def _offline_receiver():
    """Node 1's transport, never started: ``_ingest`` needs no socket."""
    return TcpTransport(1, 2, KeyRing(2, master_secret=b"test-setup"))


_GENUINE = encode_binary_frame(
    KeyRing(2, master_secret=b"test-setup").authenticator(0), 1,
    ("mod", StepValue(1)),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=300),
    # past the header checks, so the MAC and the decoder see the bytes
    st.binary(max_size=300).map(lambda tail: _header(0, 1) + tail),
))
def test_arbitrary_bytes_never_raise_and_are_never_accepted(frame):
    b = _offline_receiver()
    b._ingest(frame)
    assert (b.accepted, b.rejected) == (0, 1)
    assert b._inbox.empty()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_one_byte_change_to_a_genuine_frame_is_rejected(data):
    i = data.draw(st.integers(0, len(_GENUINE) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda v: v != _GENUINE[i]))
    b = _offline_receiver()
    b._ingest(_GENUINE[:i] + bytes([byte]) + _GENUINE[i + 1:])
    assert (b.accepted, b.rejected) == (0, 1)
    b._ingest(_GENUINE)  # the control: the untouched frame is accepted
    assert (b.accepted, b.rejected) == (1, 1)


# -- the sender-side frame cap -------------------------------------------------


def test_oversized_outbound_frame_fails_loudly_at_the_sender():
    # Before the check the sender wrote the frame, the *receiver* dropped
    # the connection on the length prefix, and the link went silent.
    big = WireBatch(tuple(("mod", bytes(20_000)) for _ in range(64)))

    async def scenario():
        a, b = await _connected_pair()
        try:
            with pytest.raises(ReproError, match=rf"\d+ bytes.*{MAX_FRAME}-byte"):
                await a.send(1, big)
            # Nothing was written: the link is intact and still carries
            # the next frame.
            await _assert_still_serving(a, b)
            assert (b.rejected, a.dropped) == (0, 0)
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_the_frame_cap_binds_self_delivery_exactly_as_a_peer():
    # Self-delivery used to skip the cap: an oversize batch reached the
    # sender's own inbox and only then raised for the first peer.
    overhead = _BIN_BODY_AT + len(binarycodec.dumps(bytes(70_000))) - 70_000
    at_cap = bytes(MAX_FRAME - overhead)
    over_cap = at_cap + b"\x00"

    async def scenario(dest):
        a, b = await _connected_pair()
        try:
            assert len(encode_binary_frame(a._auth, dest, at_cap)) == MAX_FRAME
            await a.send(dest, at_cap)
            receiver = a if dest == 0 else b
            sender, received = await asyncio.wait_for(receiver.recv(), 5.0)
            assert (sender, received) == (0, at_cap)
            with pytest.raises(ReproError) as excinfo:
                await a.send(dest, over_cap)
            assert a._inbox.empty() and b._inbox.empty()
            assert b.rejected == 0
            return str(excinfo.value).replace(f"for node {dest}", "for node D")
        finally:
            await a.close()
            await b.close()

    to_self, to_peer = asyncio.run(scenario(0)), asyncio.run(scenario(1))
    assert to_self == to_peer
    assert f"is {MAX_FRAME + 1} bytes, over the {MAX_FRAME}-byte frame cap" in to_self
