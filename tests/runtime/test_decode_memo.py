"""Decode once per distinct body: the memo may save work, never change it.

Every receiving endpoint owns one :class:`~repro.runtime.binarycodec.BodyMemo`
and all three decode sites (``TcpTransport._ingest``, the tcp
self-delivery, ``LocalHub.dispatch``) go through it; a body the encoder
vouches for seeds its sender's memo as it is packed, and the
self-delivery of it is not decoded.  Four pins:

* **Differential** — over any *sequence* of bodies (valid encodings,
  truncations, mutations, arbitrary bytes, repeats, non-zero ``start``)
  one memo returns what memo-free ``binarycodec.loads`` returns — same
  ``repr``, same exact type — or both raise ``CodecError``, at every
  position.  Corpus and strategies are ``test_wire_parity``'s.
* **Invariants** — what is retained and what never is.
* **Security** — the MAC check runs per frame, before the memo is
  asked: a body the memo knows buys a forged frame nothing.
* **Counts** — full decodes per run on the n7x8 shape.  Exact on the
  ``local`` fabric, whose ``TickClock`` fixes the schedule: 144 (1 302
  unbatched).  A ``tcp`` run stops at its
  result with frames still unread in socket buffers, so there only what
  the memo guarantees is pinned: no endpoint decodes a body twice, or a
  body it seeded from its own exact encode.
"""

import asyncio
import dataclasses
import hashlib
from typing import Any, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.auth import KeyRing
from repro.obs import Observer, RingSink
from repro.runtime import Cluster, binarycodec, codec
from repro.runtime.binarycodec import MEMO_BYTES, BodyMemo
from repro.runtime.codec import CodecError, WireBatch
from repro.runtime.tcp import (
    _BIN_BODY_AT, _BIN_HEADER, MAX_FRAME, TcpTransport, encode_binary_frame,
)
from repro.runtime.transport import LocalHub
from repro.scenario import Scenario, run
from repro.types import StepValue

from .test_wire_parity import _VALUES, CORPUS, GOLDEN, _hashable, _routed


# -- (a) differential against memo-free loads ---------------------------------


def _outcome(decode, raw: bytes, start: int) -> Tuple[Any, ...]:
    try:
        value = decode(raw, start)
    except CodecError:
        return ("CodecError",)
    # repr + exact type, not ==: True == 1, 0.0 == -0.0, NaN != NaN.
    return ("ok", type(value), repr(value))


def _assert_sequence_decodes_alike(frames: List[Tuple[bytes, int]]) -> BodyMemo:
    memo = BodyMemo()
    for position, (raw, start) in enumerate(frames):
        assert _outcome(memo.loads, raw, start) == _outcome(
            binarycodec.loads, raw, start
        ), (position, raw.hex(), start)
        assert memo.retained == sum(map(len, memo._values)) <= MEMO_BYTES
    assert memo.hits + memo.misses == len(frames)
    return memo


@st.composite
def _body(draw) -> bytes:
    raw = draw(st.one_of(
        _VALUES.map(binarycodec.dumps),
        st.sampled_from(sorted(GOLDEN)).map(lambda row: bytes.fromhex(GOLDEN[row])),
        st.binary(max_size=48),
    ))
    how = draw(st.sampled_from(("whole", "whole", "cut", "flip")))
    if how == "cut":
        raw = raw[:draw(st.integers(0, len(raw)))]
    elif how == "flip" and raw:
        mutated = bytearray(raw)
        mutated[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
        raw = bytes(mutated)
    return raw


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_sequence_of_bodies_decodes_as_without_the_memo(data):
    pool = data.draw(st.lists(_body(), min_size=1, max_size=6), label="pool")
    order = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=len(pool), max_size=24),
        label="order",
    )
    frames = []
    for index in order:
        prefix = data.draw(st.binary(max_size=5), label="prefix")
        frames.append((prefix + pool[index], len(prefix)))
    _assert_sequence_decodes_alike(frames)


@pytest.mark.parametrize("row", sorted(CORPUS))
def test_golden_bodies_and_every_truncation_twice_through_one_memo(row):
    raw = bytes.fromhex(GOLDEN[row])
    bodies = [raw] + [raw[:cut] for cut in range(len(raw))] + [raw + b"\x00"]
    frames = [(body, 0) for body in bodies]
    frames += [(b"\xb1\x01" + body, 2) for body in bodies]
    memo = _assert_sequence_decodes_alike(frames)
    # The second pass hits exactly the bodies that decoded and hash.
    assert memo.hits == len(memo)
    assert (raw in memo._values) == _hashable(CORPUS[row])


def test_every_registered_message_hashes_only_when_frozen():
    # The retention rule reads hash(); its premise is that a wire type
    # is hashable exactly when it cannot be mutated after decode.
    for cls in codec._MESSAGES.values():
        params = cls.__dataclass_params__
        assert params.eq and (params.frozen or cls.__hash__ is None), cls


# -- (b) what is retained, and what never is ----------------------------------


def test_a_hashable_value_is_decoded_once_and_shared():
    memo = BodyMemo()
    raw = binarycodec.dumps(WireBatch((_routed(0), _routed(1))))
    first, second = memo.loads(raw), memo.loads(b"\x00" * 42 + raw, 42)
    assert first is second and first == binarycodec.loads(raw)
    assert (memo.hits, memo.misses, len(memo), memo.retained) == (1, 1, 1, len(raw))


@pytest.mark.parametrize("value", [
    ("m", [1, 2]), ("m", {"k": 1}), WireBatch((("m", (1, [2])),)), [],
])
def test_a_list_or_dict_bearing_value_is_a_fresh_object_each_time(value):
    memo = BodyMemo()
    raw = binarycodec.dumps(value)
    first, second = memo.loads(raw), memo.loads(raw)
    assert first == second == value and first is not second
    assert (memo.hits, memo.misses, len(memo), memo.retained) == (0, 2, 0, 0)


def test_a_body_that_decodes_to_none_is_a_value_not_a_miss():
    memo = BodyMemo()
    raw = binarycodec.dumps(None)
    assert memo.loads(raw) is None and memo.loads(raw) is None
    assert (memo.hits, memo.misses, len(memo)) == (1, 1, 1)


def test_a_failed_decode_is_not_retained():
    memo = BodyMemo()
    raw = binarycodec.dumps(("m", StepValue(1)))[:-1]
    for _ in range(2):
        with pytest.raises(CodecError):
            memo.loads(raw)
    assert (memo.hits, memo.misses, len(memo), memo.retained) == (0, 2, 0, 0)


def test_an_over_cap_body_is_not_retained_and_evicts_nothing():
    memo = BodyMemo()
    small = binarycodec.dumps(("m", 1))
    memo.loads(small)
    huge = binarycodec.dumps(("m", "x" * MEMO_BYTES))
    assert len(huge) > MEMO_BYTES
    assert memo.loads(huge) == memo.loads(huge) == ("m", "x" * MEMO_BYTES)
    assert (memo.hits, memo.misses, len(memo)) == (0, 3, 1)
    assert memo.retained == len(small)


def test_the_cap_is_one_max_frame():
    assert MEMO_BYTES == MAX_FRAME


def test_ten_thousand_distinct_authenticated_frames_stay_under_the_cap():
    ring = KeyRing(2, master_secret=b"memo-cap")
    sender, receiver = ring.authenticator(0), TcpTransport(1, 2, ring)
    memo, peak, clears = receiver.memo, 0, 0
    for i in range(10_000):
        before = len(memo)
        receiver._ingest(encode_binary_frame(sender, 1, ("m", i, "x" * 200)))
        clears += len(memo) <= before
        peak = max(peak, memo.retained)
        assert memo.retained <= MEMO_BYTES
    assert receiver.accepted == memo.misses == 10_000 and memo.hits == 0
    assert clears >= 1 and peak > MEMO_BYTES * 0.9  # filled, then dropped whole
    assert memo.retained == sum(map(len, memo._values))


def test_a_registration_after_first_use_empties_the_table(monkeypatch):
    # Registry ids are ranks of the sorted class names: a new first name
    # shifts every id, so the bytes that were an AuxMsg name the
    # newcomer.  A memo that kept its table would go on answering AuxMsg.
    monkeypatch.setattr(codec, "_MESSAGES", dict(codec._MESSAGES))
    memo = BodyMemo()
    raw = bytes.fromhex(GOLDEN["AuxMsg"])
    other = binarycodec.dumps(("m", 1))
    assert memo.loads(raw) is memo.loads(raw) and memo.loads(raw) == CORPUS["AuxMsg"]
    memo.loads(other)
    assert len(memo) == 2

    @dataclasses.dataclass(frozen=True)
    class AaMemoProbe:
        first: int
        second: int

    codec.register_message(AaMemoProbe)
    assert memo.loads(raw) == binarycodec.loads(raw) == AaMemoProbe(3, 1)
    assert len(memo) == 1 and memo.retained == len(raw)


# -- (c) the MAC check comes first, per frame ---------------------------------


def _drain(transport) -> List[Tuple[int, Any]]:
    items = []
    while not transport._inbox.empty():
        items.append(transport._inbox.get_nowait())
    return items


def test_a_known_body_buys_a_forged_frame_nothing():
    """Passes before the memo existed too: it pins that the memo opened
    no way round the per-frame check."""
    ring = KeyRing(3, master_secret=b"memo-auth")
    peer0, peer2 = ring.authenticator(0), ring.authenticator(2)
    mallory = KeyRing(3, master_secret=b"not-the-cluster").authenticator(0)
    receiver = TcpTransport(1, 3, ring)
    payload = ("mod", StepValue(1, decide=True))
    genuine = encode_binary_frame(peer0, 1, payload)
    body = genuine[_BIN_BODY_AT:]

    receiver._ingest(genuine)  # the body is now one the receiver has decoded
    assert (receiver.accepted, receiver.rejected) == (1, 0)

    def reheaded(frame: bytes, src: int, dst: int) -> bytes:
        return _BIN_HEADER.pack(*_BIN_HEADER.unpack_from(frame)[:2], src, dst) \
            + frame[_BIN_HEADER.size:]

    bad_mac = bytearray(genuine)
    bad_mac[_BIN_HEADER.size] ^= 0x01
    for_node_2 = encode_binary_frame(peer0, 2, payload)
    forged = [
        bytes(bad_mac),                           # same body, damaged MAC
        encode_binary_frame(mallory, 1, payload),  # same body, wrong link key
        for_node_2,                               # same body, genuine, misdelivered
        reheaded(for_node_2, 0, 1),               # ... with dst rewritten to us
        reheaded(genuine, 2, 1),                  # peer 0's MAC claimed by peer 2
    ]
    for frame in forged:
        assert frame[_BIN_BODY_AT:] == body
        receiver._ingest(frame)
    assert (receiver.accepted, receiver.rejected) == (1, len(forged))

    # The same body from another peer, under that peer's own key, is a
    # second delivery under that peer's own name.
    receiver._ingest(encode_binary_frame(peer2, 1, payload))
    assert (receiver.accepted, receiver.rejected) == (2, len(forged))
    assert _drain(receiver) == [(0, payload), (2, payload)]


def test_the_second_peers_copy_of_a_body_is_a_hit_delivered_under_its_own_src():
    ring = KeyRing(3, master_secret=b"memo-auth")
    receiver = TcpTransport(1, 3, ring)
    batch = WireBatch(tuple(_routed(i) for i in range(8)))
    for src in (0, 2, 0):
        receiver._ingest(encode_binary_frame(ring.authenticator(src), 1, batch))
    assert (receiver.memo.misses, receiver.memo.hits) == (1, 2)
    (s0, p0), (s1, p1), (s2, p2) = _drain(receiver)
    assert (s0, s1, s2) == (0, 2, 0)
    assert p0 is p1 is p2 and p0 == batch and p0 is not batch


# -- (d) per endpoint, never per process --------------------------------------


def test_two_tcp_endpoints_in_one_process_never_serve_each_other():
    ring = KeyRing(3, master_secret=b"memo-auth")
    sender = ring.authenticator(2)
    a, b = TcpTransport(0, 3, ring), TcpTransport(1, 3, ring)
    payload = _routed(0)
    a._ingest(encode_binary_frame(sender, 0, payload))
    b._ingest(encode_binary_frame(sender, 1, payload))
    assert a.memo is not b.memo
    assert (a.memo.misses, a.memo.hits) == (b.memo.misses, b.memo.hits) == (1, 0)
    (_, at_a), (_, at_b) = _drain(a) + _drain(b)
    assert at_a == at_b == payload and at_a is not at_b


class _Rank(int):
    """An ``int`` subclass: encodable, but it decodes as a plain ``int``."""


def _self_sends(payload: Any) -> Tuple[TcpTransport, Any, Any]:
    async def scenario():
        transport = TcpTransport(0, 2, KeyRing(2, master_secret=b"memo-self"))
        await transport.send(0, payload)
        await transport.send(0, payload)
        return transport

    transport = asyncio.run(scenario())
    (_, first), (_, second) = _drain(transport)
    return transport, first, second


def test_tcp_self_delivery_goes_through_the_endpoints_own_memo():
    # An exact payload is delivered as the object sent, twice, with no
    # decode; its body is seeded once, when packed, so a peer's copy of
    # it is a hit.
    payload = _routed(0)
    transport, first, second = _self_sends(payload)
    memo = transport.memo
    assert first is second is payload
    assert (memo.misses, memo.hits, memo.seeded) == (0, 0, 1)
    transport._ingest(encode_binary_frame(
        KeyRing(2, master_secret=b"memo-self").authenticator(1), 0, payload))
    assert (memo.misses, memo.hits) == (0, 1) and _drain(transport)[0][1] is payload

    # An inexact payload still crosses the codec: a fresh object with
    # the decoded types, shared through the memo when it hashes ...
    payload = ("rbc", _Rank(3))
    transport, first, second = _self_sends(payload)
    assert first is second and first == payload and first is not payload
    assert type(first[1]) is int
    assert (transport.memo.misses, transport.memo.hits, transport.memo.seeded) == (1, 1, 0)

    # ... and decoded afresh each time when it carries a list.
    payload = ("rbc", [1, 2])
    transport, first, second = _self_sends(payload)
    assert first == second == payload
    assert first is not second and first is not payload and first[1] is not payload[1]
    assert (transport.memo.misses, transport.memo.hits, transport.memo.seeded) == (2, 0, 0)


def test_local_hub_packs_per_object_and_decodes_at_the_destination(monkeypatch):
    packed = []
    real = binarycodec.pack
    monkeypatch.setattr(
        binarycodec, "pack", lambda obj: packed.append(obj) or real(obj))
    n = 4
    hub = LocalHub(n)
    ends = [hub.endpoint(pid) for pid in range(n)]
    shared, echo = _routed(0), _routed(0)  # equal bodies, distinct objects
    twins = [_routed(1) for _ in range(n)]  # an equivocator: equal, distinct

    async def scenario():
        for dest in range(n):
            await ends[0].send(dest, shared)   # one broadcast from 0 ...
        for dest in range(n):
            await ends[1].send(dest, echo)     # ... echoed by 1
        for dest in range(n):
            await ends[2].send(dest, twins[dest])

    asyncio.run(scenario())
    # One pack per payload object per sender; equal twins packed apart.
    assert [id(obj) for obj in packed] == [id(shared), id(echo)] + [id(t) for t in twins]
    d0, d1, d2, d3 = [[payload for _, payload in _drain(end)] for end in ends]
    # An endpoint's own exact payload is the object it sent, and seeds
    # its memo as it is packed: 1's equal body is a hit on 0's own object
    # at 0, and 2 seeds each of its four equal twins.
    assert d0[0] is d0[1] is shared and d1[1] is echo and d2[2] is twins[2]
    # Everything else is a decode, shared through that endpoint's memo.
    assert d1[0] == shared and d1[0] is not shared and d1[0] is not echo
    for decoded in (d2, d3):
        assert decoded[0] is decoded[1] == shared
        assert all(decoded[0] is not sent for sent in (shared, echo))
    assert d0[2] == d3[2] == twins[0]
    assert all(d[2] is not twin for d in (d0, d1, d3) for twin in twins)
    counts = [(end.memo.misses, end.memo.hits, end.memo.seeded) for end in ends]
    assert counts == [(1, 1, 1), (2, 0, 1), (1, 1, 4), (2, 1, 0)]
    firsts = [end.memo.loads(real(shared)[0]) for end in ends]
    assert len({id(obj) for obj in firsts}) == n  # nobody was served by a peer


# -- (e) decode counts: exact where the schedule is, guarantees where not -----


@pytest.fixture
def full_decodes(monkeypatch):
    calls = [0]
    real = binarycodec._unpack

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(binarycodec, "_unpack", counting)
    return calls


_N7X8 = dict(protocol="bracha", n=7, instances=8, stop="decided",
             timeout=120.0)


@pytest.mark.parametrize("seed", (1001, 1002, 1003))
@pytest.mark.parametrize("batching, decodes, delivered", [
    ("flush", 144, 16_744), ("off", 1_302, 17_528),
])
def test_full_decodes_per_run_on_the_local_n7x8_shape(
        full_decodes, batching, decodes, delivered, seed):
    # ``local`` runs under TickClock, so a scenario has one schedule and
    # these counts are exact.
    result = run(Scenario(**_N7X8, fabric="local", batching=batching, seed=seed))
    assert full_decodes[0] == decodes
    assert result.messages_delivered == delivered
    assert result.metrics.counter("frames_rejected") == 0


@pytest.mark.parametrize("fabric", ["local", "tcp"])
def test_no_endpoint_decodes_a_body_twice_or_one_it_seeded(monkeypatch, fabric):
    """A spy on every seed and every full decode of a flush n7x8 run: an
    endpoint never runs a full decode of bytes it decoded before, nor of
    bytes it seeded — every body it packed with an exact verdict, seeded
    at the pack, so a peer's equal body that arrives before the
    self-send is a hit too."""
    seeded: dict = {}     # memo -> bodies seeded so far
    decoded: set = set()  # (memo, body) per full decode
    real_seed, real_loads = BodyMemo.seed, BodyMemo.loads

    def seed(memo, body, value):
        seeded.setdefault(memo, set()).add(body)
        real_seed(memo, body, value)

    def loads(memo, raw, start=0):
        misses = memo.misses
        value = real_loads(memo, raw, start)
        if memo.misses != misses:
            body = bytes(raw[start:])
            assert body not in seeded.get(memo, ()), "decoded its own exact body"
            assert (memo, body) not in decoded, "decoded a body twice"
            decoded.add((memo, body))
        return value

    monkeypatch.setattr(BodyMemo, "seed", seed)
    monkeypatch.setattr(BodyMemo, "loads", loads)
    result = run(Scenario(**_N7X8, fabric=fabric, batching="flush", seed=1004))
    assert len(seeded) == 7
    assert result.metrics.counter("frames_rejected") == 0
    if fabric == "local":  # exact counts
        assert len(decoded) == 144
        assert sum(memo.seeded for memo in seeded) == 322
        assert sum(map(len, seeded.values())) == 322  # each body seeded once
        assert result.messages_delivered == 16_744


#: sha256 over the ordered ``(node, instance, round, value)`` of every
#: ``decide`` event of the run below, generated at commit 2dbad32.
_OBSERVED_DECIDE_STREAM = (
    "651cf8927430ab5a02ea7f3ab55dc4451532e12847b0dd6a9558e591161a2656"
)


def test_an_observed_run_has_zero_hits_and_the_same_decide_stream():
    # Under ``observe`` every send is wrapped in its own Stamped id, so
    # no two bodies are the same bytes: the memo costs one hash + insert
    # per frame there and saves nothing (docs/observability.md).
    async def scenario():
        observer = Observer(RingSink())
        cluster = Cluster(
            Scenario(n=7, protocol="bracha", fabric="local", instances=8,
                     batching="flush", seed=1001, timeout=120.0),
            observer=observer,
        )
        try:
            await cluster.start()
            await cluster.run()
        finally:
            await cluster.shutdown()
        return cluster, observer

    cluster, observer = asyncio.run(scenario())
    memos = [transport.memo for transport in cluster.transports.values()]
    assert sum(memo.hits for memo in memos) == 0
    assert sum(memo.misses + memo.seeded for memo in memos) > 2000
    stream = [(e.node, e.instance, e.round, e.detail)
              for e in observer.events() if e.kind == "decide"]
    assert len(stream) == 7 * 8
    assert hashlib.sha256(repr(stream).encode()).hexdigest() == _OBSERVED_DECIDE_STREAM
