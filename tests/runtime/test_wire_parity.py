"""Wire parity: the binary path may get faster, the bytes may not move.

Four pins on the binary wire path (``WIRE_VERSION`` stays 1):

* **Golden frames** — ``dumps()`` of one value of every registered
  message and enum type, the scalar edges, and one 8-message
  ``WireBatch`` captured from a ``tcp-flush-n7x8`` run, as hex.  The
  table was generated at commit e8ade1a (before the pack-once /
  loop-decoder rewrite) with ``PYTHONPATH=src python
  tests/runtime/test_wire_parity.py``, which prints it.
* **Differential decode** — the decoder of commit e8ade1a is kept below
  *verbatim* as ``_reference_unpack``; on valid encodings, every
  truncation of them and single-byte mutations, the live decoder must
  return the same value or both must raise ``CodecError``.
* **Sharing** — one flush of a pure-broadcast step hands the transport
  one payload object for all n destinations and costs one ``dumps``;
  anything that differs per destination is not shared.
* **Equivocation** — a two-faced node on ``fabric: tcp, codec: binary``
  still puts each face's bytes on the right links.
"""

import asyncio
import enum
from typing import Any, Dict, List, Tuple, Type

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.benor import BenOrDecide, PVote, RVote
from repro.baselines.bv_broadcast import BvValue
from repro.baselines.mmr14 import AuxMsg, MmrDecide
from repro.core.broadcast import RbcMessage
from repro.core.coin import CoinShareMsg
from repro.core.consensus import DecideMsg
from repro.crypto.dealer import SignedShare
from repro.crypto.shamir import Share
from repro.netem.frames import LinkAck, LinkFrame
from repro.params import for_system
from repro.runtime import binarycodec, codec, tcp
from repro.runtime.codec import (
    CodecError, FifoPacket, SealedPacket, Stamped, WireBatch,
)
from repro.runtime.node import Node, NodeNetwork
from repro.runtime.transport import Transport
from repro.scenario import get_scenario, run
from repro.sim.effects import FLUSH_BATCH_LIMIT
from repro.types import Phase, Step, StepValue


# -- (a) golden frames -------------------------------------------------------


def _captured_batch() -> WireBatch:
    """The first frame node 0 sends in ``tcp-flush-n7x8`` (seed 1000):
    its eight instances' round-1 INIT broadcasts, coalesced."""
    return WireBatch(tuple(
        ("rbc", RbcMessage((f"bracha-{i}", 1, 1, 0), 0, Phase.INIT, StepValue(0)))
        for i in range(8)
    ))


_SHARE = SignedShare(2, 5, Share(3, 2**61 - 2), b"\x01\xfe" * 16)

#: row -> the value whose ``dumps()`` is pinned.  Every registered
#: message and enum type appears at least once.
CORPUS: Dict[str, Any] = {
    "AuxMsg": AuxMsg(3, 1),
    "BenOrDecide": BenOrDecide(0),
    "BvValue": BvValue(2, 1),
    "CoinShareMsg": CoinShareMsg(5, _SHARE),
    "DecideMsg": DecideMsg(1),
    "FifoPacket": FifoPacket(300, "fifo", ("rbc", DecideMsg(0))),
    "LinkAck": LinkAck(70000),
    "LinkFrame": LinkFrame(129, ("bracha:3", DecideMsg(1))),
    "MmrDecide": MmrDecide(1),
    "PVote": PVote(4, None),
    "RVote": RVote(4, 1),
    "RbcMessage": RbcMessage(("bracha-0", 2, 3, 5), 5, Phase.READY,
                             StepValue(1, decide=True)),
    "SealedPacket": SealedPacket(1, "sec", ("rbc", RVote(1, 0)), b"\x00" * 32),
    "Share": Share(7, -3),
    "SignedShare": _SHARE,
    "Stamped": Stamped("3:17", ("mod", StepValue(0))),
    "StepValue": StepValue(0),
    "WireBatch": WireBatch((("m", 1), ("m", 2))),
    "Phase.INIT": Phase.INIT,
    "Phase.ECHO": Phase.ECHO,
    "Phase.READY": Phase.READY,
    "Step.ONE": Step.ONE,
    "Step.TWO": Step.TWO,
    "Step.THREE": Step.THREE,
    "scalars": (None, True, False, 0, 63, 64, -64, -65, 2**63 - 1, -(2**63),
                2**63, -(2**80), 3.14159, "", "payload-é中文", b"\x00\xff",
                "x" * 200),
    "containers": ((), [1, "two", (3,)], {}, {"b": 1, "a": [2]},
                   tuple(range(130))),
    "captured-8-message-batch": _captured_batch(),
}

#: row -> ``dumps(CORPUS[row]).hex()`` at commit e8ade1a.
GOLDEN: Dict[str, str] = {
    'AuxMsg': (
        "0c0003060302"
    ),
    'BenOrDecide': (
        "0c010300"
    ),
    'BvValue': (
        "0c0203040302"
    ),
    'CoinShareMsg': (
        "0c03030a0c0e0304030a0c0d030603fcffffffffffffff3f072001fe01fe01fe"
        "01fe01fe01fe01fe01fe01fe01fe01fe01fe01fe01fe01fe01fe"
    ),
    'DecideMsg': (
        "0c040302"
    ),
    'FifoPacket': (
        "0c0503d80406046669666f080206037262630c040300"
    ),
    'LinkAck': (
        "0c0603e0c508"
    ),
    'LinkFrame': (
        "0c07038202080206086272616368613a330c040302"
    ),
    'MmrDecide': (
        "0c080302"
    ),
    'PVote': (
        "0c09030800"
    ),
    'RVote': (
        "0c0a03080302"
    ),
    'RbcMessage': (
        "0c0b080406086272616368612d3003040306030a030a0b000552454144590c10"
        "030201"
    ),
    'SealedPacket': (
        "0c0c03020603736563080206037262630c0a0302030007200000000000000000"
        "000000000000000000000000000000000000000000000000"
    ),
    'Share': (
        "0c0d030e0305"
    ),
    'SignedShare': (
        "0c0e0304030a0c0d030603fcffffffffffffff3f072001fe01fe01fe01fe01fe"
        "01fe01fe01fe01fe01fe01fe01fe01fe01fe01fe01fe"
    ),
    'Stamped': (
        "0c0f0604333a3137080206036d6f640c10030002"
    ),
    'StepValue': (
        "0c10030002"
    ),
    'WireBatch': (
        "0c110802080206016d0302080206016d0304"
    ),
    'Phase.INIT': (
        "0b0004494e4954"
    ),
    'Phase.ECHO': (
        "0b00044543484f"
    ),
    'Phase.READY': (
        "0b00055245414459"
    ),
    'Step.ONE': (
        "0b01034f4e45"
    ),
    'Step.TWO': (
        "0b010354574f"
    ),
    'Step.THREE': (
        "0b01055448524545"
    ),
    'scalars': (
        "08110001020300037e038001037f03810103feffffffffffffffff0103ffffff"
        "ffffffffffff01040008800000000000000004010b0100000000000000000000"
        "05400921f9f01b866e060006107061796c6f61642dc3a9e4b8ade69687070200"
        "ff06c80178787878787878787878787878787878787878787878787878787878"
        "7878787878787878787878787878787878787878787878787878787878787878"
        "7878787878787878787878787878787878787878787878787878787878787878"
        "7878787878787878787878787878787878787878787878787878787878787878"
        "7878787878787878787878787878787878787878787878787878787878787878"
        "7878787878787878787878787878787878787878787878787878787878787878"
        "787878787878787878787878"
    ),
    'containers': (
        "0805080009030302060374776f080103060a000a020161090103040162030208"
        "820103000302030403060308030a030c030e03100312031403160318031a031c"
        "031e03200322032403260328032a032c032e03300332033403360338033a033c"
        "033e03400342034403460348034a034c034e03500352035403560358035a035c"
        "035e03600362036403660368036a036c036e03700372037403760378037a037c"
        "037e038001038201038401038601038801038a01038c01038e01039001039201"
        "039401039601039801039a01039c01039e0103a00103a20103a40103a60103a8"
        "0103aa0103ac0103ae0103b00103b20103b40103b60103b80103ba0103bc0103"
        "be0103c00103c20103c40103c60103c80103ca0103cc0103ce0103d00103d201"
        "03d40103d60103d80103da0103dc0103de0103e00103e20103e40103e60103e8"
        "0103ea0103ec0103ee0103f00103f20103f40103f60103f80103fa0103fc0103"
        "fe01038002038202"
    ),
    'captured-8-message-batch': (
        "0c110808080206037262630c0b080406086272616368612d3003020302030003"
        "000b0004494e49540c10030002080206037262630c0b08040608627261636861"
        "2d3103020302030003000b0004494e49540c10030002080206037262630c0b08"
        "0406086272616368612d3203020302030003000b0004494e49540c1003000208"
        "0206037262630c0b080406086272616368612d3303020302030003000b000449"
        "4e49540c10030002080206037262630c0b080406086272616368612d34030203"
        "02030003000b0004494e49540c10030002080206037262630c0b080406086272"
        "616368612d3503020302030003000b0004494e49540c10030002080206037262"
        "630c0b080406086272616368612d3603020302030003000b0004494e49540c10"
        "030002080206037262630c0b080406086272616368612d370302030203000300"
        "0b0004494e49540c10030002"
    ),
}


def test_corpus_covers_every_registered_wire_type():
    seen = set()

    def walk(value: Any) -> None:
        seen.add(type(value))
        if isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif type(value) in codec._MESSAGES.values():
            for name in binarycodec.registry_tables()[0][type(value)][1]:
                walk(getattr(value, name))

    for value in CORPUS.values():
        walk(value)
    registered = set(codec._MESSAGES.values()) | set(codec._ENUMS.values())
    assert registered <= seen, f"no golden value for {registered - seen}"
    for enum_cls in codec._ENUMS.values():
        for member in enum_cls:
            assert any(v is member for v in CORPUS.values()), member


@pytest.mark.parametrize("row", sorted(CORPUS))
def test_golden_frame_bytes_do_not_move(row):
    raw = binarycodec.dumps(CORPUS[row])
    assert raw.hex() == GOLDEN[row]
    assert binarycodec.loads(raw) == CORPUS[row]
    assert binarycodec.loads(b"\xaa\xbb\xcc" + raw, 3) == CORPUS[row]


def test_wire_version_is_unchanged():
    assert tcp.WIRE_VERSION == 1


# -- (b) differential decode against the parent's decoder ---------------------
#
# ``_reference_unpack_varint`` / ``_reference_unpack`` / ``_reference_loads``
# are the decoder of commit e8ade1a, verbatim except for their names and
# the two table lines of ``_reference_loads`` (the registry tables changed
# shape).  Do not "improve" them: they are the specification.

from repro.runtime.binarycodec import (  # noqa: E402
    _DOUBLE, _T_BIGINT, _T_BYTES, _T_DICT, _T_ENUM, _T_FALSE, _T_FLOAT,
    _T_INT, _T_LIST, _T_MSG, _T_NONE, _T_STR, _T_TRUE, _T_TUPLE,
    _VARINT_MAX_BYTES,
)


def _reference_unpack_varint(buf: memoryview, pos: int, end: int) -> Tuple[int, int]:
    value = 0
    shift = 0
    for count in range(_VARINT_MAX_BYTES):
        if pos >= end:
            raise CodecError("truncated varint")
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
    raise CodecError("over-length varint (more than 10 bytes)")


def _reference_unpack(buf: memoryview, pos: int, end: int,
            msg_types: List[Tuple[Type[Any], Tuple[str, ...]]],
            enum_types: List[Type[enum.Enum]]) -> Tuple[Any, int]:
    if pos >= end:
        raise CodecError("truncated frame: expected a value tag")
    tag = buf[pos]
    pos += 1
    if tag == _T_MSG:
        msg_id, pos = _reference_unpack_varint(buf, pos, end)
        if msg_id >= len(msg_types):
            raise CodecError(f"unknown message id {msg_id}")
        cls, fields = msg_types[msg_id]
        values = []
        for _ in fields:
            value, pos = _reference_unpack(buf, pos, end, msg_types, enum_types)
            values.append(value)
        try:
            return cls(*values), pos
        except CodecError:
            raise
        except Exception as exc:  # constructor validation rejected it
            raise CodecError(
                f"rejected {cls.__name__} payload: {exc}"
            ) from exc
    if tag == _T_INT:
        raw, pos = _reference_unpack_varint(buf, pos, end)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == _T_STR:
        length, pos = _reference_unpack_varint(buf, pos, end)
        if pos + length > end:
            raise CodecError("truncated string")
        try:
            return str(buf[pos:pos + length], "utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise CodecError(f"bad UTF-8 in string: {exc}") from exc
    if tag == _T_TUPLE or tag == _T_LIST:
        count, pos = _reference_unpack_varint(buf, pos, end)
        if count > end - pos:  # every item needs at least one byte
            raise CodecError("container count exceeds frame size")
        items = []
        for _ in range(count):
            value, pos = _reference_unpack(buf, pos, end, msg_types, enum_types)
            items.append(value)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        if pos + 8 > end:
            raise CodecError("truncated float")
        return _DOUBLE.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_BYTES:
        length, pos = _reference_unpack_varint(buf, pos, end)
        if pos + length > end:
            raise CodecError("truncated bytes")
        return bytes(buf[pos:pos + length]), pos + length
    if tag == _T_DICT:
        count, pos = _reference_unpack_varint(buf, pos, end)
        if count > end - pos:
            raise CodecError("container count exceeds frame size")
        table: Dict[str, Any] = {}
        for _ in range(count):
            length, pos = _reference_unpack_varint(buf, pos, end)
            if pos + length > end:
                raise CodecError("truncated dict key")
            try:
                key = str(buf[pos:pos + length], "utf-8")
            except UnicodeDecodeError as exc:
                raise CodecError(f"bad UTF-8 in dict key: {exc}") from exc
            pos += length
            table[key], pos = _reference_unpack(buf, pos, end, msg_types, enum_types)
        return table, pos
    if tag == _T_ENUM:
        enum_id, pos = _reference_unpack_varint(buf, pos, end)
        if enum_id >= len(enum_types):
            raise CodecError(f"unknown enum id {enum_id}")
        length, pos = _reference_unpack_varint(buf, pos, end)
        if pos + length > end:
            raise CodecError("truncated enum member name")
        try:
            name = str(buf[pos:pos + length], "utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"bad UTF-8 in enum member: {exc}") from exc
        try:
            return enum_types[enum_id][name], pos + length
        except KeyError:
            raise CodecError(
                f"unknown member {name!r} of enum "
                f"{enum_types[enum_id].__name__}"
            ) from None
    if tag == _T_BIGINT:
        if pos >= end:
            raise CodecError("truncated bigint sign")
        sign = buf[pos]
        if sign > 1:
            raise CodecError(f"bad bigint sign byte {sign}")
        pos += 1
        length, pos = _reference_unpack_varint(buf, pos, end)
        if pos + length > end:
            raise CodecError("truncated bigint")
        value = int.from_bytes(buf[pos:pos + length], "big")
        return (-value if sign else value), pos + length
    raise CodecError(f"unknown type tag 0x{tag:02x}")


def _reference_loads(raw: Any) -> Any:
    """Decode binary bytes (or a memoryview) back into a payload.

    A :class:`memoryview` input is decoded in place — container
    structure and scalars materialize, the buffer is never copied.
    """
    buf = raw if isinstance(raw, memoryview) else memoryview(raw)
    _, msg_types, enum_members = binarycodec.registry_tables()
    enum_types = [enum_cls for enum_cls, _members in enum_members]
    value, pos = _reference_unpack(buf, 0, len(buf), msg_types, enum_types)
    if pos != len(buf):
        raise CodecError(
            f"{len(buf) - pos} trailing bytes after the decoded value"
        )
    return value


def _outcome(decoder, raw: bytes) -> Tuple[str, Any]:
    try:
        value = decoder(raw)
    except CodecError:
        return ("CodecError", None)
    # repr, not ==: True == 1 and 0.0 == -0.0 though the type and the
    # sign are part of the decoded value, and a mutated float may be a
    # NaN, which equals nothing.  Every wire type has a faithful repr.
    return ("ok", repr(value))


def _assert_same_decode(raw: bytes) -> None:
    assert _outcome(binarycodec.loads, raw) == _outcome(_reference_loads, raw)


_BITS = st.integers(0, 1)
_SMALL = st.integers(0, 300)
_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(-200, 200), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False), st.text(max_size=12), st.binary(max_size=12),
    st.sampled_from(list(Phase) + list(Step)),
    st.builds(StepValue, _BITS, st.booleans()),
    st.builds(Share, st.integers(1, 50), st.integers(0, 2**61 - 2)),
    st.builds(DecideMsg, _BITS), st.builds(LinkAck, _SMALL),
)


def _containers(children):
    routed = st.tuples(st.text(max_size=8), children)
    return st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
        st.builds(RbcMessage, children.filter(_hashable), st.integers(0, 6),
                  st.sampled_from(list(Phase)), children),
        st.builds(LinkFrame, _SMALL, children),
        st.builds(FifoPacket, _SMALL, st.text(max_size=6), children),
        st.lists(routed, min_size=1, max_size=4).map(
            lambda messages: WireBatch(tuple(messages))),
    )


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


_VALUES = st.recursive(_LEAVES, _containers, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_valid_encodings_and_every_truncation_decode_alike(value):
    raw = binarycodec.dumps(value)
    assert binarycodec.loads(raw) == value
    _assert_same_decode(raw)
    for cut in range(len(raw)):
        _assert_same_decode(raw[:cut])
    _assert_same_decode(raw + b"\x00")


@settings(max_examples=500, deadline=None)
@given(_VALUES, st.data())
def test_single_byte_mutations_decode_alike(value, data):
    raw = bytearray(binarycodec.dumps(value))
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    raw[at] = data.draw(st.integers(0, 255), label="byte")
    _assert_same_decode(bytes(raw))


@pytest.mark.parametrize("row", sorted(CORPUS))
def test_golden_frames_mutated_at_every_offset_decode_alike(row):
    raw = bytes.fromhex(GOLDEN[row])
    for at in range(len(raw)):
        for flip in (0x01, 0x20, 0x80, 0xFF):  # 0x20: ASCII case of a name
            mutated = bytearray(raw)
            mutated[at] ^= flip
            _assert_same_decode(bytes(mutated))


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=1, max_size=64))
def test_arbitrary_bytes_decode_alike(raw):
    _assert_same_decode(raw)


# -- (c) one flush, one pack per distinct chunk -------------------------------

N = 7


class RecordingTransport(Transport):
    def __init__(self, pid):
        self.pid = pid
        self.frames: List[Tuple[int, Any]] = []

    async def send(self, dest, payload):
        self.frames.append((dest, payload))

    async def recv(self):  # pragma: no cover - never pumped here
        await asyncio.Event().wait()


class WirelessTcp(tcp.TcpTransport):
    """A binary ``TcpTransport`` whose frames land in a list, not a socket."""

    def __init__(self):
        from repro.net.auth import KeyRing

        super().__init__(0, N, KeyRing(N, master_secret=b"parity"), wire="binary")
        self.wire_frames: List[Tuple[int, bytes]] = []

    async def _transmit(self, dest, body):
        self.wire_frames.append((dest, body))


def _broadcast(network: NodeNetwork, payload: Any) -> None:
    """What ``Process._apply`` does with a ``Broadcast`` effect."""
    for dest in range(N):
        network.send(0, dest, payload)


def _flush(transport: Transport, batching: str, enqueue) -> Node:
    async def scenario() -> Node:
        network = NodeNetwork(0, for_system(N, 2))
        node = Node(0, network, transport, target=object(), batching=batching)
        enqueue(network)
        await node._after_activation()
        return node

    return asyncio.run(scenario())


def _messages(payload: Any) -> Tuple[Any, ...]:
    return payload.messages if isinstance(payload, WireBatch) else (payload,)


def _per_link(frames: List[Tuple[int, Any]]) -> Dict[int, List[Any]]:
    links: Dict[int, List[Any]] = {}
    for dest, payload in frames:
        links.setdefault(dest, []).extend(_messages(payload))
    return links


def _routed(i: int) -> Tuple[str, RbcMessage]:
    return ("rbc", RbcMessage((f"bracha-{i}", 1, 1, 0), 0, Phase.ECHO, StepValue(i % 2)))


@pytest.fixture
def pack_calls(monkeypatch):
    calls: List[Any] = []
    real = binarycodec.pack

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(binarycodec, "pack", counting)
    return calls


def test_pure_broadcast_step_shares_one_batch_object():
    step = [_routed(i) for i in range(8)]
    transport = RecordingTransport(0)
    node = _flush(transport, "flush",
                  lambda net: [_broadcast(net, m) for m in step])
    assert [dest for dest, _ in transport.frames] == list(range(N))
    shared = transport.frames[0][1]
    assert shared == WireBatch(tuple(step))
    assert all(payload is shared for _dest, payload in transport.frames)
    assert (node.frames_sent, node.wire_messages_sent) == (N, N * 8)


def _check_frames(transport: WirelessTcp, expected: Dict[int, Any]) -> None:
    """Every remote frame is ``encode_binary_frame`` (one full codec pass
    per call) of the payload expected on that link — header, per-link
    MAC and body."""
    assert [dest for dest, _ in transport.wire_frames] == list(expected)
    for dest, frame in transport.wire_frames:
        assert frame == tcp.encode_binary_frame(transport._auth, dest, expected[dest])


def test_pure_broadcast_step_is_packed_exactly_once(pack_calls):
    step = [_routed(i) for i in range(8)]
    transport = WirelessTcp()
    _flush(transport, "flush", lambda net: [_broadcast(net, m) for m in step])
    assert len(pack_calls) == 1  # n - 1 remote frames and the self-delivery
    batch = WireBatch(tuple(step))
    _check_frames(transport, {dest: batch for dest in range(1, N)})
    macs = {frame[10:42] for _dest, frame in transport.wire_frames}
    assert len(macs) == N - 1  # the tag names the link: never shared
    sender, delivered = transport._inbox.get_nowait()
    assert (sender, delivered) == (0, batch)
    # Self-delivery is packed with the rest; its round trip is exact, so
    # it is the batch object itself, never decoded.
    assert delivered is pack_calls[0]


def test_unbatched_broadcast_is_packed_once_per_message(pack_calls):
    step = [_routed(i) for i in range(3)]
    transport = WirelessTcp()
    node = _flush(transport, "off", lambda net: [_broadcast(net, m) for m in step])
    assert [id(obj) for obj in pack_calls] == [id(m) for m in step]
    assert (node.frames_sent, node.wire_messages_sent) == (3 * N, 3 * N)
    assert [dest for dest, _ in transport.wire_frames] == 3 * list(range(1, N))
    for (dest, frame), message in zip(
        transport.wire_frames, [m for m in step for _ in range(1, N)]
    ):
        assert frame == tcp.encode_binary_frame(transport._auth, dest, message)


def test_a_send_among_broadcasts_is_not_shared(pack_calls):
    first, second, private = _routed(0), _routed(1), ("rbc", DecideMsg(1))

    def enqueue(net):
        _broadcast(net, first)
        net.send(0, 3, private)
        _broadcast(net, second)

    recording = RecordingTransport(0)
    node = _flush(recording, "flush", enqueue)
    frames = dict(recording.frames)
    assert frames[3] == WireBatch((first, private, second))
    others = [payload for dest, payload in recording.frames if dest != 3]
    assert all(payload is others[0] for payload in others)
    assert others[0] == WireBatch((first, second))
    assert (node.frames_sent, node.wire_messages_sent) == (N, 2 * N + 1)

    transport = WirelessTcp()
    _flush(transport, "flush", enqueue)
    # dests 0-2 share a pack, dest 3 has its own, dests 4-6 share again
    # (the transport remembers one body: the last one packed).
    packed = list(pack_calls)
    assert [type(obj) for obj in packed] == [WireBatch] * 3
    assert packed[0] is packed[2] and packed[1] == frames[3]
    _check_frames(transport, {dest: frames[dest] for dest in range(1, N)})


def test_chunks_past_the_flush_limit_share_only_identical_chunks():
    count = FLUSH_BATCH_LIMIT + 6
    step = [_routed(i) for i in range(count)]
    transport = RecordingTransport(0)
    node = _flush(transport, "flush",
                  lambda net: [_broadcast(net, m) for m in step])
    assert [dest for dest, _ in transport.frames] == [
        dest for dest in range(N) for _ in range(2)
    ]
    head, tail = transport.frames[0][1], transport.frames[1][1]
    assert head is not tail
    assert (len(head), len(tail)) == (FLUSH_BATCH_LIMIT, 6)
    for index, (_dest, payload) in enumerate(transport.frames):
        assert payload is (tail if index % 2 else head)
    assert all(link == step for link in _per_link(transport.frames).values())
    assert (node.frames_sent, node.wire_messages_sent) == (2 * N, N * count)


def test_a_link_with_an_extra_send_is_chunked_out_of_the_sharing():
    step = [_routed(i) for i in range(FLUSH_BATCH_LIMIT)]
    private = ("rbc", DecideMsg(0))

    def enqueue(net):
        net.send(0, 2, private)
        for message in step:
            _broadcast(net, message)

    transport = RecordingTransport(0)
    _flush(transport, "flush", enqueue)
    links = _per_link(transport.frames)
    assert links.pop(2) == [private] + step
    assert all(link == step for link in links.values())
    by_dest: Dict[int, List[Any]] = {}
    for dest, payload in transport.frames:
        by_dest.setdefault(dest, []).append(payload)
    shifted = by_dest.pop(2)
    assert [len(_messages(p)) for p in shifted] == [FLUSH_BATCH_LIMIT, 1]
    reference = by_dest.pop(0)
    for payloads in by_dest.values():
        assert all(a is b for a, b in zip(payloads, reference))
    assert not any(a is b for a in shifted for b in reference)


def test_equal_but_distinct_messages_are_never_shared(pack_calls):
    """An equivocator hands a *different object* to each destination; even
    when two of them compare equal, each link gets its own codec pass."""
    faces = {dest: ("rbc", RbcMessage(("bracha-0", 1, 1, 0), 0, Phase.INIT,
                                      StepValue(dest % 2)))
             for dest in range(N)}
    extra = {dest: ("rbc", DecideMsg(dest % 2)) for dest in range(N)}
    assert faces[1] == faces[3] and faces[1] is not faces[3]

    def enqueue(net):
        for dest in range(N):
            net.send(0, dest, faces[dest])
            net.send(0, dest, extra[dest])

    recording = RecordingTransport(0)
    _flush(recording, "flush", enqueue)
    payloads = [payload for _dest, payload in recording.frames]
    assert len({id(p) for p in payloads}) == N

    transport = WirelessTcp()
    _flush(transport, "flush", enqueue)
    assert len(pack_calls) == N
    _check_frames(transport, {
        dest: WireBatch((faces[dest], extra[dest])) for dest in range(1, N)
    })
    bodies = {dest: frame[42:] for dest, frame in transport.wire_frames}
    assert bodies[1] == bodies[3] and bodies[1] != bodies[2]


def test_observed_sends_carry_their_own_stamp_and_do_not_share():
    from repro.obs import Observer
    from repro.obs.sinks import RingSink

    step = [_routed(i) for i in range(2)]
    transport = RecordingTransport(0)

    async def scenario():
        network = NodeNetwork(0, for_system(N, 2))
        network.observer = Observer(RingSink())
        node = Node(0, network, transport, target=object(), batching="flush")
        for message in step:
            _broadcast(network, message)
        await node._after_activation()

    asyncio.run(scenario())
    payloads = [payload for _dest, payload in transport.frames]
    assert len({id(p) for p in payloads}) == N
    mids = [m.mid for p in payloads for m in p.messages]
    assert len(set(mids)) == 2 * N


# -- (d) equivocation over the shared-body path -------------------------------


def test_two_faced_node_still_shows_each_peer_its_own_face(monkeypatch):
    received: Dict[int, List[Any]] = {}
    real_push = tcp.TcpTransport._push

    def spying_push(self, sender, payload):
        if sender == 6:
            received.setdefault(self.pid, []).extend(_messages(payload))
        real_push(self, sender, payload)

    monkeypatch.setattr(tcp.TcpTransport, "_push", spying_push)
    scenario = get_scenario("two-faced-equivocator").replace(
        fabric="tcp", codec="binary", batching="flush", timeout=60.0,
    )
    result = run(scenario)
    assert len(result.decided_values) == 1

    def opening_bits(pid: int) -> set:
        return {
            message.value.bit
            for _module, message in received[pid]
            if isinstance(message, RbcMessage) and message.phase is Phase.INIT
            and message.originator == 6 and message.instance[1:3] == (1, 1)
        }

    # Face A (proposing 0) serves peers 0-2, face B (proposing 1) the rest.
    assert [opening_bits(pid) for pid in range(6)] == [{0}] * 3 + [{1}] * 3


if __name__ == "__main__":
    print("GOLDEN: Dict[str, str] = {")
    for _row in CORPUS:
        _hex = binarycodec.dumps(CORPUS[_row]).hex()
        _lines = [_hex[i:i + 64] for i in range(0, len(_hex), 64)] or [""]
        print(f"    {_row!r}: (")
        for _line in _lines:
            print(f'        "{_line}"')
        print("    ),")
    print("}")
