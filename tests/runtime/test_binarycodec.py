"""Binary value format: round-trips, integer edges, malformed frames.

The one value format of the wire and the WAL: it round-trips every
registered wire type bit-exactly, gives every class in the
:mod:`repro.runtime.codec` registry an id, runs each message's own
validation on decode, and — because its input arrives off a socket —
rejects arbitrary garbage with
:class:`~repro.runtime.codec.CodecError`, never a crash.
"""

import random

import pytest

from repro.core.broadcast import RbcMessage
from repro.crypto.shamir import Share
from repro.runtime import binarycodec, codec
from repro.runtime.codec import CodecError, Stamped, WireBatch
from repro.types import Phase, Step, StepValue

from .test_wire_parity import CORPUS

SAMPLES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    63,
    64,
    -64,
    -65,
    2**31,
    -(2**31) - 1,
    2**63 - 1,  # int64 max: still a varint
    -(2**63),  # int64 min: still a varint
    2**63,  # first bigint
    -(2**63) - 1,
    2**80,
    -(2**80),
    3.14159,
    -0.0,
    float("inf"),
    "",
    "hello",
    "payload-é中文",  # non-ASCII survives UTF-8
    b"",
    b"\x00\xff" * 10,
    (),
    (1, 2, 3),
    ("mod", StepValue(1, decide=True)),
    [1, "two", (3,)],
    {},
    {"b": 1, "a": [2]},
    Phase.ECHO,
    Step.TWO,
    Share(2, 7),
    RbcMessage("rbc", 0, Phase.INIT, 1),
    Stamped("3:17", ("mod", StepValue(0))),
    WireBatch((("m", 1), ("m", 2))),
]


@pytest.mark.parametrize("obj", SAMPLES, ids=[repr(s)[:40] for s in SAMPLES])
def test_round_trip(obj):
    assert binarycodec.loads(binarycodec.dumps(obj)) == obj


def test_round_trip_preserves_types():
    # bool is not int, tuple is not list, enum identity survives.
    assert binarycodec.loads(binarycodec.dumps(True)) is True
    assert binarycodec.loads(binarycodec.dumps(1)) == 1
    assert not isinstance(binarycodec.loads(binarycodec.dumps(1)), bool)
    assert isinstance(binarycodec.loads(binarycodec.dumps((1,))), tuple)
    assert isinstance(binarycodec.loads(binarycodec.dumps([1])), list)
    assert binarycodec.loads(binarycodec.dumps(Phase.READY)) is Phase.READY


def test_decodes_from_memoryview():
    frame = binarycodec.dumps(("mod", RbcMessage("r", 1, Phase.ECHO, 0)))
    assert binarycodec.loads(memoryview(frame)) == (
        "mod", RbcMessage("r", 1, Phase.ECHO, 0)
    )


def test_varint_boundary_widths():
    # One byte encodes zigzag values up to 127; the int64 extremes and
    # the first bigints all survive the representation switch.
    for value in (0, -64, 63, 64, 127, 128, 2**62, -(2**62),
                  2**63 - 1, -(2**63), 2**63, 2**64, -(2**100)):
        assert binarycodec.loads(binarycodec.dumps(value)) == value


def test_unregistered_types_are_encode_errors():
    class NotWire:
        pass

    with pytest.raises(CodecError):
        binarycodec.dumps(NotWire())
    with pytest.raises(CodecError):
        binarycodec.dumps({1: "non-string dict key"})
    with pytest.raises(CodecError):
        binarycodec.dumps(float)  # a type object is not a value


def test_empty_and_trailing_frames_are_rejected():
    with pytest.raises(CodecError):
        binarycodec.loads(b"")
    with pytest.raises(CodecError, match="trailing"):
        binarycodec.loads(binarycodec.dumps(1) + b"\x00")


def test_truncated_frames_are_rejected():
    frame = binarycodec.dumps(("mod", RbcMessage("r", 1, Phase.ECHO, 0)))
    for cut in range(1, len(frame)):
        with pytest.raises(CodecError):
            binarycodec.loads(frame[:cut])


def test_over_length_varint_is_rejected():
    # Eleven continuation bytes: a length prefix that never terminates
    # within the 10-byte cap must fail loudly, not loop or overflow.
    with pytest.raises(CodecError, match="varint"):
        binarycodec.loads(bytes([binarycodec._T_STR]) + b"\xff" * 11)


def test_container_count_cannot_exceed_frame_size():
    # A tuple claiming 2**20 elements inside a tiny frame must be
    # rejected by the count-vs-remaining check, not by exhausting the
    # allocator one element at a time.
    bomb = bytearray([binarycodec._T_TUPLE])
    binarycodec._pack_varint(bomb, 1 << 20)
    bomb += b"\x00"
    with pytest.raises(CodecError, match="count exceeds"):
        binarycodec.loads(bytes(bomb))


def _nested_tuples(levels):
    """``levels`` tuples inside one another around a ``None`` — built and
    (with the trashcan) torn down without recursion, unlike its codec."""
    value = None
    for _ in range(levels):
        value = (value,)
    return value


def _nested_frame(levels):
    return bytes([binarycodec._T_TUPLE, 1]) * levels + bytes([binarycodec._T_NONE])


@pytest.mark.parametrize("levels", [1, binarycodec.MAX_NESTING])
def test_nesting_up_to_the_cap_round_trips(levels):
    frame = binarycodec.dumps(_nested_tuples(levels))
    assert frame == _nested_frame(levels)
    assert binarycodec.loads(frame) == _nested_tuples(levels)


@pytest.mark.parametrize(
    "levels", [binarycodec.MAX_NESTING + 1, 5000, 200_000]
)
def test_nesting_past_the_cap_is_a_named_error_both_ways(levels):
    # 5000 levels overflowed the interpreter stack (RecursionError) before
    # the cap; 200 000 is a 400 kB frame, well under the transports' cap.
    with pytest.raises(CodecError, match="nesting deeper than 64"):
        binarycodec.loads(_nested_frame(levels))
    with pytest.raises(CodecError, match="nesting deeper than 64"):
        binarycodec.dumps(_nested_tuples(levels))


def test_the_nesting_cap_counts_every_container_kind():
    cap = binarycodec.MAX_NESTING
    # A message, a list and a dict each take one level, like a tuple.
    for wrap in (lambda v: Stamped("1:1", v), lambda v: [v], lambda v: {"k": v}):
        fits = wrap(_nested_tuples(cap - 1))
        assert binarycodec.loads(binarycodec.dumps(fits)) == fits
        with pytest.raises(CodecError, match="nesting deeper"):
            binarycodec.dumps(wrap(_nested_tuples(cap)))
        body = binarycodec.dumps(wrap(None))[:-1]  # the wrapper, value cut off
        with pytest.raises(CodecError, match="nesting deeper"):
            binarycodec.loads(body + _nested_frame(cap))
    # Leaves do not count: the cap bounds containers, not values.
    deepest = _nested_tuples(cap - 1)
    assert binarycodec.loads(binarycodec.dumps((deepest, 7, "x"))) == (deepest, 7, "x")


def test_local_fabric_round_trip_reports_deep_nesting_by_name():
    # LocalHub.dispatch runs dumps/loads on every payload and catches
    # nothing: the error a caller sees must be the codec's own.
    import asyncio

    from repro.runtime.transport import LocalHub

    async def scenario():
        hub = LocalHub(2)
        with pytest.raises(CodecError, match="nesting deeper"):
            await hub.endpoint(0).send(1, _nested_tuples(5000))

    asyncio.run(scenario())


def test_loads_decodes_in_place_from_an_offset():
    body = binarycodec.dumps(("mod", RbcMessage("r", 1, Phase.ECHO, 0)))
    frame = b"\xb1\x01" + b"\x00" * 40 + body
    assert binarycodec.loads(frame, 42) == ("mod", RbcMessage("r", 1, Phase.ECHO, 0))
    with pytest.raises(CodecError, match="trailing"):
        binarycodec.loads(frame + b"\x00", 42)
    with pytest.raises(CodecError, match="truncated"):
        binarycodec.loads(frame, len(frame))


def test_unknown_tags_and_ids_are_rejected():
    with pytest.raises(CodecError):
        binarycodec.loads(b"\xfe")  # unassigned type tag
    with pytest.raises(CodecError, match="enum"):
        binarycodec.loads(bytes([binarycodec._T_ENUM]) + b"\x7f\x01A")
    with pytest.raises(CodecError):
        binarycodec.loads(bytes([binarycodec._T_MSG]) + b"\x7f")


def test_random_garbage_never_crashes(subtests=None):
    rng = random.Random(0xC0DEC)
    survived = 0
    for _ in range(2000):
        blob = rng.randbytes(rng.randrange(1, 80))
        try:
            binarycodec.loads(blob)
            survived += 1
        except CodecError:
            pass
    # The format is dense enough that almost nothing random parses; the
    # hard guarantee is simply that nothing raised anything *but*
    # CodecError above.
    assert survived <= 20


def test_every_registered_message_has_a_binary_id():
    for name, cls in sorted(codec._MESSAGES.items()):
        fields = binarycodec.registry_tables()[0].get(cls)
        assert fields is not None, f"{name} missing from binary registry"


def test_constructor_validation_runs_on_decode():
    # A StepValue body claiming bit=7 (zigzag varint 14) must be
    # rejected by __post_init__, by name.
    prefix = binarycodec.registry_tables()[0][StepValue][0]

    def body(zigzag_bit):
        return prefix + bytes([binarycodec._T_INT, zigzag_bit, binarycodec._T_FALSE])

    assert binarycodec.loads(body(2)) == StepValue(1)
    with pytest.raises(CodecError, match="rejected StepValue"):
        binarycodec.loads(body(14))


def test_signed_share_round_trips_verifiably():
    from repro.crypto.dealer import CoinDealer, SignedShare

    dealer = CoinDealer(4, 1, seed=3)
    decoded = binarycodec.loads(binarycodec.dumps(dealer.share_for(1, 7)))
    assert isinstance(decoded, SignedShare)
    assert isinstance(decoded.tag, bytes)
    assert dealer.verify(decoded), "the dealer MAC must survive serialization"


def _assert_same_types(decoded, original):
    """Equality alone is vacuous for IntEnum vs int and tuple-like rows:
    demand every nested value comes back as its own type."""
    assert type(decoded) is type(original), (decoded, original)
    if isinstance(original, (tuple, list)):
        for got, want in zip(decoded, original):
            _assert_same_types(got, want)
    elif isinstance(original, dict):
        for key in original:
            _assert_same_types(decoded[key], original[key])
    elif type(original) in codec._MESSAGES.values():
        for name in binarycodec.registry_tables()[0][type(original)][1]:
            _assert_same_types(getattr(decoded, name), getattr(original, name))


@pytest.mark.parametrize("row", sorted(CORPUS))
def test_every_registered_type_round_trips_as_its_own_type(row):
    # test_corpus_covers_every_registered_wire_type (test_wire_parity.py)
    # is what makes "every" true.
    decoded = binarycodec.loads(binarycodec.dumps(CORPUS[row]))
    assert decoded == CORPUS[row]
    _assert_same_types(decoded, CORPUS[row])


def test_step_enum_round_trips_as_members():
    decoded = binarycodec.loads(binarycodec.dumps((Step.THREE, Step.ONE)))
    assert decoded == (Step.THREE, Step.ONE)
    # IntEnum == int would make the equality above vacuous; demand the
    # actual member type survives.
    assert all(isinstance(step, Step) for step in decoded)
