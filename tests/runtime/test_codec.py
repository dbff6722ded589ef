"""Tagged-JSON value format tests: the WAL's on-disk encoding.

No wire test exercises :mod:`repro.runtime.codec` any more (the wire is
binary), so this file keeps it honest on its own: one value of every
registered message and enum type — the ``CORPUS`` the binary goldens
pin, not a second list — survives ``encode`` → JSON text → ``decode``,
and hostile structures are rejected rather than half-decoded.
"""

import json

import pytest

from repro.core.broadcast import RbcMessage
from repro.crypto.dealer import CoinDealer, SignedShare
from repro.runtime.codec import CodecError, decode, encode
from repro.types import Phase, Step, StepValue

from .test_wire_parity import CORPUS


def _via_json_text(payload):
    """What a WAL record does to a value: encode, one line of JSON, back."""
    return decode(json.loads(json.dumps(encode(payload), sort_keys=True)))


@pytest.mark.parametrize("row", sorted(CORPUS))
def test_every_registered_type_round_trips(row):
    # test_corpus_covers_every_registered_wire_type (test_wire_parity.py)
    # is what makes "every" true.
    decoded = _via_json_text(CORPUS[row])
    assert decoded == CORPUS[row]
    assert type(decoded) is type(CORPUS[row])


def test_roundtrip_preserves_types():
    msg = RbcMessage(("bracha", 3, 2, 1), 1, Phase.ECHO, StepValue(1))
    decoded_module, decoded = _via_json_text(("rbc", msg))
    assert decoded_module == "rbc"
    assert isinstance(decoded, RbcMessage)
    assert isinstance(decoded.instance, tuple), "instances must stay hashable"
    assert isinstance(decoded.value, StepValue)
    assert decoded.phase is Phase.ECHO


def test_signed_share_roundtrips_verifiably():
    dealer = CoinDealer(4, 1, seed=3)
    share = dealer.share_for(1, 7)
    decoded = _via_json_text(share)
    assert isinstance(decoded, SignedShare)
    assert isinstance(decoded.tag, bytes)
    assert dealer.verify(decoded), "the dealer MAC must survive serialization"


def test_step_enum_roundtrip():
    decoded = _via_json_text((Step.THREE, Step.ONE))
    assert decoded == (Step.THREE, Step.ONE)
    # IntEnum == int would make the equality above vacuous; demand the
    # actual member type survives.
    assert all(isinstance(step, Step) for step in decoded)


def test_constructor_validation_runs_on_decode():
    # A StepValue record claiming bit=7 must be rejected by __post_init__.
    frame = encode(StepValue(1))
    frame["fields"]["bit"] = 7
    with pytest.raises(CodecError):
        decode(frame)


@pytest.mark.parametrize(
    "garbage",
    [
        '{"__msg__": "NoSuchType", "fields": {}}',
        '{"__msg__": "DecideMsg", "fields": {"wrong": 1}}',
        '{"__msg__": "DecideMsg", "fields": {"bit": 1}, "extra": 2}',
        '{"__enum__": "Phase", "value": "NOPE"}',
        '{"__bytes__": "zz"}',
        '{"__tuple__": 3}',
    ],
)
def test_garbage_structures_raise(garbage):
    with pytest.raises(CodecError):
        decode(json.loads(garbage))


def test_unregistered_types_cannot_be_encoded():
    class Sneaky:
        pass

    with pytest.raises(CodecError):
        encode(Sneaky())
    with pytest.raises(CodecError):
        encode({1: "non-string key"})
