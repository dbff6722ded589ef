"""The encoder's exact verdict: when it vouches, the decode is the payload.

:func:`repro.runtime.binarycodec.pack` returns ``(body, exact)`` from one
walk, and a transport delivers an exact payload it sends itself without
decoding it.  That is only sound if the verdict never over-claims, so:

* **Property** — over payloads built from registered messages, enums,
  tuples, lists, dicts, bytes, bytearrays, floats (NaN included), big
  ints and ``int``/``str`` subclasses: the verdict is exactly what an
  independent walk of the tree says, and whenever it is exact
  ``loads(body)`` equals the payload with the identical type at every
  node, and the payload hashes (a memo may retain it).
* **Bytes** — ``pack`` writes what ``dumps`` writes.
* **Registration** — a non-frozen dataclass is refused by name; one
  written into the registry by hand is still encoded, never as exact.
"""

import dataclasses
import math
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import binarycodec, codec
from repro.runtime.codec import CodecError, register_message

from .test_wire_parity import CORPUS, _LEAVES, _containers


class _Rank(int):
    """Encodable, but it decodes as a plain ``int``."""


class _Label(str):
    """Refused by the encoder: only exact ``str`` is a wire string."""


_EXACT_LEAVES = (type(None), bool, int, str, bytes)


def _vouched(value: Any) -> bool:
    """Whether a round trip of ``value`` is exact, by a walk of its own."""
    cls = type(value)
    if cls in _EXACT_LEAVES:
        return True
    if cls is float:
        return not math.isnan(value)
    if cls is tuple:
        return all(map(_vouched, value))
    if cls in codec._ENUMS.values():
        return True
    if cls in codec._MESSAGES.values() and cls.__dataclass_params__.frozen:
        return all(_vouched(getattr(value, f.name))
                   for f in dataclasses.fields(cls))
    return False  # list, dict, bytearray, a subclass, a non-frozen message


def _same_tree(decoded: Any, value: Any) -> None:
    assert type(decoded) is type(value), (decoded, value)
    if isinstance(value, (tuple, list)):
        assert len(decoded) == len(value)
        for a, b in zip(decoded, value):
            _same_tree(a, b)
    elif isinstance(value, dict):
        assert sorted(decoded) == sorted(value)
        for key in value:
            _same_tree(decoded[key], value[key])
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _same_tree(getattr(decoded, field.name), getattr(value, field.name))
    elif isinstance(value, float):
        assert math.copysign(1.0, decoded) == math.copysign(1.0, value)
        assert decoded == value or math.isnan(value)
    else:
        assert decoded == value


_PAYLOADS = st.recursive(
    st.one_of(
        _LEAVES,
        st.floats(),  # NaN and the infinities too
        st.integers(-(2**200), 2**200),
        st.integers(-(2**70), 2**70).map(_Rank),
        st.text(max_size=6).map(_Label),
        st.binary(max_size=8).map(bytearray),
    ),
    _containers,
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
def test_an_exact_verdict_is_a_faithful_decode(value):
    try:
        body, exact = binarycodec.pack(value)
    except CodecError:
        with pytest.raises(CodecError):
            binarycodec.dumps(value)
        return
    assert body == binarycodec.dumps(value)
    assert exact == _vouched(value)
    decoded = binarycodec.loads(body)
    if exact:
        _same_tree(decoded, value)
        assert decoded == value
        hash(value)


@pytest.mark.parametrize("value, exact", [
    (("rbc", 1), True), (("rbc", [1]), False), ({"k": 1}, False),
    (bytearray(b"ab"), False), (b"ab", True), (_Rank(3), False),
    (2**80, True), (-0.0, True), (float("inf"), True), (float("nan"), False),
    ((None, True, "x"), True),
])
def test_the_verdict_on_each_kind_of_leaf_and_container(value, exact):
    assert binarycodec.pack(value)[1] is exact


@pytest.mark.parametrize("row", sorted(CORPUS))
def test_pack_writes_the_golden_bytes_and_vouches_for_every_wire_type(row):
    body, exact = binarycodec.pack(CORPUS[row])
    assert body == binarycodec.dumps(CORPUS[row])
    assert exact == _vouched(CORPUS[row])


def test_register_message_refuses_a_dataclass_that_is_not_frozen():
    @dataclasses.dataclass
    class MutableProbe:
        value: int

    with pytest.raises(CodecError, match="MutableProbe"):
        register_message(MutableProbe)
    assert "MutableProbe" not in codec._MESSAGES


def test_a_non_frozen_class_written_into_the_registry_is_refused_by_name(
        monkeypatch):
    @dataclasses.dataclass
    class LooseProbe:
        value: int

    @dataclasses.dataclass(frozen=True)
    class FrozenProbe:
        value: int

    monkeypatch.setattr(codec, "_MESSAGES", dict(codec._MESSAGES))
    register_message(FrozenProbe)
    frozen = FrozenProbe(7)
    assert binarycodec.pack(("m", frozen))[1]
    assert not binarycodec.pack(FrozenProbe([7]))[1]  # a mutable field
    codec._MESSAGES["LooseProbe"] = LooseProbe
    for encode in (lambda: binarycodec.pack(("m", frozen)),
                   lambda: binarycodec.pack(("m", LooseProbe(7))),
                   binarycodec.registry_tables):
        with pytest.raises(CodecError, match="LooseProbe"):
            encode()
