"""The binary value format for protocol messages, on the wire and on disk.

The simulator hands Python objects between processes by reference; a
real transport needs bytes.  This is the one encoding the runtime
fabrics put on a link and the write-ahead log
(:mod:`repro.recovery.wal`) puts in a record body — a msgpack-style
value encoding over the message/enum registries of
:mod:`repro.runtime.codec`:

* one type-tag byte per value;
* ints as zigzag LEB128 varints (seqs, pids, rounds are tiny on the
  wire), with an arbitrary-precision escape for field elements beyond
  64 bits;
* strings and bytes length-prefixed — bytes travel raw, not hex;
* registered dataclasses as a varint *registry id* plus their field
  values in declaration order — field names never touch the wire;
* registered enums as a registry id plus the member name.

Registry ids are the rank of the class name in the sorted registry, so
both peers derive the same table from the same registrations without a
handshake; the transport's wire-format version byte
(:data:`repro.runtime.tcp.WIRE_VERSION`) guards against skew, and a log
records :func:`registry_digest` so that it is read back only under the
registry it was written with.

Decoding never trusts the input: every length is checked against the
remaining buffer, varints are capped at 10 bytes, containers nest at
most :data:`MAX_NESTING` deep, unknown tags and registry ids raise, and
message constructors re-run their validation — all failure modes
surface as :class:`~repro.runtime.codec.CodecError`, which the
transport counts and drops.  The nesting cap holds on the way out
too: ``dumps`` of a deeper value is a
:class:`~repro.runtime.codec.CodecError`, never a ``RecursionError``.
Decoding indexes the frame's ``bytes`` in place from an offset
(``loads(frame, start)``) and only materializes the leaf values, so the
TCP receive path never copies or slices out the frame body.

:func:`pack` is the encoder with its verdict: ``(body, exact)``, where
``exact`` says the decode of ``body`` would be an equal, identically
typed, immutable copy of the payload.  ``dumps`` is its body alone.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import struct
from typing import Any, Dict, List, Optional, Tuple, Type

from . import codec
from .codec import CodecError

__all__ = [
    "MAX_NESTING", "MEMO_BYTES", "BodyMemo", "dumps", "loads", "pack",
    "registry_digest", "registry_tables",
]

# Type tags (one byte on the wire).
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03      # zigzag LEB128 varint
_T_BIGINT = 0x04   # sign byte + varint length + big-endian magnitude
_T_FLOAT = 0x05    # IEEE-754 double, big-endian
_T_STR = 0x06      # varint length + UTF-8
_T_BYTES = 0x07    # varint length + raw bytes
_T_TUPLE = 0x08    # varint count + items
_T_LIST = 0x09     # varint count + items
_T_DICT = 0x0A     # varint count + (untagged key, value) pairs, sorted keys
_T_ENUM = 0x0B     # varint enum id + untagged member-name string
_T_MSG = 0x0C      # varint message id + field values in declaration order

_DOUBLE = struct.Struct(">d")

#: Largest zigzag-encodable magnitude; wider ints take the bigint form.
_INT64_MAX = (1 << 63) - 1
_INT64_MIN = -(1 << 63)

#: LEB128 continuation cap: 10 bytes cover 70 bits, enough for any
#: zigzagged 64-bit value; an 11th continuation byte is an attack.
_VARINT_MAX_BYTES = 10

#: Containers (tuples, lists, dicts, messages) may nest this deep, in
#: both directions.  Real payloads stay under ten levels (batch, routed
#: tuple, message, instance id, value).  The cap keeps the encoder's
#: recursive walk far below the interpreter's stack limit; the decoder
#: is a loop and holds its container stack to the same depth, so a frame
#: of 200 000 nested tuples is a :class:`CodecError`, never a
#: ``RecursionError``, and both directions accept the same values.
MAX_NESTING = 64

_TOO_DEEP = f"nesting deeper than {MAX_NESTING}"


def _pack_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


# -- registry id tables ------------------------------------------------------
#
# Both sides assign ids by sorted class name over the shared codec
# registries.  The tables are cached and rebuilt whenever a registration
# is added (protocols may register message types after import).  They
# hold everything that depends only on the registries, precomputed: the
# encoder appends a ready-made ``tag + id`` prefix per message class and
# a ready-made blob per enum member; the decoder looks an enum member up
# by the raw name bytes, so neither side re-derives per value what is
# fixed per type.

#: class -> (``_T_MSG`` + varint id, field names) for a registered
#: message, or ``({member name: _T_ENUM + id + name blob}, None)`` for a
#: registered enum — one lookup dispatches both.
_PackTable = Dict[type, Tuple[Any, Optional[Tuple[str, ...]]]]
#: message id -> (class, field names).
_MsgTypes = List[Tuple[Type[Any], Tuple[str, ...]]]
#: enum id -> (class, {member name as UTF-8 bytes: member}).
_EnumMembers = List[Tuple[Type[enum.Enum], Dict[bytes, enum.Enum]]]

_tables_key: Tuple[int, int] = (-1, -1)
_pack_table: _PackTable = {}
_msg_types: _MsgTypes = []
_enum_members: _EnumMembers = []


def registry_tables() -> Tuple[_PackTable, _MsgTypes, _EnumMembers]:
    """The (pack table, message types by id, enum member tables by id)
    triple, current as of the codec registries right now.  A message
    class that is not frozen is refused by name: only a write straight
    into the registry, past
    :func:`~repro.runtime.codec.register_message`, can put one there."""
    global _tables_key, _pack_table, _msg_types, _enum_members
    key = (len(codec._MESSAGES), len(codec._ENUMS))
    if key != _tables_key:
        pack_table: _PackTable = {}
        msg_types: _MsgTypes = []
        for index, name in enumerate(sorted(codec._MESSAGES)):
            cls = codec._MESSAGES[name]
            codec._require_frozen(cls)
            fields = tuple(f.name for f in dataclasses.fields(cls))
            msg_types.append((cls, fields))
            prefix = bytearray([_T_MSG])
            _pack_varint(prefix, index)
            pack_table[cls] = (bytes(prefix), fields)
        enum_members: _EnumMembers = []
        for index, name in enumerate(sorted(codec._ENUMS)):
            enum_cls = codec._ENUMS[name]
            # __members__ includes aliases, exactly what ``cls[name]``
            # accepts; only canonical names are ever encoded.
            enum_members.append((enum_cls, {
                member_name.encode("utf-8"): member
                for member_name, member in enum_cls.__members__.items()
            }))
            blobs = {}
            for member in enum_cls:
                blob = bytearray([_T_ENUM])
                _pack_varint(blob, index)
                raw = member.name.encode("utf-8")
                _pack_varint(blob, len(raw))
                blobs[member.name] = bytes(blob + raw)
            pack_table[enum_cls] = (blobs, None)
        _pack_table, _msg_types, _enum_members = pack_table, msg_types, enum_members
        _tables_key = key
    return _pack_table, _msg_types, _enum_members


def registry_digest() -> str:
    """SHA-256 (hex) over what the registry ids mean: every message's
    name and field names, then every enum's name and member names, in
    id order.  Two processes with the same digest decode every body
    alike; a registration that shifts an id changes it."""
    _, msg_types, enum_members = registry_tables()
    lines = [f"{cls.__name__}({','.join(fields)})" for cls, fields in msg_types]
    lines += [f"{cls.__name__}[{','.join(name.decode() for name in members)}]"
              for cls, members in enum_members]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# -- encoding ----------------------------------------------------------------


def _pack(out: bytearray, obj: Any, depth: int, table: _PackTable,
          inexact: List[type]) -> None:
    # ``depth`` counts the containers (tuple, list, dict, message)
    # enclosing ``obj``.  Dispatch is on the exact class, most frequent
    # first, so an IntEnum member or a bool never takes the int branch
    # and a dataclass never the dict branch; subclasses of the scalar
    # types reach the slow path at the bottom.  A branch whose value
    # decodes to another type or to a mutable object appends its class
    # to ``inexact`` (see :func:`pack`); the hot branches never touch it.
    cls = obj.__class__
    if cls is int:
        if 0 <= obj <= 0x3F:  # one-byte zigzag varint
            out.append(_T_INT)
            out.append(obj << 1)
        elif _INT64_MIN <= obj <= _INT64_MAX:
            out.append(_T_INT)
            _pack_varint(out, (obj << 1) ^ (obj >> 63) if obj < 0 else obj << 1)
        else:
            magnitude = obj if obj >= 0 else -obj
            raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
            out.append(_T_BIGINT)
            out.append(1 if obj < 0 else 0)
            _pack_varint(out, len(raw))
            out += raw
        return
    if cls is str:
        raw = obj.encode("utf-8")
        out.append(_T_STR)
        if len(raw) <= 0x7F:
            out.append(len(raw))
        else:
            _pack_varint(out, len(raw))
        out += raw
        return
    entry = table.get(cls)
    if entry is not None:
        prefix, fields = entry
        if fields is None:  # a registered enum: one precomputed blob
            out += prefix[obj._name_]
            return
        if depth >= MAX_NESTING:
            raise CodecError(_TOO_DEEP)
        out += prefix
        depth += 1
        for name in fields:
            _pack(out, getattr(obj, name), depth, table, inexact)
        return
    if cls is tuple or cls is list:
        if depth >= MAX_NESTING:
            raise CodecError(_TOO_DEEP)
        if cls is tuple:
            out.append(_T_TUPLE)
        else:
            out.append(_T_LIST)
            inexact.append(cls)
        if len(obj) <= 0x7F:
            out.append(len(obj))
        else:
            _pack_varint(out, len(obj))
        depth += 1
        for item in obj:
            _pack(out, item, depth, table, inexact)
        return
    if obj is None:
        out.append(_T_NONE)
        return
    if obj is True:
        out.append(_T_TRUE)
        return
    if obj is False:
        out.append(_T_FALSE)
        return
    if cls is float:
        # A double round-trips bit for bit, sign of zero included, so a
        # float is exact — except NaN: it is unequal to itself, so no
        # decode of it can be vouched for as equal to the original.
        if obj != obj:
            inexact.append(cls)
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(obj)
        return
    if cls is bytes or cls is bytearray:
        if cls is bytearray:
            inexact.append(cls)  # mutable, and decodes as bytes
        out.append(_T_BYTES)
        _pack_varint(out, len(obj))
        out += obj
        return
    if cls is dict:
        if any(not isinstance(k, str) for k in obj):
            raise CodecError("only string-keyed dicts are encodable")
        if depth >= MAX_NESTING:
            raise CodecError(_TOO_DEEP)
        inexact.append(cls)
        out.append(_T_DICT)
        _pack_varint(out, len(obj))
        depth += 1
        for key in sorted(obj):
            raw = key.encode("utf-8")
            _pack_varint(out, len(raw))
            out += raw
            _pack(out, obj[key], depth, table, inexact)
        return
    # Slow path: subclasses of int, which decode to another type, plus
    # the loud failures.
    if isinstance(obj, enum.Enum):
        raise CodecError(
            f"enum {cls.__name__!r} is not registered for the wire"
        )
    if isinstance(obj, int):
        inexact.append(cls)
        _pack(out, int(obj), depth, table, inexact)
        return
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        raise CodecError(
            f"message type {cls.__name__!r} is not registered for the wire"
        )
    raise CodecError(f"cannot encode {cls.__name__}: {obj!r}")


def pack(obj: Any) -> Tuple[bytes, bool]:
    """Encode a payload: ``(body, exact)``.

    ``exact`` is the encoder's verdict on the round trip, given in the
    same walk that writes the bytes: ``loads(body)`` equals ``obj`` with
    the identical type at every node of the tree, and nothing in ``obj``
    can be mutated — no list, dict or bytearray, no ``int`` subclass, no
    NaN.  An exact payload may stand in for its own decode (see
    :meth:`~repro.runtime.transport.InboxTransport._loopback`).
    """
    out = bytearray()
    inexact: List[type] = []
    _pack(out, obj, 0, registry_tables()[0], inexact)
    return bytes(out), not inexact


def dumps(obj: Any) -> bytes:
    """Encode a payload to compact binary bytes."""
    return pack(obj)[0]


# -- decoding ----------------------------------------------------------------


def _unpack_varint(buf: bytes, pos: int, end: int) -> Tuple[int, int]:
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


def _dict_key(buf: bytes, pos: int, end: int) -> Tuple[str, int]:
    """One dict key: an untagged length-prefixed UTF-8 string."""
    length, pos = _unpack_varint(buf, pos, end)
    stop = pos + length
    if stop > end:
        raise CodecError("truncated dict key")
    try:
        return buf[pos:stop].decode("utf-8"), stop
    except UnicodeDecodeError as exc:
        raise CodecError(f"bad UTF-8 in dict key: {exc}") from exc


def _unpack(buf: bytes, pos: int, end: int,
            msg_types: _MsgTypes, enum_members: _EnumMembers) -> Tuple[Any, int]:
    """Decode the one value starting at ``buf[pos]``; ``(value, next pos)``.

    A loop over the values of the frame in wire order, with an explicit
    stack of the containers still open — no Python call per value and no
    recursion.  ``items``/``remaining``/``build`` describe the innermost
    open container: the values read so far, how many are still due, and
    what they become (``tuple``, ``list``, ``dict`` — keys and values
    alternating in ``items`` — or a message class); the outermost
    "container" is the one-value result slot (``build is None``).

    ``buf`` is indexed in place (``bytes`` indexing is the cheapest byte
    read CPython has); only leaf values are sliced out.  The varint
    reads on the hot tags spell out the one-byte case — nearly every id,
    count and length on this wire — and call :func:`_unpack_varint` for
    the rest.
    """
    stack: List[Tuple[List[Any], int, Any]] = []
    items: List[Any] = []
    remaining = 1
    build: Any = None
    while True:
        while not remaining:
            # The innermost container is complete: build it and hand it
            # to the enclosing one.
            if build is None:
                return items[0], pos
            if build is tuple:
                value = tuple(items)
            elif build is list:
                value = items
            elif build is dict:
                value = dict(zip(items[::2], items[1::2]))
            else:
                try:
                    value = build(*items)
                except CodecError:
                    raise
                except Exception as exc:  # constructor validation rejected it
                    raise CodecError(
                        f"rejected {build.__name__} payload: {exc}"
                    ) from exc
            items, remaining, build = stack.pop()
            items.append(value)
            remaining -= 1
        if build is dict:
            key, pos = _dict_key(buf, pos, end)
            items.append(key)
        if pos >= end:
            raise CodecError("truncated frame: expected a value tag")
        tag = buf[pos]
        pos += 1
        if tag == _T_INT:
            if pos >= end:
                raise CodecError("truncated varint")
            raw = buf[pos]
            pos += 1
            if raw > 0x7F:
                raw, pos = _unpack_varint(buf, pos - 1, end)
            value = (raw >> 1) ^ -(raw & 1)
        elif tag == _T_STR:
            if pos >= end:
                raise CodecError("truncated varint")
            length = buf[pos]
            pos += 1
            if length > 0x7F:
                length, pos = _unpack_varint(buf, pos - 1, end)
            stop = pos + length
            if stop > end:
                raise CodecError("truncated string")
            try:
                value = buf[pos:stop].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CodecError(f"bad UTF-8 in string: {exc}") from exc
            pos = stop
        elif tag == _T_TUPLE or tag == _T_LIST:
            if pos >= end:
                raise CodecError("truncated varint")
            count = buf[pos]
            pos += 1
            if count > 0x7F:
                count, pos = _unpack_varint(buf, pos - 1, end)
            if count > end - pos:  # every item needs at least one byte
                raise CodecError("container count exceeds frame size")
            if len(stack) >= MAX_NESTING:
                raise CodecError(_TOO_DEEP)
            stack.append((items, remaining, build))
            items, remaining = [], count
            build = tuple if tag == _T_TUPLE else list
            continue
        elif tag == _T_MSG:
            if pos >= end:
                raise CodecError("truncated varint")
            msg_id = buf[pos]
            pos += 1
            if msg_id > 0x7F:
                msg_id, pos = _unpack_varint(buf, pos - 1, end)
            if msg_id >= len(msg_types):
                raise CodecError(f"unknown message id {msg_id}")
            if len(stack) >= MAX_NESTING:
                raise CodecError(_TOO_DEEP)
            stack.append((items, remaining, build))
            build, fields = msg_types[msg_id]
            items, remaining = [], len(fields)
            continue
        elif tag == _T_ENUM:
            if pos >= end:
                raise CodecError("truncated varint")
            enum_id = buf[pos]
            pos += 1
            if enum_id > 0x7F:
                enum_id, pos = _unpack_varint(buf, pos - 1, end)
            if enum_id >= len(enum_members):
                raise CodecError(f"unknown enum id {enum_id}")
            if pos >= end:
                raise CodecError("truncated varint")
            length = buf[pos]
            pos += 1
            if length > 0x7F:
                length, pos = _unpack_varint(buf, pos - 1, end)
            stop = pos + length
            if stop > end:
                raise CodecError("truncated enum member name")
            enum_cls, members = enum_members[enum_id]
            value = members.get(buf[pos:stop])
            if value is None:
                try:
                    name = buf[pos:stop].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CodecError(f"bad UTF-8 in enum member: {exc}") from exc
                raise CodecError(
                    f"unknown member {name!r} of enum {enum_cls.__name__}"
                )
            pos = stop
        elif tag == _T_NONE:
            value = None
        elif tag == _T_TRUE:
            value = True
        elif tag == _T_FALSE:
            value = False
        elif tag == _T_FLOAT:
            if pos + 8 > end:
                raise CodecError("truncated float")
            value = _DOUBLE.unpack_from(buf, pos)[0]
            pos += 8
        elif tag == _T_BYTES:
            length, pos = _unpack_varint(buf, pos, end)
            stop = pos + length
            if stop > end:
                raise CodecError("truncated bytes")
            value = buf[pos:stop]
            pos = stop
        elif tag == _T_DICT:
            count, pos = _unpack_varint(buf, pos, end)
            if count > end - pos:
                raise CodecError("container count exceeds frame size")
            if len(stack) >= MAX_NESTING:
                raise CodecError(_TOO_DEEP)
            stack.append((items, remaining, build))
            items, remaining, build = [], count, dict
            continue
        elif tag == _T_BIGINT:
            if pos >= end:
                raise CodecError("truncated bigint sign")
            sign = buf[pos]
            if sign > 1:
                raise CodecError(f"bad bigint sign byte {sign}")
            length, pos = _unpack_varint(buf, pos + 1, end)
            stop = pos + length
            if stop > end:
                raise CodecError("truncated bigint")
            value = int.from_bytes(buf[pos:stop], "big")
            if sign:
                value = -value
            pos = stop
        else:
            raise CodecError(f"unknown type tag 0x{tag:02x}")
        items.append(value)
        remaining -= 1


def loads(raw: Any, start: int = 0) -> Any:
    """Decode the binary value occupying ``raw[start:]`` back into a payload.

    ``raw`` is indexed in place from ``start`` — a transport hands over
    its whole frame plus the body offset, so the body is never sliced
    out or copied; only the decoded leaf values materialize.  Anything
    that is not ``bytes`` (a ``memoryview``, a ``bytearray``) is copied
    to ``bytes`` once first.
    """
    buf = raw if raw.__class__ is bytes else bytes(raw)
    end = len(buf)
    _, msg_types, enum_members = registry_tables()
    value, pos = _unpack(buf, start, end, msg_types, enum_members)
    if pos != end:
        raise CodecError(
            f"{end - pos} trailing bytes after the decoded value"
        )
    return value


# -- decode once per distinct body -------------------------------------------

#: Body bytes one :class:`BodyMemo` may retain — one ``MAX_FRAME``.
#: Past it the whole table is cleared (no LRU: a run's working set is a
#: few hundred bodies of a few hundred bytes); a single body over the cap
#: is never retained.
MEMO_BYTES = 1 << 20

_MISS = object()  # ``None`` is a decodable value


class BodyMemo:
    """One receiving endpoint's table of bodies it has already decoded.

    ``loads(raw, start)`` returns what ``loads(raw[start:])`` of this
    module returns, or raises the same :class:`CodecError` — but a body
    seen before is answered from the table instead of unpacked again.
    What keeps that equal to decoding every time:

    * the key is the exact body bytes — never the sender, which the
      transport authenticates per frame *before* it asks;
    * one memo per endpoint, never per process: a node must not be
      served by another node's decode just because a test or a
      benchmark hosts both in one interpreter;
    * only a value ``hash()`` accepts is retained.  The wire types are
      frozen dataclasses, tuples, enums and scalars, which hash exactly
      when nothing mutable (a list, a dict) is inside — so a retained
      value can be handed to any number of deliveries, and anything
      else is decoded afresh each time;
    * the one entry not made by a decode is a :meth:`seed`: a payload
      this endpoint sent itself under :func:`pack`'s exact verdict,
      which *is* what decoding its body would give.  Only the endpoint
      that encoded a body seeds it, so a delivery here is never another
      node's object;
    * a failed decode is never retained, and the table is dropped when
      :func:`registry_tables` rebuilds (the same bytes may then name
      another type).
    """

    def __init__(self) -> None:
        self._values: Dict[bytes, Any] = {}
        self._msg_types: Optional[_MsgTypes] = None
        #: Body bytes currently retained (at most :data:`MEMO_BYTES`).
        self.retained = 0
        #: Lookups answered from the table / by a full decode.
        self.hits = 0
        self.misses = 0
        #: Bodies handed to :meth:`seed` (none of them is a decode).
        self.seeded = 0

    def __len__(self) -> int:
        return len(self._values)

    def clear(self) -> None:
        self._values.clear()
        self.retained = 0

    def _current(self) -> None:
        """Drop the table if the registries changed since it was filled."""
        msg_types = registry_tables()[1]
        if msg_types is not self._msg_types:
            self.clear()
            self._msg_types = msg_types

    def _retain(self, body: bytes, value: Any) -> None:
        size = len(body)
        if size > MEMO_BYTES:
            return
        if self.retained + size > MEMO_BYTES:
            self.clear()
        self._values[body] = value
        self.retained += size

    def loads(self, raw: Any, start: int = 0) -> Any:
        self._current()
        body = (raw if raw.__class__ is bytes else bytes(raw))[start:]
        value = self._values.get(body, _MISS)
        if value is not _MISS:
            self.hits += 1
            return value
        self.misses += 1
        value = loads(body)
        try:
            hash(value)
        except TypeError:
            return value
        self._retain(body, value)
        return value

    def seed(self, body: bytes, value: Any) -> None:
        """Retain ``value`` as the decode of ``body`` without decoding it.

        The caller vouches for the pair: ``body, True`` is what
        :func:`pack` returned for ``value``, so a later copy of ``body``
        from a peer is a hit on the object this endpoint sent.  A body
        already in the table keeps its entry.
        """
        self._current()
        self.seeded += 1
        if body not in self._values:
            self._retain(body, value)
