"""The wire registry: which message and enum types a value may hold.

Protocol payloads are deliberately *plain data* (frozen dataclasses of
ints, strings, bytes, tuples and enums — see :mod:`repro.types`), so
one value format covers all of them without pickling (pickle would hand
whoever writes the bytes a remote-code-execution primitive).  That
format is :mod:`repro.runtime.binarycodec`: the bytes on every link
(framed by :mod:`repro.runtime.tcp`) and the record bodies of the
write-ahead log (:mod:`repro.recovery.wal`).  It names a registered
class by its rank in the registry below, and a value of any other class
is a :class:`CodecError`.

Every message dataclass in the library is registered here; downstream
protocols register their own via :func:`register_message`.  The module
also defines the two envelope messages the runtime itself puts on the
wire: :class:`WireBatch` and :class:`Stamped`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Dict, Type

from ..errors import ReproError

__all__ = [
    "CodecError",
    "Stamped",
    "WireBatch",
    "register_message",
]


class CodecError(ReproError):
    """A payload cannot be encoded, or a frame cannot be decoded."""


#: name -> class for dataclasses allowed on the wire.
_MESSAGES: Dict[str, Type[Any]] = {}
#: name -> enum class allowed on the wire.
_ENUMS: Dict[str, Type[enum.Enum]] = {}


def register_message(cls: Type[Any]) -> Type[Any]:
    """Allow a frozen dataclass on the wire (usable as a decorator).

    Registration is by class name, so two protocols must not reuse a
    name — the registry refuses the collision loudly rather than letting
    frames decode into the wrong type.  A class that is not frozen is
    refused too: a receiver's memo hands one decoded object to many
    deliveries, and a node's own exact message is delivered as the
    object it sent, so a wire value must not change after it is sent.
    """
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"{cls!r} is not a dataclass")
    _require_frozen(cls)
    name = cls.__name__
    existing = _MESSAGES.get(name)
    if existing is not None and existing is not cls:
        raise CodecError(f"message name {name!r} already registered by {existing!r}")
    _MESSAGES[name] = cls
    return cls


def _require_frozen(cls: Type[Any]) -> None:
    if not cls.__dataclass_params__.frozen:
        raise CodecError(
            f"message type {cls.__name__!r} is not frozen: wire values "
            "are shared between deliveries and must be immutable"
        )


def register_enum(cls: Type[enum.Enum]) -> Type[enum.Enum]:
    """Allow an enum on the wire (by class name + member name)."""
    existing = _ENUMS.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise CodecError(f"enum name {cls.__name__!r} already registered")
    _ENUMS[cls.__name__] = cls
    return cls


# -- the multi-message envelope frame ----------------------------------------


@dataclasses.dataclass(frozen=True)
class WireBatch:
    """One wire frame carrying several protocol messages to one peer.

    The batched message pipeline (``batching`` scenario field) coalesces
    everything a node queued for a destination during one pump iteration
    into a single ``WireBatch`` payload: one MAC, one length-prefixed
    TCP write, one codec pass (shared by every destination the node
    queued the same message objects for — a broadcast) — and one
    netem/:class:`~repro.netem.reliable.ReliableLink` wire-frame, so link conditions and retransmission keep their
    per-frame semantics unchanged.  The receiving node unpacks the batch
    and delivers the inner messages in order.

    Validation runs on inbound frames too (decoding re-invokes this
    constructor): empty and nested batches are rejected, so a Byzantine
    peer cannot smuggle recursion or zero-length frames past the codec.
    """

    messages: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.messages, tuple):
            raise CodecError(
                f"batch messages must be a tuple, got {type(self.messages).__name__}"
            )
        if not self.messages:
            raise CodecError("a wire batch must carry at least one message")
        if any(isinstance(m, WireBatch) for m in self.messages):
            raise CodecError("wire batches must not nest")

    def __len__(self) -> int:
        return len(self.messages)


@dataclasses.dataclass(frozen=True)
class Stamped:
    """A protocol payload wrapped with its causal message id.

    When a run is observed, :class:`~repro.runtime.node.NodeNetwork`
    stamps every outbound message with the id its ``send`` event carries
    (``"<sender>:<seq>"``, see
    :class:`~repro.sim.effects.CausalStamper`), and the receiving
    :class:`~repro.runtime.node.Node` strips the wrapper before the WAL,
    the observer, and the protocol target see the message — so the
    ``deliver`` event carries the matching id and nothing protocol-side
    ever learns the wrapper exists.  Without an observer the wrapper is
    never constructed and the wire shape is unchanged.

    The id must be a string (inbound frames re-run this constructor, so
    a Byzantine peer cannot smuggle non-JSON-safe junk into traces), and
    stamps must not nest — one message, one id.
    """

    mid: str
    payload: Any

    def __post_init__(self) -> None:
        if not isinstance(self.mid, str):
            raise CodecError(
                f"causal id must be a string, got {type(self.mid).__name__}"
            )
        if isinstance(self.payload, Stamped):
            raise CodecError("stamped payloads must not nest")
        if isinstance(self.payload, WireBatch):
            # Batches carry stamped messages, never the other way round.
            raise CodecError("a stamp wraps one message, not a wire batch")


# Two retired link-layer envelopes, kept only for their registry ids: an
# id is the rank of a class name, so removing them would shift every
# golden frame's id and ``registry_digest()``, and ``read_wal`` would
# refuse the committed v2 WAL files.  They go with the first change that
# declares a registry change.


@dataclasses.dataclass(frozen=True)
class FifoPacket:
    seq: int
    tag: str
    inner: Any


@dataclasses.dataclass(frozen=True)
class SealedPacket:
    source: int
    tag: str
    inner: Any
    mac: bytes


# -- registry of the library's wire types ------------------------------------


def _register_builtin_types() -> None:
    # Imported here, not at module top, to keep the codec import-light and
    # cycle-free (protocol modules may import the codec in the future).
    from ..baselines.benor import BenOrDecide, PVote, RVote
    from ..baselines.bv_broadcast import BvValue
    from ..baselines.mmr14 import AuxMsg, MmrDecide
    from ..core.broadcast import RbcMessage
    from ..core.coin import CoinShareMsg
    from ..core.consensus import DecideMsg
    from ..crypto.dealer import SignedShare
    from ..crypto.shamir import Share
    from ..netem.frames import LinkAck, LinkFrame
    from ..types import Phase, Step, StepValue

    for cls in (
        RbcMessage,
        StepValue,
        DecideMsg,
        CoinShareMsg,
        SignedShare,
        Share,
        RVote,
        PVote,
        BenOrDecide,
        BvValue,
        AuxMsg,
        MmrDecide,
        FifoPacket,
        SealedPacket,
        LinkFrame,
        LinkAck,
    ):
        register_message(cls)
    register_message(WireBatch)
    register_message(Stamped)
    register_enum(Phase)
    register_enum(Step)


_register_builtin_types()
