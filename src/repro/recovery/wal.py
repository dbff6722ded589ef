"""Durable write-ahead logging for crash recovery.

The protocol engines are sans-I/O and deterministic (PR 5): a module's
state is a pure function of its start call, its proposal, and the exact
sequence of messages delivered to it.  Crash recovery therefore does not
need to snapshot protocol state at all — it only needs a durable record
of the *inputs*.  The WAL persists, per node:

* a ``header`` record binding the log to one run (run id, scenario
  hash, node id, seed, protocol, instance count) — a recovered process
  refuses a WAL written for a different run, node, or setup;
* one ``propose`` record when the node's proposal enters the stack;
* one ``deliver`` record per inbound protocol message, written *before*
  the message reaches the engine, so the log is always a superset of
  the state (losing an applied-but-unlogged message would desynchronize
  the recovered node's outbound stream from what peers already saw).

Replaying the log through a freshly built, unmodified protocol stack —
start, propose, then the delivers in order — reconstructs the exact
pre-crash state, including the coin/RNG position: randomness is drawn
from named :class:`~repro.sim.rng.SplitRng` streams seeded only by the
master seed, so re-executing the same draws lands on the same values.

Format (version 2): records back to back, each a 4-byte big-endian body
length, the body, and the first 8 bytes of SHA-256 over the body.  The
body is :func:`~repro.runtime.binarycodec.dumps` of the record, a dict
of its ``kind``, its fields and its ``seq`` (0, 1, 2, ... in file
order) — the wire's value format, so a logged payload is the bytes a
peer reads.  A body names message and enum types by their rank in the
wire registry, so the header records
:func:`~repro.runtime.binarycodec.registry_digest`.  The reader is
strict: a version 1 (JSON Lines) log, a missing header, another version
or registry digest, a truncated record, a checksum mismatch, a body
that does not decode, or a gap or repeat in the sequence all raise
:class:`WalError` — recovery refuses a damaged log rather than replaying
a silently wrong prefix.

Durability stance: every append is flushed to the OS (``flush``, no
``fsync``).  That survives ``SIGKILL`` — the failure mode the ``mp``
fabric injects — because the kernel holds the buffered write; it does
not survive an OS crash or power loss.  Callers needing full durability
can ``fsync`` the file themselves between runs.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..runtime.binarycodec import dumps, loads, registry_digest
from ..runtime.codec import CodecError

__all__ = [
    "WAL_VERSION",
    "WalError",
    "WalWriter",
    "parse_wal",
    "read_wal",
    "replay",
    "validate_header",
    "wal_filename",
]

WAL_VERSION = 2

#: Bytes of the big-endian body length that opens each record.
_LENGTH_BYTES = 4

#: Bytes of SHA-256 kept per record.  64 bits of checksum is far beyond
#: what torn writes or bit rot need; the point is detection, not
#: adversarial collision resistance (the WAL is node-local, not wire data).
_SUM_BYTES = 8


class WalError(ReproError):
    """A write-ahead log is damaged, truncated, or bound to another run."""


def wal_filename(pid: int) -> str:
    """The per-node log name inside a recovery directory."""
    return f"wal-{pid}.log"


def _frame(body: bytes) -> bytes:
    """One record as it lies in the file: length, body, checksum."""
    return (len(body).to_bytes(_LENGTH_BYTES, "big") + body
            + hashlib.sha256(body).digest()[:_SUM_BYTES])


class WalWriter:
    """Appends checksummed records to one node's log, flushing each one.

    Use :meth:`open` for a fresh run (truncates, writes the header) and
    :meth:`resume` after a replayed recovery (appends, continuing the
    sequence where the log left off).
    """

    def __init__(self, path: str, fh: BinaryIO, next_seq: int):
        self.path = path
        self._fh: Optional[BinaryIO] = fh
        self._next_seq = next_seq

    @classmethod
    def open(cls, path: str, header: Dict[str, Any],
             fh: Optional[BinaryIO] = None) -> "WalWriter":
        """Start a log with a binding ``header`` in ``fh``, else at ``path``."""
        if fh is None:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            fh = open(path, "wb")
        writer = cls(path, fh, 0)
        writer.append({"kind": "header", "version": WAL_VERSION,
                       "registry": registry_digest(), **header})
        return writer

    @classmethod
    def resume(cls, path: str, next_seq: int) -> "WalWriter":
        """Reopen an existing log for appending after a verified replay."""
        return cls(path, open(path, "ab"), next_seq)

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def append(self, rec: Dict[str, Any]) -> None:
        """Write one record, flushed before returning."""
        if self._fh is None:
            raise WalError(f"append to closed WAL {self.path}")
        seq = self._next_seq
        self._fh.write(_frame(dumps({**rec, "seq": seq})))
        self._fh.flush()
        self._next_seq = seq + 1

    def append_propose(self, value: Any) -> None:
        self.append({"kind": "propose", "value": value})

    def append_deliver(self, sender: int, payload: Any) -> None:
        self.append({"kind": "deliver", "sender": sender, "payload": payload})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _decode(path: str, seq: int, body: bytes) -> Dict[str, Any]:
    """Record ``seq``'s body as the record dict, ``seq`` checked and gone."""
    try:
        rec = loads(body)
    except CodecError as exc:
        raise WalError(
            f"WAL {path} record {seq}: body does not decode ({exc})") from exc
    if not isinstance(rec, dict) or "kind" not in rec:
        raise WalError(f"WAL {path} record {seq}: malformed record")
    got = rec.pop("seq", None)
    if got != seq:
        raise WalError(f"WAL {path} record {seq}: sequence {got!r}, expected {seq}")
    return rec


def read_wal(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """:func:`parse_wal` the log at ``path``; an unreadable file is a
    :class:`WalError` too."""
    try:
        with open(path, "rb") as fh:
            return parse_wal(path, fh.read())
    except OSError as exc:
        raise WalError(f"cannot read WAL {path}: {exc}") from exc


def parse_wal(path: str, raw: bytes) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Verify a log's bytes; return ``(header, records_after_header)``,
    every record decoded, with ``path`` naming the log in errors.

    Strict by design: any defect — a version 1 log, a truncated tail, a
    checksum mismatch, a body that does not decode, a sequence gap, a
    missing or unsupported header, another registry — raises
    :class:`WalError`.  A recovery must refuse a damaged log loudly;
    replaying a wrong prefix would produce a node whose outbound stream
    contradicts what peers already received.
    """
    if not raw:
        raise WalError(f"WAL {path} is empty")
    if raw[:1] == b"{":  # a v2 log starts with the header's length
        raise WalError(
            f"WAL {path} is a version 1 (JSON Lines) log, "
            f"this library reads version {WAL_VERSION}"
        )
    bodies: List[bytes] = []
    pos = 0
    while pos < len(raw):
        start = pos + _LENGTH_BYTES
        stop = start + int.from_bytes(raw[pos:start], "big")
        end = stop + _SUM_BYTES
        if end > len(raw):  # a cut length field puts ``end`` past the file too
            raise WalError(
                f"WAL {path} ends in a truncated record (record {len(bodies)})")
        body = raw[start:stop]
        if raw[stop:end] != hashlib.sha256(body).digest()[:_SUM_BYTES]:
            raise WalError(f"WAL {path} record {len(bodies)}: checksum mismatch")
        bodies.append(body)
        pos = end
    # The header is checked before any other body is decoded: under
    # another registry those bytes would decode to other types.
    header = _decode(path, 0, bodies[0])
    if header["kind"] != "header":
        raise WalError(f"WAL {path} does not start with a header record")
    if header.get("version") != WAL_VERSION:
        raise WalError(
            f"WAL {path} has version {header.get('version')!r}, "
            f"this library reads version {WAL_VERSION}"
        )
    digest = registry_digest()
    if header.get("registry") != digest:
        raise WalError(
            f"WAL {path} was written under wire registry digest "
            f"{header.get('registry')!r}, this process has {digest!r}: "
            "its bodies name other types here"
        )
    return header, [_decode(path, seq, body)
                    for seq, body in enumerate(bodies[1:], start=1)]


def validate_header(header: Dict[str, Any], **expected: Any) -> None:
    """Refuse a log whose header does not match the booting run.

    ``expected`` names header fields and their required values (e.g.
    ``run_id=..., node=...``); every mismatch is reported at once.
    """
    mismatches = [
        f"{key}: WAL has {header.get(key)!r}, run has {value!r}"
        for key, value in sorted(expected.items())
        if header.get(key) != value
    ]
    if mismatches:
        raise WalError(
            "WAL belongs to a different run — " + "; ".join(mismatches)
        )


def replay(
    records: List[Dict[str, Any]],
    propose: Callable[[Any], None],
    deliver: Callable[[int, Any], None],
) -> Dict[str, Any]:
    """Drive a fresh stack through the logged inputs, in order.

    ``records`` are :func:`read_wal`'s, already decoded: ``propose``
    receives the proposal; ``deliver`` receives each ``(sender,
    payload)``.  Returns ``{"replayed": n, "proposed": bool}``.
    Replay is *at least once*: the callbacks run with sends enabled, so
    anything the pre-crash node queued but never flushed is re-emitted —
    peers treat duplicates idempotently (quorum sets are per sender).
    """
    proposed = False
    for rec in records:
        kind = rec.get("kind")
        if kind == "propose":
            propose(rec["value"])
            proposed = True
        elif kind == "deliver":
            deliver(rec["sender"], rec["payload"])
        else:
            raise WalError(f"unknown WAL record kind {kind!r}")
    return {"replayed": len(records), "proposed": proposed}
