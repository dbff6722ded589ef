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

Format: JSON Lines.  Each line is ``{"seq": i, "sha": "<hex>", "rec":
{...}}`` where ``sha`` is a checksum over the canonical JSON of the
sequence number and record.  The reader is strict: a missing header, a
gap or repeat in the sequence, a checksum mismatch, or a truncated tail
line all raise :class:`WalError` — recovery refuses a damaged log
rather than replaying a silently wrong prefix.

Durability stance: every append is flushed to the OS (``flush``, no
``fsync``).  That survives ``SIGKILL`` — the failure mode the ``mp``
fabric injects — because the kernel holds the buffered write; it does
not survive an OS crash or power loss.  Callers needing full durability
can ``fsync`` the file themselves between runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict, List, Optional, TextIO, Tuple

from ..errors import ConfigError, ReproError


def _codec():
    # Imported lazily: repro.runtime's package __init__ pulls in the
    # cluster driver, which imports this module — a top-level import
    # here would be circular.
    from ..runtime import codec
    return codec

__all__ = [
    "RECOVERY_MODES",
    "WAL_VERSION",
    "WalError",
    "WalWriter",
    "parse_recovery",
    "read_wal",
    "replay",
    "validate_header",
    "wal_filename",
]

WAL_VERSION = 1

#: Hex digits of SHA-256 kept per record.  64 bits of checksum is far
#: beyond what torn writes or bit rot need; the point is detection, not
#: adversarial collision resistance (the WAL is node-local, not wire data).
_SHA_HEX = 16

#: The valid shapes of the ``recovery`` scenario field.
RECOVERY_MODES = ("off", "wal", "wal:DIR")


class WalError(ReproError):
    """A write-ahead log is damaged, truncated, or bound to another run."""


def parse_recovery(spec: str) -> Tuple[str, Optional[str]]:
    """Validate a ``recovery`` field; return ``(mode, directory)``.

    ``"off"`` disables logging; ``"wal"`` logs into a run-scoped scratch
    directory; ``"wal:DIR"`` logs into ``DIR`` (created if missing) and
    leaves the logs behind as run artifacts.
    """
    if not isinstance(spec, str):
        raise ConfigError(f"recovery must be a string, got {spec!r}")
    mode, _, arg = spec.partition(":")
    if mode == "off":
        if arg:
            raise ConfigError(f"recovery 'off' takes no argument: {spec!r}")
        return "off", None
    if mode == "wal":
        return "wal", (arg or None)
    raise ConfigError(
        f"unknown recovery mode {spec!r}; expected one of {RECOVERY_MODES}"
    )


def wal_filename(pid: int) -> str:
    """The per-node log name inside a recovery directory."""
    return f"wal-{pid}.jsonl"


def _checksum(seq: int, rec: Dict[str, Any]) -> str:
    text = json.dumps({"rec": rec, "seq": seq}, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:_SHA_HEX]


class WalWriter:
    """Appends checksummed records to one node's log, flushing each one.

    Use :meth:`open` for a fresh run (truncates, writes the header) and
    :meth:`resume` after a replayed recovery (appends, continuing the
    sequence where the log left off).
    """

    def __init__(self, path: str, fh: TextIO, next_seq: int):
        self.path = path
        self._fh: Optional[TextIO] = fh
        self._next_seq = next_seq

    @classmethod
    def open(cls, path: str, header: Dict[str, Any]) -> "WalWriter":
        """Start a fresh log at ``path`` with a binding ``header``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        writer = cls(path, open(path, "w", encoding="utf-8"), 0)
        writer.append({"kind": "header", "version": WAL_VERSION, **header})
        return writer

    @classmethod
    def resume(cls, path: str, next_seq: int) -> "WalWriter":
        """Reopen an existing log for appending after a verified replay."""
        return cls(path, open(path, "a", encoding="utf-8"), next_seq)

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def append(self, rec: Dict[str, Any]) -> None:
        """Write one record; a single line, flushed before returning."""
        if self._fh is None:
            raise WalError(f"append to closed WAL {self.path}")
        seq = self._next_seq
        line = json.dumps(
            {"seq": seq, "sha": _checksum(seq, rec), "rec": rec},
            sort_keys=True, separators=(",", ":"),
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        self._next_seq = seq + 1

    def append_propose(self, value: Any) -> None:
        self.append({"kind": "propose", "value": _codec().encode(value)})

    def append_deliver(self, sender: int, payload: Any) -> None:
        self.append({"kind": "deliver", "sender": sender,
                     "payload": _codec().encode(payload)})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_wal(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read and verify a log; return ``(header, records_after_header)``.

    Strict by design: any defect — unreadable file, malformed JSON, a
    truncated tail (no trailing newline), a sequence gap, a checksum
    mismatch, a missing or unsupported header — raises :class:`WalError`.
    A recovery boot must refuse a damaged log loudly; replaying a wrong
    prefix would produce a node whose outbound stream contradicts what
    peers already received.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise WalError(f"cannot read WAL {path}: {exc}") from exc
    if not raw:
        raise WalError(f"WAL {path} is empty")
    if not raw.endswith(b"\n"):
        raise WalError(f"WAL {path} ends in a truncated record")
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        try:
            entry = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise WalError(f"WAL {path} line {lineno}: malformed JSON ({exc})")
        if (not isinstance(entry, dict)
                or set(entry) != {"seq", "sha", "rec"}
                or not isinstance(entry["rec"], dict)):
            raise WalError(f"WAL {path} line {lineno}: malformed record")
        seq = entry["seq"]
        if seq != lineno - 1:
            raise WalError(
                f"WAL {path} line {lineno}: sequence {seq!r}, expected {lineno - 1}"
            )
        if entry["sha"] != _checksum(seq, entry["rec"]):
            raise WalError(f"WAL {path} line {lineno}: checksum mismatch")
        records.append(entry["rec"])
    header = records[0]
    if header.get("kind") != "header":
        raise WalError(f"WAL {path} does not start with a header record")
    if header.get("version") != WAL_VERSION:
        raise WalError(
            f"WAL {path} has version {header.get('version')!r}, "
            f"this library reads version {WAL_VERSION}"
        )
    return header, records[1:]


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

    ``propose`` receives the decoded proposal; ``deliver`` receives each
    ``(sender, payload)``.  Returns ``{"replayed": n, "proposed": bool}``.
    Replay is *at least once*: the callbacks run with sends enabled, so
    anything the pre-crash node queued but never flushed is re-emitted —
    peers treat duplicates idempotently (quorum sets are per sender).
    """
    codec = _codec()
    proposed = False
    for rec in records:
        kind = rec.get("kind")
        if kind == "propose":
            propose(codec.decode(rec["value"]))
            proposed = True
        elif kind == "deliver":
            deliver(rec["sender"], codec.decode(rec["payload"]))
        else:
            raise WalError(f"unknown WAL record kind {kind!r}")
    return {"replayed": len(records), "proposed": proposed}
