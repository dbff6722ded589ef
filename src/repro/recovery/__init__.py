"""Crash recovery: durable WALs, deterministic replay, restart supervision.

The subsystem has two parts:

* :mod:`repro.recovery.wal` — the durable write-ahead log and its
  strict reader/replayer.  Because the protocol engines are sans-I/O
  and deterministic, logging a node's *inputs* (proposal + delivered
  messages) is a complete checkpoint: replaying them through a freshly
  built stack reconstructs the exact pre-crash state with no protocol
  code changes.
* :mod:`repro.recovery.restart` — the simulator's in-memory analogue
  (suspend, buffer, rebuild, replay) behind the ``restart`` fault kind.

The mp fabric's respawn loop, with its bounded restart budget, is
:meth:`repro.mp.orchestrator.MpOrchestrator._respawn`.

See ``docs/recovery.md`` for the format, the replay invariants, and the
per-fabric restart semantics.
"""

from .._lazy import lazy_exports
from .wal import (
    RECOVERY_MODES,
    WAL_VERSION,
    WalError,
    WalWriter,
    parse_recovery,
    read_wal,
    replay,
    validate_header,
    wal_filename,
)

# Only a sim run with a ``restart`` fault executes the restart behavior.
__getattr__, __dir__ = lazy_exports(globals(), {".restart": ("RestartBehavior",)})

__all__ = [
    "RECOVERY_MODES",
    "WAL_VERSION",
    "RestartBehavior",
    "WalError",
    "WalWriter",
    "parse_recovery",
    "read_wal",
    "replay",
    "validate_header",
    "wal_filename",
]
