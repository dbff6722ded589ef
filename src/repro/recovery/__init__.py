"""Crash recovery: durable WALs, deterministic replay, restart supervision.

The subsystem has two parts:

* :mod:`repro.recovery.wal` — the durable write-ahead log and its
  strict reader/replayer.  Because the protocol engines are sans-I/O
  and deterministic, logging a node's *inputs* (proposal + delivered
  messages) is a complete checkpoint: replaying them through a freshly
  built stack reconstructs the exact pre-crash state with no protocol
  code changes.
* :mod:`repro.recovery.restart` — the sim ``restart`` fault kind: the
  same log in memory, recovered through the same reader and replay.

The mp fabric's respawn loop, with its bounded restart budget, is
:meth:`repro.mp.orchestrator.MpOrchestrator._respawn`.

See ``docs/recovery.md`` for the format, the replay invariants, and the
per-fabric restart semantics.
"""

from typing import Optional, Tuple

from .._lazy import lazy_exports
from ..errors import ConfigError

# A scenario validates its ``recovery`` field in every process; only a
# run that logs or replays loads the WAL (and the value format it
# writes), and only a sim run with a ``restart`` fault the restart
# behavior.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".restart": ("RestartBehavior",),
    ".wal": ("WAL_VERSION", "WalError", "WalWriter", "read_wal", "replay",
             "validate_header", "wal_filename"),
})

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

#: The valid shapes of the ``recovery`` scenario field.
RECOVERY_MODES = ("off", "wal", "wal:DIR")


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
