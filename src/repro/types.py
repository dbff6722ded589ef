"""Shared value types for the ``repro`` library.

The library models an asynchronous message-passing system of ``n``
processes identified by integers ``0 .. n-1``.  Binary consensus operates
on the values ``0`` and ``1``; higher layers (the replicated log, ACS) use
arbitrary hashable payloads.

Messages exchanged by the protocols are small frozen dataclasses.  They
are deliberately *plain data*: the simulator may copy, reorder, drop (for
faulty destinations), or forge (for Byzantine senders) them, so nothing in
a message may carry behavior.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Hashable, NamedTuple, Tuple

ProcessId = int
Bit = int  # 0 or 1
Round = int
InstanceId = Tuple[Hashable, ...]

BINARY_VALUES: Tuple[Bit, Bit] = (0, 1)


def valid_round(round_: object) -> bool:
    """Is ``round_`` usable as a round number?  A message's round is wire
    input (the codec checks no field types), and only an ``int >= 1`` may
    key a per-round table."""
    return isinstance(round_, int) and round_ >= 1


def other_bit(b: Bit) -> Bit:
    """Return the complement of a binary value."""
    return 1 - b


class Step(enum.IntEnum):
    """The three steps of one round of Bracha's consensus protocol."""

    ONE = 1
    TWO = 2
    THREE = 3


class Phase(enum.Enum):
    """Waves of Bracha's reliable broadcast."""

    INIT = "INIT"
    ECHO = "ECHO"
    READY = "READY"


@dataclass(frozen=True)
class StepValue:
    """The value carried by a consensus step message.

    ``bit`` is the binary value, ``decide`` marks a step-3 *decide
    proposal* ``(d, v)`` in the paper's notation.  Step-1 and step-2
    messages always carry ``decide=False``.
    """

    bit: Bit
    decide: bool = False

    def __post_init__(self) -> None:
        if self.bit not in BINARY_VALUES:
            raise ValueError(f"bit must be 0 or 1, got {self.bit!r}")

    def plain(self) -> "StepValue":
        """Return the same bit without the decide mark."""
        return StepValue(self.bit, False)

    def __repr__(self) -> str:  # compact for traces
        return f"(d,{self.bit})" if self.decide else f"({self.bit})"


class Envelope(NamedTuple):
    """A message in flight between two processes.

    ``uid`` is a simulator-assigned unique, monotonically increasing
    identifier used for deterministic tie-breaking; ``send_time`` is the
    virtual time at which the source handed the message to the network.
    The simulator itself never inspects payloads.
    """

    uid: int
    source: ProcessId
    dest: ProcessId
    payload: Any
    send_time: float

    def __repr__(self) -> str:
        return f"<#{self.uid} {self.source}->{self.dest} {self.payload!r}>"


@dataclass(frozen=True)
class Decision:
    """A recorded decision of one process in one protocol instance."""

    process: ProcessId
    value: Any
    round: Round
    time: float


@dataclass
class RunResult:
    """Outcome of one protocol run on any fabric (filled by
    :func:`repro.outcome.build_result`).

    Attributes:
        decisions: decisions of the *correct* processes, keyed by pid.
        rounds: highest round any correct process reached.
        steps: number of simulator delivery steps executed.
        messages_sent: total messages handed to the network.
        messages_delivered: total messages delivered to processes.
        virtual_time: virtual time at quiescence/stop.
        halted: pids of correct processes that halted outright.
        violations: safety and liveness violations detected.
        meta: per-run data (coin flips, per-type counts, ...; the key
            table is in docs/scenarios.md).
        metrics: typed metrics snapshot
            (:class:`repro.obs.MetricsSnapshot`); ``None`` only on a
            hand-built result.
    """

    decisions: dict = field(default_factory=dict)
    rounds: int = 0
    steps: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    virtual_time: float = 0.0
    halted: set = field(default_factory=set)
    violations: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    metrics: Any = None

    @property
    def decided_values(self) -> set:
        """Distinct values decided by correct processes."""
        return {d.value for d in self.decisions.values()}

    @property
    def all_decided(self) -> bool:
        return bool(self.decisions)

    def decision_round(self) -> int:
        """Highest round at which a correct process decided (0 if none)."""
        if not self.decisions:
            return 0
        return max(d.round for d in self.decisions.values())
