"""Deterministic discrete-event simulation substrate.

The simulator realizes the asynchronous model of Bracha's paper: reliable
authenticated point-to-point links with no bound on delivery delay and no
process clocks.  Executions are driven by a :class:`~repro.sim.scheduler.Scheduler`
that chooses which in-flight message to deliver next — a uniformly random
choice models a benign network, while adversarial schedulers model the
strong network adversary of the paper.

Everything is seeded and deterministic: the same ``seed`` produces the
same execution, byte for byte, which the test suite relies on.
"""

from .effects import Broadcast, Decide, Note, Outbox, Send, parse_batching
from .events import PendingSet
from .network import Network
from .process import Context, Process, ProtocolModule
from .rng import SplitRng
from .runner import Simulation
from .scheduler import (
    FifoScheduler,
    RandomDelayScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    ScriptedScheduler,
)

__all__ = [
    "Broadcast",
    "Context",
    "Decide",
    "Note",
    "Outbox",
    "Send",
    "FifoScheduler",
    "Network",
    "PendingSet",
    "Process",
    "ProtocolModule",
    "RandomDelayScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "ScriptedScheduler",
    "Simulation",
    "SplitRng",
    "parse_batching",
]
