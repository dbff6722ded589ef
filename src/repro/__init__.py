"""repro — Bracha's asynchronous Byzantine consensus (PODC 1984), reproduced.

A production-quality Python reproduction of Gabriel Bracha's landmark
⌊(n−1)/3⌋-resilient randomized consensus protocol and everything it
stands on: reliable broadcast, message validation, local and common
coins (including a real dealer-shared Shamir coin), a deterministic
discrete-event network simulator with adversarial schedulers, Byzantine
fault behaviors, baseline protocols (Ben-Or 1983, Rabin-style common
coin, an MMR-2014-style ABA), applications (asynchronous common
subset, replicated log), and an asyncio runtime that executes the same
protocol stacks concurrently over in-process queues or authenticated
binary frames on TCP (:mod:`repro.runtime`).

Experiments are declarative (:mod:`repro.scenario`): a frozen
:class:`Scenario` captures protocol, faults, network conditions, and
execution fabric, and one spec runs on the simulator, asyncio queues,
or authenticated TCP alike.

Quickstart::

    from repro import Scenario, run_scenario

    result = run_scenario(Scenario(n=4, proposals=[0, 1, 1, 0], seed=7))
    print(result.decided_values)   # {0} or {1} — but always a singleton

See docs/architecture.md for the architecture; the ``benchmarks/bench_*``
tables reproduce every claim in the paper.
"""

from ._lazy import lazy_exports
from .core.broadcast import BroadcastLayer, RbcDelivery, RbcMessage
from .core.coin import DealerCoin, LocalCoin, ShareCoinProvider
from .core.consensus import BrachaConsensus, DecisionEvent
from .errors import (
    AgreementViolation,
    ConfigError,
    LivenessFailure,
    ReproError,
    SafetyViolation,
    ValidityViolation,
)
from .netem.models import LinkModel, NetemConfig, Partition
from .params import ProtocolParams, for_system, max_faults
from .scenario import CATALOG, Scenario, get_scenario, load_scenario
from .scenario import run as run_scenario
from .sim.runner import Simulation
from .types import RunResult, StepValue

__version__ = "1.1.0"

# Not on a simulator run's path: imported on first access.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".analysis.experiments": ("run_broadcast",),
    ".runtime.cluster": ("Cluster",),
    ".scenario.grid": ("ScenarioGrid",),
})

__all__ = [
    "AgreementViolation",
    "BrachaConsensus",
    "BroadcastLayer",
    "CATALOG",
    "ConfigError",
    "DealerCoin",
    "DecisionEvent",
    "LinkModel",
    "LivenessFailure",
    "LocalCoin",
    "NetemConfig",
    "Partition",
    "ProtocolParams",
    "RbcDelivery",
    "RbcMessage",
    "ReproError",
    "Cluster",
    "RunResult",
    "SafetyViolation",
    "Scenario",
    "ScenarioGrid",
    "ShareCoinProvider",
    "Simulation",
    "StepValue",
    "ValidityViolation",
    "__version__",
    "for_system",
    "get_scenario",
    "load_scenario",
    "max_faults",
    "run_broadcast",
    "run_scenario",
]
