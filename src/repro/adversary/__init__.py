"""The adversary: Byzantine process behaviors and network attack schedulers.

Bracha's model grants the adversary two powers, and this package
implements both as first-class, testable components:

* **Corrupting up to t processes** — :mod:`repro.adversary.behaviors`
  provides behavior objects that replace a process's protocol stack:
  silence, crashing mid-run, two-faced (split-brain) execution, message
  fuzzing, and honest-but-lying variants.
* **Scheduling the network** — :mod:`repro.adversary.strategies` provides
  schedulers that reorder deliveries adversarially: starving victims,
  partition-style delays, and coin-aware rushing (the adversary observes
  released common coins and orders messages to steer undesired outcomes).

All behaviors authenticate as their own pid only; none can forge traffic
from other processes — the network enforces source attribution exactly as
the authenticated-links model prescribes.
"""

from .._lazy import lazy_exports
from .behaviors import (
    ByzantineBehavior,
    CrashBehavior,
    EquivocatingBroadcaster,
    FuzzerBehavior,
    SilentBehavior,
    StubbornBidder,
    TwoFacedBehavior,
)
from .strategies import (
    CoinRushScheduler,
    DelayVictimScheduler,
    PartitionScheduler,
    SplitBrainScheduler,
)

# The scripted Ben-Or attack is an experiment, not a fault kind: first use loads it.
__getattr__, __dir__ = lazy_exports(globals(), {".benor_attack": (
    "AttackReport", "attack_success_rate", "run_benor_equivocation_attack",
)})

__all__ = [
    "AttackReport",
    "ByzantineBehavior",
    "CoinRushScheduler",
    "CrashBehavior",
    "DelayVictimScheduler",
    "EquivocatingBroadcaster",
    "FuzzerBehavior",
    "PartitionScheduler",
    "SilentBehavior",
    "SplitBrainScheduler",
    "StubbornBidder",
    "TwoFacedBehavior",
    "attack_success_rate",
    "run_benor_equivocation_attack",
]
