"""Baseline protocols Bracha's paper is measured against.

* :mod:`repro.baselines.benor` — **Ben-Or (PODC 1983)**, the protocol
  Bracha improves on.  No broadcast, no validation: plain point-to-point
  voting with local coins.  Tolerates Byzantine faults only for
  ``t < n/5``; the validation ablation (T5) demonstrates experimentally
  what breaks beyond that.
* :mod:`repro.baselines.bv_broadcast` + :mod:`repro.baselines.mmr14` —
  an **MMR-2014-style binary agreement** (the ABA inside HoneyBadgerBFT),
  the modern descendant of Bracha's protocol: binary-value broadcast
  replaces full reliable broadcast, shaving a factor of ``n`` off the
  per-round message count, at the price of requiring a common coin.
* :mod:`repro.baselines.rabin` — **Rabin (FOCS 1983)** as a
  configuration: Bracha's round structure driven by the dealer-shared
  common coin, giving constant expected rounds.

All baselines are scenario protocols (``Scenario(protocol="benor")``,
``"benor-crash"``, ``"mmr14"``): they run on the same fabrics, coin
schemes, and fault behaviors as the core protocol, assembled from the
:data:`repro.stacks.STACKS` registry and held to the same safety checks.
"""

from .benor import BenOrConsensus
from .benor_crash import BenOrCrashConsensus
from .bv_broadcast import BinaryValueBroadcast, BvDeliver
from .mmr14 import Mmr14Consensus
from .rabin import rabin_configuration

__all__ = [
    "BenOrConsensus",
    "BenOrCrashConsensus",
    "BinaryValueBroadcast",
    "BvDeliver",
    "Mmr14Consensus",
    "rabin_configuration",
]
