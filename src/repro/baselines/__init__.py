"""Baseline protocols Bracha's paper is measured against.

* :mod:`repro.baselines.benor` — **Ben-Or (PODC 1983)**, the protocol
  Bracha improves on.  No broadcast, no validation: plain point-to-point
  voting with local coins.  Tolerates Byzantine faults only for
  ``t < n/5``; the validation ablation (T5) demonstrates experimentally
  what breaks beyond that.  Its crash-fault variant
  (:class:`BenOrCrashConsensus`, ``t < n/2``) is the same protocol with
  five thresholds changed.
* :mod:`repro.baselines.bv_broadcast` + :mod:`repro.baselines.mmr14` —
  an **MMR-2014-style binary agreement** (the ABA inside HoneyBadgerBFT),
  the modern descendant of Bracha's protocol: binary-value broadcast
  replaces full reliable broadcast, shaving a factor of ``n`` off the
  per-round message count, at the price of requiring a common coin.

**Rabin (FOCS 1983)** needs no module: his contribution is the coin, so
his protocol is Bracha's rounds driven by the dealer-shared common coin,
``Scenario(protocol="bracha", coin="dealer")`` (or ``coin="shares"`` to
reconstruct it from Shamir shares over the network).

Every engine here is a :class:`~repro.core.consensus.BinaryAgreement`,
sharing deciding, DECIDE amplification and halting with Bracha's, and a
scenario protocol (``Scenario(protocol="benor")``, ``"benor-crash"``,
``"mmr14"``): they run on the same fabrics, coin schemes, and fault
behaviors as the core protocol, assembled from the
:data:`repro.stacks.STACKS` registry and held to the same safety checks.
"""

from .benor import BenOrConsensus, BenOrCrashConsensus
from .bv_broadcast import BinaryValueBroadcast, BvDeliver
from .mmr14 import Mmr14Consensus

__all__ = [
    "BenOrConsensus",
    "BenOrCrashConsensus",
    "BinaryValueBroadcast",
    "BvDeliver",
    "Mmr14Consensus",
]
