"""The paper's contribution: Bracha's PODC 1984 protocols.

Three layers, bottom-up:

* :mod:`repro.core.broadcast` — **reliable broadcast** (INIT/ECHO/READY).
  Prevents equivocation: all correct processes accept the same value from
  any given broadcast instance, and acceptance is all-or-nothing.
* :mod:`repro.core.validation` — **message validation**.  A consensus
  message is *justified* only if a correct process could have produced it
  from ``n−t`` validated messages of the previous step.  This forces
  Byzantine processes to act like correct ones or be ignored, lifting the
  resilience from Ben-Or's ``t < n/5`` to the optimal ``t < n/3``.
* :mod:`repro.core.consensus` — the **randomized consensus protocol**:
  rounds of three steps (majority → decide-proposal → decide/adopt/coin),
  with a pluggable coin source (:mod:`repro.core.coin`) and Bracha-style
  decide amplification for halting.
"""

from .broadcast import BroadcastLayer, RbcDelivery, RbcMessage
from .coin import CoinScheme, CoinSource, DealerCoin, LocalCoin, ShareCoinProvider
from .consensus import BrachaConsensus, DecideMsg, DecisionEvent, HaltEvent
from ..sim.effects import Broadcast, Decide, Note, Outbox, Send, parse_batching
from .validation import StepValidator, justify_step

__all__ = [
    "BrachaConsensus",
    "Broadcast",
    "BroadcastLayer",
    "CoinScheme",
    "CoinSource",
    "DealerCoin",
    "Decide",
    "DecideMsg",
    "DecisionEvent",
    "HaltEvent",
    "LocalCoin",
    "Note",
    "Outbox",
    "RbcDelivery",
    "RbcMessage",
    "Send",
    "ShareCoinProvider",
    "StepValidator",
    "justify_step",
    "parse_batching",
]
