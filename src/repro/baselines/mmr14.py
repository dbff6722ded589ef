"""MMR-2014-style asynchronous binary agreement — the modern descendant.

Mostéfaoui, Moumen & Raynal (PODC 2014) rebuilt Bracha's round structure
around two cost-saving ideas: *binary-value broadcast* instead of ``n``
full reliable broadcasts, and a *common coin* instead of local coins.
The result is ``O(n²)`` messages per round and constant expected rounds
— the binary agreement used inside HoneyBadgerBFT.

Round ``r`` (code for process ``i``, estimate ``est``):

1. ``bv-broadcast(r, est)``; wait until the local ``bin_values(r)`` set
   becomes non-empty (it only grows).
2. For every ``b`` that enters ``bin_values(r)``: send ``⟨AUX, r, b⟩``
   to all (each bit at most once).
3. Wait for a set of ``n−t`` senders whose AUX bits are all inside
   ``bin_values(r)``; call the union of those bits ``vals``; release the
   round's common coin ``s``.
4. If ``vals == {b}``: if ``b == s`` **decide b**; either way
   ``est ← b``.  If ``vals == {0, 1}``: ``est ← s``.  Next round.

Safety mirrors Bracha's: ``vals`` singletons of different bits in one
round are impossible (two ``n−t`` sender sets intersect in a correct
process that sent one AUX bit per round... per value constraint via
``bin_values`` justification).  Termination needs the *common* coin: with
probability ½ the coin agrees with any singleton, and matching estimates
persist.

**Known caveat, documented on purpose**: under a message-reordering
adversary that observes the released coin, the PODC-2014 formulation can
be livelocked (Tholoniat & Gramoli, FRIDA 2019) — progress is only
guaranteed under a fair scheduler.  The JACM-2015 revision and later
work repair this at the cost of extra steps.  We implement the 2014
structure as the baseline: under the simulator's fair random scheduler
it terminates in constant expected rounds, and
``benchmarks/bench_f2_adversary.py`` contrasts its behavior with
Bracha's under the coin-rushing scheduler.

Deciding, DECIDE amplification and halting are the
:class:`~repro.core.consensus.BinaryAgreement` shell Bracha's protocol
uses too, so cross-protocol measurements compare protocols, not plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..core.coin import CoinSource
from ..core.consensus import BinaryAgreement
from ..types import BINARY_VALUES, Bit, ProcessId, Round, valid_round
from .bv_broadcast import BinaryValueBroadcast, BvDeliver


@dataclass(frozen=True)
class AuxMsg:
    """AUX vote: ``bit`` was bv-delivered at the sender in ``round``."""

    round: Round
    bit: Bit


@dataclass(frozen=True)
class MmrDecide:
    """Decide-amplification message."""

    bit: Bit


class Mmr14Consensus(BinaryAgreement):
    """One MMR-14 binary-agreement instance at one process."""

    MODULE_ID = "mmr14"
    DECIDE = MmrDecide
    NOTE = "mmr14 decide"

    def __init__(
        self,
        bv: BinaryValueBroadcast,
        coin: CoinSource,
        module_id: str = MODULE_ID,
    ):
        super().__init__(module_id, coin)
        self.bv = bv
        bv.subscribe(self._on_bv_deliver)
        self.est: Optional[Bit] = None
        self._aux: Dict[Round, Dict[ProcessId, Set[Bit]]] = {}
        self._aux_sent: Dict[Round, Set[Bit]] = {}

    def _begin(self, bit: Bit) -> None:
        self.est = bit
        self._enter_round(1)
        self._progress()

    def _enter_round(self, round_: Round) -> None:
        assert self.est is not None
        self.round = round_
        self.stats["rounds"] = max(self.stats["rounds"], round_)
        self.bv.broadcast(round_, self.est)

    # -- inputs ---------------------------------------------------------------

    def _on_bv_deliver(self, event: object) -> None:
        if not isinstance(event, BvDeliver):
            return
        # Every bv-delivered bit is AUX-echoed once, for the round it
        # belongs to — even past rounds, since laggards still need them.
        sent = self._aux_sent.setdefault(event.round, set())
        if event.bit not in sent:
            sent.add(event.bit)
            assert self.ctx is not None
            self.ctx.broadcast(AuxMsg(event.round, event.bit))
        self._progress()

    def on_message(self, sender: ProcessId, payload: object) -> None:
        if self._halted:
            return
        if isinstance(payload, AuxMsg) and payload.bit in BINARY_VALUES:
            if valid_round(payload.round):
                self._aux.setdefault(payload.round, {}).setdefault(
                    sender, set()
                ).add(payload.bit)
                self._progress()
        else:
            super().on_message(sender, payload)  # DECIDE, or garbage

    # -- the protocol --------------------------------------------------------

    def _progress(self) -> None:
        if self._halted or self.round == 0 or self.ctx is None:
            return
        while not self._halted and self._advance():
            pass

    def _aux_support(self, round_: Round) -> Optional[Set[Bit]]:
        """The union of AUX bits over a valid ``n−t`` sender set, if any.

        A sender counts only when *all* its AUX bits for the round are
        inside our ``bin_values`` — the justification that makes a
        Byzantine AUX for a never-broadcast value worthless.
        """
        assert self.ctx is not None
        params = self.ctx.params
        bin_values = self.bv.bin_values(round_)
        if not bin_values:
            return None
        good = {
            sender: bits
            for sender, bits in self._aux.get(round_, {}).items()
            if bits and bits <= bin_values
        }
        if len(good) < params.step_quorum:
            return None
        vals: Set[Bit] = set()
        for bits in good.values():
            vals |= bits
        return vals

    def _advance(self) -> bool:
        vals = self._aux_support(self.round)
        if vals is None:
            return False
        self._request_coin(self.round)
        coin = self._coin_values.get(self.round)
        if coin is None:
            return False
        if len(vals) == 1:
            (bit,) = vals
            if bit == coin:
                self._decide(bit, self.round)
            else:
                self.stats["adoptions"] += 1
            next_bit = bit
        else:
            self.stats["coin_flips"] += 1
            next_bit = coin
        if self.decided and self.decision is not None:
            next_bit = self.decision
        self.est = next_bit
        self._enter_round(self.round + 1)
        return True
