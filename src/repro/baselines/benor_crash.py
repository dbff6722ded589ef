"""Ben-Or's crash-fault protocol (PODC 1983) — the benign-fault lineage.

Ben-Or's paper gives two protocols; the better-known tolerates ``t <
n/2`` *crash* faults (processes stop, but never lie).  It is the
simplest possible randomized consensus and makes a useful lower anchor
for the comparison suite: no broadcast, no validation, no
authentication games — and, against Byzantine behavior, no guarantees
whatsoever (the Byzantine envelope shrinks to ``t < n/5``, measured in
T5/F3 on the Byzantine variant in :mod:`repro.baselines.benor`).

Round ``r``:

* **Phase R** — send ``⟨R, r, value⟩``; await ``n−t`` reports.  If a
  strict majority of *all* processes (``> n/2``) reported ``v``,
  propose ``v``, else propose ⊥.
* **Phase P** — send ``⟨P, r, proposal⟩``; await ``n−t`` proposals.
  If some ``v`` has more than ``t`` proposals: **decide v**.  If it has
  at least one: adopt ``v``.  Else: flip the coin.

Safety sketch (crash faults only): two non-⊥ proposals in a round agree
because two ``> n/2`` report sets intersect; a decision with ``> t``
proposals means every other process received at least one of them
(only ``t`` processes can be missing from its quorum) and adopted
``v``, so the next round is unanimous.

Engineering matches the other consensus modules (monotone vote sets,
decide amplification with crash-appropriate thresholds ``1``/``t+1``),
so the harness can drive it unmodified.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.coin import CoinSource
from ..sim.process import ProtocolModule
from ..types import BINARY_VALUES, Bit, ProcessId, Round, valid_round
from .benor import BenOrDecide, PVote, RVote


class BenOrCrashConsensus(ProtocolModule):
    """Ben-Or's crash-tolerant consensus (t < n/2, benign faults only)."""

    MODULE_ID = "benor-crash"

    def __init__(self, coin: CoinSource, module_id: str = MODULE_ID):
        super().__init__(module_id)
        self.coin = coin
        self.round: Round = 0
        self.value: Optional[Bit] = None
        self.proposal: Optional[Bit] = None

        self._votes: Dict[tuple, Dict[ProcessId, Optional[Bit]]] = {}
        self._coin_values: Dict[Round, Bit] = {}
        self._coin_requested: set[Round] = set()

        self.decided = False
        self.decision: Optional[Bit] = None
        self.decision_round: Round = 0
        self._sent_decide = False
        self._decide_votes: Dict[ProcessId, Bit] = {}
        self._halted = False

        self.stats = {"rounds": 0, "coin_flips": 0, "adoptions": 0}
        self.invariant_flags: list[str] = []

    # -- thresholds (crash model) ------------------------------------------

    @property
    def _n(self) -> int:
        assert self.ctx is not None
        return self.ctx.params.n

    @property
    def _t(self) -> int:
        assert self.ctx is not None
        return self.ctx.params.t

    def _quorum(self) -> int:
        return self._n - self._t

    def _majority(self) -> int:
        return self._n // 2 + 1

    # -- lifecycle ------------------------------------------------------------

    def propose(self, bit: Bit) -> None:
        if bit not in BINARY_VALUES:
            raise ValueError(f"can only propose 0 or 1, got {bit!r}")
        if self.proposal is not None:
            raise RuntimeError("propose() called twice")
        self.proposal = bit
        self.value = bit
        self._enter_round(1)

    def _enter_round(self, round_: Round) -> None:
        assert self.ctx is not None and self.value is not None
        self.round = round_
        self.stats["rounds"] = max(self.stats["rounds"], round_)
        self.ctx.broadcast(RVote(round_, self.value))
        if round_ not in self._coin_requested:
            self._coin_requested.add(round_)
            self.coin.request(round_, self._on_coin)

    # -- inputs ----------------------------------------------------------------

    def on_message(self, sender: ProcessId, payload: object) -> None:
        if self._halted:
            return
        if (isinstance(payload, RVote) and payload.bit in BINARY_VALUES
                and valid_round(payload.round)):
            self._votes.setdefault(("R", payload.round), {}).setdefault(
                sender, payload.bit
            )
        elif (isinstance(payload, PVote) and payload.bit in (None, 0, 1)
                and valid_round(payload.round)):
            self._votes.setdefault(("P", payload.round), {}).setdefault(
                sender, payload.bit
            )
        elif isinstance(payload, BenOrDecide) and payload.bit in BINARY_VALUES:
            if sender not in self._decide_votes:
                self._decide_votes[sender] = payload.bit
                self._check_decide_votes()
            return
        else:
            return
        self._progress()

    def _on_coin(self, round_: Round, bit: Bit) -> None:
        self._coin_values[round_] = bit
        self._progress()

    # -- the protocol -----------------------------------------------------------

    def _progress(self) -> None:
        if self._halted or self.round == 0:
            return
        while not self._halted and self._advance():
            pass

    def _phase_votes(self, phase: str) -> Optional[Dict[ProcessId, Optional[Bit]]]:
        votes = self._votes.get((phase, self.round), {})
        if len(votes) < self._quorum():
            return None
        return votes

    def _advance(self) -> bool:
        r_votes = self._phase_votes("R")
        if r_votes is None:
            return False
        # Phase P message is sent lazily, once, when R completes.
        sent_key = ("sentP", self.round)
        if sent_key not in self._votes:
            self._votes[sent_key] = {}
            counts = {0: 0, 1: 0}
            for bit in r_votes.values():
                if bit in BINARY_VALUES:
                    counts[bit] += 1
            proposal = None
            for bit in BINARY_VALUES:
                if counts[bit] >= self._majority():
                    proposal = bit
            assert self.ctx is not None
            self.ctx.broadcast(PVote(self.round, proposal))
        p_votes = self._phase_votes("P")
        if p_votes is None:
            return False
        counts = {0: 0, 1: 0}
        for bit in p_votes.values():
            if bit in BINARY_VALUES:
                counts[bit] += 1
        if counts[0] and counts[1]:
            self.invariant_flags.append(
                f"conflicting proposals in round {self.round}"
            )
        top_bit: Bit = 0 if counts[0] >= counts[1] else 1
        top = counts[top_bit]
        if top > self._t:
            self._decide(top_bit, self.round)
            next_bit = top_bit
        elif top >= 1:
            next_bit = top_bit
            self.stats["adoptions"] += 1
        else:
            coin = self._coin_values.get(self.round)
            if coin is None:
                return False
            self.stats["coin_flips"] += 1
            next_bit = coin
        if self.decided and self.decision is not None:
            next_bit = self.decision
        self.value = next_bit
        self._enter_round(self.round + 1)
        return True

    # -- deciding and halting ----------------------------------------------------

    def _decide(self, bit: Bit, round_: Round) -> None:
        if self.decided:
            if self.decision != bit:
                self.invariant_flags.append(
                    f"second decision {bit} != {self.decision}"
                )
            return
        assert self.ctx is not None
        self.decided = True
        self.decision = bit
        self.decision_round = round_
        self.ctx.note(f"ben-or-crash decide {bit} in round {round_}")
        self.ctx.decide(bit, round=round_)
        if not self._sent_decide:
            self._sent_decide = True
            self.ctx.broadcast(BenOrDecide(bit))
        self._check_decide_votes()

    def _check_decide_votes(self) -> None:
        if self._halted:
            return
        assert self.ctx is not None
        counts = {0: 0, 1: 0}
        for bit in self._decide_votes.values():
            counts[bit] += 1
        # Crash model: one DECIDE is trustworthy (nobody lies); t+1
        # guarantee that a decider's message survives any crash set.
        for bit in BINARY_VALUES:
            if counts[bit] >= 1 and not self._sent_decide:
                self._sent_decide = True
                self.ctx.broadcast(BenOrDecide(bit))
        for bit in BINARY_VALUES:
            if counts[bit] >= self._t + 1:
                self._decide(bit, self.round)
                self._halted = True
                return

    @property
    def halted(self) -> bool:
        return self._halted
