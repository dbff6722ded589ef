"""Ben-Or's randomized consensus (PODC 1983) — the pre-Bracha baseline.

Ben-Or's protocol is the first asynchronous randomized consensus: plain
point-to-point voting, two phases per round, local coins.  Against
*Byzantine* faults its resilience is only ``t < n/5`` — precisely the
gap Bracha's reliable broadcast + validation close to ``t < n/3``.

Round ``r`` (code for process ``i``; thresholds per Ben-Or's Byzantine
analysis):

* **Phase R** — send ``⟨R, r, value⟩`` to all; await ``n−t`` R-messages.
  If some bit ``v`` has more than ``(n+t)/2`` support, propose it in
  phase P; otherwise propose ``⊥`` (no preference).
* **Phase P** — send ``⟨P, r, proposal⟩``; await ``n−t`` P-messages.
  Counting non-``⊥`` proposals for a bit ``v``:

  - more than ``t`` of them with *some* agreeing value and more than
    ``(n+t)/2`` in total support → **decide v**;
  - at least ``t+1`` → adopt ``v``;
  - otherwise → flip the local coin.

Why ``t < n/5``: without broadcast, a Byzantine process can report
*different* votes to different correct processes (equivocation), and
without validation it can claim any vote regardless of history.  The
double-counting argument that keeps two correct processes from deciding
opposite values then needs ``(n+t)/2 + (n+t)/2 − n > 2t``, i.e.
``n > 5t``.  The comparison harness runs this implementation both inside
(``n > 5t``) and outside (``3t < n ≤ 5t``) its envelope; the T5
experiment shows the two-faced adversary inducing disagreement or
stalls outside it, while Bracha's protocol shrugs the same attack off.

The implementation mirrors :class:`~repro.core.consensus.BrachaConsensus`'s
engineering (monotone upon-rules over cumulative vote sets, decide
amplification for halting) so that measured differences are due to the
*protocol*, not the plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.coin import CoinSource
from ..sim.process import ProtocolModule
from ..types import BINARY_VALUES, Bit, ProcessId, Round, valid_round


@dataclass(frozen=True)
class RVote:
    """Phase-R report of the current estimate."""

    round: Round
    bit: Bit


@dataclass(frozen=True)
class PVote:
    """Phase-P proposal; ``bit is None`` encodes ⊥ (no majority seen)."""

    round: Round
    bit: Optional[Bit]


@dataclass(frozen=True)
class BenOrDecide:
    """Decide-amplification message."""

    bit: Bit


class BenOrConsensus(ProtocolModule):
    """One Ben-Or instance at one process.

    Interface mirrors :class:`~repro.core.consensus.BrachaConsensus`:
    ``propose``, ``decided``/``decision``/``decision_round``, ``stats``,
    and DECIDE-based halting, so the two are drop-in comparable in the
    harness.
    """

    MODULE_ID = "benor"

    def __init__(self, coin: CoinSource, module_id: str = MODULE_ID):
        super().__init__(module_id)
        self.coin = coin
        self.round: Round = 0
        self.phase: str = "R"  # "R" or "P"
        self.value: Optional[Bit] = None
        self.proposal: Optional[Bit] = None

        # votes[(round, phase)][sender] = bit (or None for ⊥ in phase P)
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

    # -- thresholds -------------------------------------------------------

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

    def _super_majority(self) -> int:
        """Strictly more than (n+t)/2 — Ben-Or's Byzantine majority."""
        return (self._n + self._t) // 2 + 1

    # -- lifecycle ----------------------------------------------------------

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
        self.phase = "R"
        self.stats["rounds"] = max(self.stats["rounds"], round_)
        self.ctx.broadcast(RVote(round_, self.value))
        if round_ not in self._coin_requested:
            self._coin_requested.add(round_)
            self.coin.request(round_, self._on_coin)

    # -- message handling --------------------------------------------------

    def on_message(self, sender: ProcessId, payload: object) -> None:
        if self._halted:
            return
        if (isinstance(payload, RVote) and payload.bit in BINARY_VALUES
                and valid_round(payload.round)):
            self._record(("R", payload.round), sender, payload.bit)
        elif (isinstance(payload, PVote) and payload.bit in (None, 0, 1)
                and valid_round(payload.round)):
            self._record(("P", payload.round), sender, payload.bit)
        elif isinstance(payload, BenOrDecide) and payload.bit in BINARY_VALUES:
            if sender not in self._decide_votes:
                self._decide_votes[sender] = payload.bit
                self._check_decide_votes()
            return
        else:
            return
        self._progress()

    def _record(self, key: tuple, sender: ProcessId, bit: Optional[Bit]) -> None:
        votes = self._votes.setdefault(key, {})
        if sender not in votes:  # first vote per sender per phase counts
            votes[sender] = bit

    def _on_coin(self, round_: Round, bit: Bit) -> None:
        self._coin_values[round_] = bit
        self._progress()

    # -- the protocol -----------------------------------------------------

    def _progress(self) -> None:
        if self._halted or self.round == 0:
            return
        while self._advance():
            pass

    def _advance(self) -> bool:
        if self._halted or self.proposal is None:
            return False
        if self.phase == "R":
            return self._finish_phase_r()
        return self._finish_phase_p()

    def _finish_phase_r(self) -> bool:
        votes = self._votes.get(("R", self.round), {})
        if len(votes) < self._quorum():
            return False
        counts = {0: 0, 1: 0}
        for bit in votes.values():
            if bit in BINARY_VALUES:
                counts[bit] += 1
        proposal: Optional[Bit] = None
        for bit in BINARY_VALUES:
            if counts[bit] >= self._super_majority():
                proposal = bit
        assert self.ctx is not None
        self.phase = "P"
        self.ctx.broadcast(PVote(self.round, proposal))
        return True

    def _finish_phase_p(self) -> bool:
        votes = self._votes.get(("P", self.round), {})
        if len(votes) < self._quorum():
            return False
        counts = {0: 0, 1: 0}
        for bit in votes.values():
            if bit in BINARY_VALUES:
                counts[bit] += 1
        top_bit: Bit = 0 if counts[0] >= counts[1] else 1
        top = counts[top_bit]
        if counts[0] and counts[1]:
            # Correct processes cannot propose both bits in one round
            # when n > 5t; seeing both is evidence of equivocation that
            # this protocol, unlike Bracha's, cannot filter out.
            self.invariant_flags.append(
                f"conflicting P-proposals in round {self.round}"
            )
        if top >= self._super_majority():
            self._decide(top_bit, self.round)
            next_bit = top_bit
        elif top >= self._t + 1:
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

    # -- deciding and halting ----------------------------------------------

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
        self.ctx.note(f"ben-or decide {bit} in round {round_}")
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
        for bit in BINARY_VALUES:
            if counts[bit] >= self._t + 1 and not self._sent_decide:
                self._sent_decide = True
                self.ctx.broadcast(BenOrDecide(bit))
        for bit in BINARY_VALUES:
            if counts[bit] >= 2 * self._t + 1:
                self._decide(bit, self.round)
                self._halted = True
                return

    @property
    def halted(self) -> bool:
        return self._halted
