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

Ben-Or's paper gives a second protocol, for ``t < n/2`` *crash* faults
(processes stop, but never lie): the same two phases with five
thresholds changed — :class:`BenOrCrashConsensus`.

Deciding, DECIDE amplification and halting are the
:class:`~repro.core.consensus.BinaryAgreement` shell Bracha's protocol
uses too, so measured differences are due to the *protocol*, not the
plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.coin import CoinSource
from ..core.consensus import BinaryAgreement
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


Votes = Dict[ProcessId, Optional[Bit]]


def _tally(votes: Votes) -> List[int]:
    """Per-bit counts of the non-⊥ votes."""
    counts = [0, 0]
    for bit in votes.values():
        if bit in BINARY_VALUES:
            counts[bit] += 1  # type: ignore[index]
    return counts


class BenOrConsensus(BinaryAgreement):
    """One Ben-Or instance at one process (Byzantine faults, ``t < n/5``)."""

    MODULE_ID = "benor"
    DECIDE = BenOrDecide
    NOTE = "ben-or decide"

    def __init__(self, coin: CoinSource, module_id: str = MODULE_ID):
        super().__init__(module_id, coin)
        self.phase: str = "R"  # "R" or "P"
        self.value: Optional[Bit] = None
        # votes[(phase, round)][sender] = bit (or None for ⊥ in phase P)
        self._votes: Dict[tuple, Votes] = {}

    # -- thresholds (Ben-Or's Byzantine analysis) ----------------------------

    def _super_majority(self) -> int:
        """Strictly more than (n+t)/2."""
        return (self.params.n + self.params.t) // 2 + 1

    def propose_at(self) -> int:
        """R reports for one bit that make it the P proposal."""
        return self._super_majority()

    def decide_at(self) -> int:
        """P proposals for one bit that decide it."""
        return self._super_majority()

    def adopt_at(self) -> int:
        """P proposals for one bit that make it the next estimate."""
        return self.params.t + 1

    # -- rounds ---------------------------------------------------------------

    def _begin(self, bit: Bit) -> None:
        self.value = bit
        self._enter_round(1)

    def _enter_round(self, round_: Round) -> None:
        assert self.ctx is not None and self.value is not None
        self.round = round_
        self.phase = "R"
        self.stats["rounds"] = max(self.stats["rounds"], round_)
        self.ctx.broadcast(RVote(round_, self.value))
        self._request_coin(round_)

    def on_message(self, sender: ProcessId, payload: object) -> None:
        if self._halted:
            return
        if (isinstance(payload, RVote) and payload.bit in BINARY_VALUES
                and valid_round(payload.round)):
            key: tuple = ("R", payload.round)
        elif (isinstance(payload, PVote) and payload.bit in (None, 0, 1)
                and valid_round(payload.round)):
            key = ("P", payload.round)
        else:
            super().on_message(sender, payload)  # DECIDE, or garbage
            return
        # The first vote per sender per phase counts.
        self._votes.setdefault(key, {}).setdefault(sender, payload.bit)
        self._progress()

    def _progress(self) -> None:
        if self.round == 0:
            return
        while not self._halted and self._advance():
            pass

    def _advance(self) -> bool:
        votes = self._votes.get((self.phase, self.round), {})
        if len(votes) < self.params.step_quorum:
            return False
        counts = _tally(votes)
        if self.phase == "R":
            proposal: Optional[Bit] = None
            for bit in BINARY_VALUES:
                if counts[bit] >= self.propose_at():
                    proposal = bit
            assert self.ctx is not None
            self.phase = "P"
            self.ctx.broadcast(PVote(self.round, proposal))
            return True
        if counts[0] and counts[1]:
            # Correct processes cannot propose both bits in one round
            # inside the fault model; seeing both is evidence of
            # equivocation that this protocol, unlike Bracha's, cannot
            # filter out.
            self.invariant_flags.append(
                f"conflicting P-proposals in round {self.round}"
            )
        top_bit: Bit = 0 if counts[0] >= counts[1] else 1
        top = counts[top_bit]
        if top >= self.decide_at():
            self._decide(top_bit, self.round)
            next_bit = top_bit
        elif top >= self.adopt_at():
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


class BenOrCrashConsensus(BenOrConsensus):
    """Ben-Or's crash-fault protocol: ``t < n/2``, benign faults only.

    The lower anchor of the comparison suite — no broadcast, no
    validation, and against Byzantine behavior no guarantees whatsoever.
    Phase R proposes ``v`` on a strict majority of *all* processes
    (``> n/2``); phase P decides ``v`` on more than ``t`` proposals and
    adopts it on one.  Two non-⊥ proposals in a round agree because two
    ``> n/2`` report sets intersect; a decision on ``> t`` proposals
    means every other process received at least one of them (only ``t``
    processes can be missing from its quorum) and adopted ``v``, so the
    next round is unanimous.  Nobody lies, so one DECIDE is proof enough
    to relay, and ``t+1`` guarantee that a decider's message survives
    any crash set.
    """

    MODULE_ID = "benor-crash"
    NOTE = "ben-or-crash decide"

    def __init__(self, coin: CoinSource, module_id: str = MODULE_ID):
        super().__init__(coin, module_id)

    def propose_at(self) -> int:
        return self.params.majority

    def decide_at(self) -> int:
        return self.params.t + 1

    def adopt_at(self) -> int:
        return 1

    def relay_at(self) -> int:
        return 1

    def halt_at(self) -> int:
        return self.params.t + 1
