"""A scripted disagreement attack on Ben-Or beyond its resilience bound.

Ben-Or's Byzantine analysis needs ``n > 5t``.  At ``n = 4, t = 1`` the
following *admissible* asynchronous execution — every message is
eventually delivered, the faulty process only sends messages it is able
to sign — drives two correct processes to decide differently:

Cast: correct ``p0, p1`` propose 1, correct ``p2`` proposes 0, ``p3`` is
Byzantine.  Thresholds at n=4, t=1: phase quorum ``n−t = 3``,
super-majority ``> (n+t)/2`` ⟹ 3.

Round 1:

1. *R phase.*  The adversary delivers to ``p0`` and ``p1`` the reports
   ``{p0:1, p1:1, p3:1}`` — both see a super-majority and propose 1.
   To ``p2`` it delivers ``{p2:0, p0:1, p3:0}`` — no super-majority,
   ``p2`` proposes ⊥.
2. *P phase.*  To ``p0`` it delivers ``{p0:P(1), p1:P(1), p3:P(1)}`` —
   three proposals for 1: **p0 decides 1**.  To ``p1`` it delivers
   ``{p1:P(1), p2:P(⊥), p3:P(⊥)}`` — one proposal is below ``t+1 = 2``,
   so ``p1`` flips its local coin.  Likewise ``p2``.

If both coins land 0 (probability 1/4, and the adversary simply retries
the attack in later rounds otherwise — here we retry across seeds):

Round 2: ``p1`` and ``p2`` hold 0, ``p3`` plays 0 to them, and ``p0``'s
messages are delayed (asynchrony!).  Both see three reports and then
three proposals for 0 — **p1 and p2 decide 0**.  Disagreement with p0.

Why this cannot happen to Bracha's protocol: step (2) forges ``p3``'s
proposal ``P(1)`` toward ``p0`` while showing ``P(⊥)`` to others —
under reliable broadcast ``p3`` has *one* step-2 message, and under
validation a decide-proposal for 1 must be justified by a ``> n/2``
majority of *validated* step-2 messages, which does not exist.  The
same schedule played against Bracha leaves the forged message pending
forever (see ``tests/unit/test_validation.py``), and T5 measures the
contrast end to end.

The implementation below hand-delivers messages in exactly this order
(any delivery order is admissible in the asynchronous model) and reports
what happened.  The run stops once two correct processes have decided:
the messages still held back would make the execution admissible, but
no later delivery can undo a decision, so they are never delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..baselines.benor import BenOrConsensus, PVote, RVote
from ..core.coin import LocalCoin
from ..params import ProtocolParams
from ..sim.process import Process
from ..sim.rng import SplitRng
from ..types import Bit


class _ScriptNet:
    """Network double for hand-scheduling: every delivery is scripted,
    so what the processes send goes nowhere."""

    def __init__(self, seed: int):
        self.rng = SplitRng(seed)

    def register(self, process: object) -> None:  # never used here
        raise AssertionError("scripted processes are not registered")

    def send(self, source: int, dest: int, payload: object) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def trace_note(self, pid: Optional[int], detail: object) -> None:
        pass


@dataclass
class AttackReport:
    """Outcome of one scripted execution."""

    outcome: str  # "disagreement" | "coin-saved-them" | "no-decision"
    decisions: Dict[int, Optional[Bit]]
    coin_bits: Tuple[Optional[Bit], Optional[Bit]]
    flags: List[str]


def run_benor_equivocation_attack(seed: int = 0) -> AttackReport:
    """Execute the scripted attack; see the module docstring.

    Returns an :class:`AttackReport`; ``outcome == "disagreement"``
    means two correct processes decided opposite values.  The local
    coins of ``p1``/``p2`` are honest randomness the adversary cannot
    choose, so roughly a quarter of seeds succeed — exactly the paper's
    point that the adversary wins *with constant probability per round*
    and therefore eventually.
    """
    params = ProtocolParams(4, 1)
    net = _ScriptNet(seed)
    processes: Dict[int, Process] = {}
    modules: Dict[int, "BenOrConsensus"] = {}
    for pid in (0, 1, 2):
        process = Process(pid, net, params, register=False)  # type: ignore[arg-type]
        coin = LocalCoin().attach(process)
        module = BenOrConsensus(coin)
        process.add_module(module)
        processes[pid] = process
        modules[pid] = module

    def deliver(dest: int, source: int, payload: object) -> None:
        processes[dest].deliver(source, ("benor", payload))

    # --- round 1, R phase -------------------------------------------------
    modules[0].propose(1)
    modules[1].propose(1)
    modules[2].propose(0)
    for dest in (0, 1):
        deliver(dest, 0, RVote(1, 1))
        deliver(dest, 1, RVote(1, 1))
        deliver(dest, 3, RVote(1, 1))       # byzantine face "1"
    deliver(2, 2, RVote(1, 0))
    deliver(2, 0, RVote(1, 1))
    deliver(2, 3, RVote(1, 0))              # byzantine face "0"

    # --- round 1, P phase -------------------------------------------------
    deliver(0, 0, PVote(1, 1))
    deliver(0, 1, PVote(1, 1))
    deliver(0, 3, PVote(1, 1))              # forged proposal: p0 decides 1
    deliver(1, 1, PVote(1, 1))
    deliver(1, 2, PVote(1, None))
    deliver(1, 3, PVote(1, None))           # p1 falls to its coin
    deliver(2, 2, PVote(1, None))
    deliver(2, 1, PVote(1, 1))
    deliver(2, 3, PVote(1, None))           # p2 falls to its coin

    coin_bits = (modules[1].value, modules[2].value)
    if modules[1].value == 0 and modules[2].value == 0:
        # --- round 2: p0's traffic is delayed; 0 wins a forged majority ----
        for dest in (1, 2):
            deliver(dest, 1, RVote(2, 0))
            deliver(dest, 2, RVote(2, 0))
            deliver(dest, 3, RVote(2, 0))
        for dest in (1, 2):
            deliver(dest, 1, PVote(2, 0))
            deliver(dest, 2, PVote(2, 0))
            deliver(dest, 3, PVote(2, 0))   # p1 and p2 decide 0

    decisions = {pid: modules[pid].decision for pid in (0, 1, 2)}
    flags = [flag for m in modules.values() for flag in m.invariant_flags]

    decided = {bit for bit in decisions.values() if bit is not None}
    if len(decided) > 1:
        outcome = "disagreement"
    elif decided:
        outcome = "coin-saved-them"
    else:
        outcome = "no-decision"
    return AttackReport(outcome, decisions, coin_bits, flags)


def attack_success_rate(trials: int, seed: int = 0) -> Tuple[int, List[AttackReport]]:
    """Run the attack across seeds; return (#disagreements, reports)."""
    reports = [run_benor_equivocation_attack(seed + i) for i in range(trials)]
    return sum(1 for r in reports if r.outcome == "disagreement"), reports
