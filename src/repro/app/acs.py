"""Asynchronous common subset (ACS) from reliable broadcast + n × ABA.

The construction (Ben-Or–Kemme–Rabin style, popularized by
HoneyBadgerBFT) agrees on a set of at least ``n−t`` proposals:

1. Every process reliably broadcasts its proposal (instance tagged with
   its pid).
2. For each proposer ``j`` there is one binary-agreement instance
   ``ABA_j`` deciding "is j's proposal in the set?".  A process inputs
   ``1`` to ``ABA_j`` when it accepts j's broadcast.
3. Once ``n−t`` agreements have decided ``1``, the process inputs ``0``
   to every agreement it has not yet voted in (without this rule a
   faulty proposer that never broadcasts would block its ABA forever).
4. When all ``n`` agreements have decided, the output is the set of
   ``j`` with ``ABA_j = 1``, paired with their (eventually accepted —
   totality) proposals, in pid order.

Properties: all correct processes output the same set (ABA agreement +
broadcast consistency); the set has at least ``n−t`` elements; every
element was proposed by its proposer (broadcast integrity); and at most
``t`` of its elements come from faulty processes.

Each process runs one :class:`AcsInstance`, which installs ``n``
:class:`~repro.core.consensus.BrachaConsensus` modules (sharing the
process's broadcast layer) and coordinates them.  The binary agreements
are the paper's own protocol — this module is the "what is it good for"
demonstration of the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..core.broadcast import BroadcastLayer, RbcDelivery
from ..core.coin import CoinScheme
from ..core.consensus import BrachaConsensus, DecisionEvent
from ..sim.process import Process
from ..types import ProcessId

CoinFactory = Callable[[int], CoinScheme]
"""Maps an agreement index ``j`` to the coin scheme its ABA should use —
independent randomness per parallel instance."""


@dataclass(frozen=True)
class AcsOutput:
    """The agreed common subset: ``{proposer pid: proposal}``, pid-sorted."""

    epoch: int
    proposals: tuple  # tuple of (pid, payload), ascending pid

    @property
    def pids(self) -> tuple:
        return tuple(pid for pid, _payload in self.proposals)

    def payloads(self) -> list:
        return [payload for _pid, payload in self.proposals]


class AcsInstance:
    """One ACS epoch at one process.

    Args:
        process: the hosting process (its broadcast layer is shared).
        rbc: the process's broadcast layer.
        coin_factory: per-agreement coin schemes.
        epoch: namespace tag so repeated epochs coexist.
        on_output: callback invoked once with the :class:`AcsOutput`.
    """

    def __init__(
        self,
        process: Process,
        rbc: BroadcastLayer,
        coin_factory: CoinFactory,
        epoch: int = 0,
        on_output: Optional[Callable[[AcsOutput], None]] = None,
    ):
        self.process = process
        self.rbc = rbc
        self.epoch = epoch
        self.n = process.params.n
        self.params = process.params
        self.on_output = on_output

        self.proposals: Dict[ProcessId, Any] = {}
        self.decisions: Dict[int, int] = {}
        self.output: Optional[AcsOutput] = None

        self.abas: Dict[int, BrachaConsensus] = {}
        for j in range(self.n):
            coin_source = coin_factory(j).attach(process)
            aba = BrachaConsensus(
                rbc, coin_source, module_id=f"acs{epoch}-aba{j}"
            )
            process.add_module(aba)
            aba.subscribe(self._make_aba_listener(j))
            self.abas[j] = aba
        rbc.subscribe(self._on_rbc)

    # -- inputs -------------------------------------------------------------

    def propose(self, payload: Any) -> None:
        """Broadcast this process's proposal for the epoch."""
        self.rbc.broadcast(("acs-prop", self.epoch, self.process.pid), payload)

    # -- plumbing ------------------------------------------------------------

    def _on_rbc(self, delivery: RbcDelivery) -> None:
        instance = delivery.instance
        if not (isinstance(instance, tuple) and len(instance) == 3):
            return
        tag, epoch, proposer = instance
        if tag != "acs-prop" or epoch != self.epoch:
            return
        if proposer != delivery.originator:
            return
        if not (isinstance(proposer, int) and 0 <= proposer < self.n):
            return
        if proposer in self.proposals:
            return
        self.proposals[proposer] = delivery.value
        aba = self.abas[proposer]
        if aba.proposal is None:
            aba.propose(1)
        self._maybe_output()

    def _make_aba_listener(self, j: int) -> Callable[[Any], None]:
        def listener(event: Any) -> None:
            if isinstance(event, DecisionEvent):
                self._on_aba_decision(j, event.bit)

        return listener

    def _on_aba_decision(self, j: int, bit: int) -> None:
        if j in self.decisions:
            return
        self.decisions[j] = bit
        ones = sum(1 for b in self.decisions.values() if b == 1)
        if ones >= self.params.step_quorum:
            # Enough agreements succeeded: refuse the stragglers so every
            # ABA eventually terminates even if its proposer never spoke.
            for k, aba in self.abas.items():
                if aba.proposal is None:
                    aba.propose(0)
        self._maybe_output()

    def _maybe_output(self) -> None:
        if self.output is not None:
            return
        if len(self.decisions) < self.n:
            return
        accepted = [j for j in range(self.n) if self.decisions[j] == 1]
        # Totality: each accepted proposal will arrive; wait until it has.
        if any(j not in self.proposals for j in accepted):
            return
        self.output = AcsOutput(
            self.epoch,
            tuple((j, self.proposals[j]) for j in accepted),
        )
        if self.on_output is not None:
            self.on_output(self.output)

    # -- queries --------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.output is not None
