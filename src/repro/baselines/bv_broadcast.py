"""Binary-value broadcast — the MMR-2014 primitive.

Binary-value broadcast (BV-broadcast) is the descendant of Bracha's
reliable broadcast specialized to binary values: rather than agreeing on
*which value a particular sender sent*, all correct processes converge
on a *set* of binary values (one or both) such that every delivered
value was broadcast by at least one correct process.

Per round, code for process *i*:

1. ``bv-broadcast(b)``: send ``⟨VALUE, b⟩`` to all.
2. On ``⟨VALUE, b⟩`` from ``t+1`` distinct senders, if we have not sent
   ``⟨VALUE, b⟩`` ourselves: send it (amplification — at least one
   correct process vouches for ``b``).
3. On ``⟨VALUE, b⟩`` from ``2t+1`` distinct senders: deliver ``b`` into
   the local ``bin_values`` set.

Properties (for ``t < n/3``): **justification** — a delivered value was
broadcast by a correct process; **uniformity** — if a correct process
delivers ``b``, every correct process eventually delivers ``b``;
**obligation** — if ``t+1`` correct processes broadcast ``b``, everyone
delivers ``b``.  Note the *non-deterministic termination*: the set may
end up holding one value or both.

Cost: ``O(n²)`` messages per round *total* — versus ``O(n³)`` for a
round of Bracha's protocol, which runs ``n`` full reliable broadcasts.
That factor-``n`` saving is the headline of the modern descendants and
is measured in ``benchmarks/bench_f3_baselines.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from ..sim.process import ProtocolModule
from ..types import BINARY_VALUES, Bit, ProcessId, Round, valid_round


@dataclass(frozen=True)
class BvValue:
    """Wire format: a VALUE message for one (tagged) round."""

    round: Round
    bit: Bit


@dataclass(frozen=True)
class BvDeliver:
    """Upcall: ``bit`` entered ``bin_values`` for ``round``."""

    round: Round
    bit: Bit


class BinaryValueBroadcast(ProtocolModule):
    """Multi-round BV-broadcast (one module handles every round's instance)."""

    MODULE_ID = "bv"

    def __init__(self, module_id: str = MODULE_ID):
        super().__init__(module_id)
        self._seen: Dict[Round, Dict[Bit, Set[ProcessId]]] = {}
        self._sent: Dict[Round, Set[Bit]] = {}
        self._delivered: Dict[Round, Set[Bit]] = {}

    # -- API ---------------------------------------------------------------

    def broadcast(self, round_: Round, bit: Bit) -> None:
        """``bv-broadcast(bit)`` for the given round."""
        if bit not in BINARY_VALUES:
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self._send_once(round_, bit)

    def bin_values(self, round_: Round) -> Set[Bit]:
        """The delivered value set for ``round_`` (grows over time)."""
        return set(self._delivered.get(round_, set()))

    # -- internals ---------------------------------------------------------

    def _send_once(self, round_: Round, bit: Bit) -> None:
        sent = self._sent.setdefault(round_, set())
        if bit in sent:
            return
        sent.add(bit)
        assert self.ctx is not None
        self.ctx.broadcast(BvValue(round_, bit))

    def on_message(self, sender: ProcessId, payload: object) -> None:
        if not isinstance(payload, BvValue) or payload.bit not in BINARY_VALUES:
            return
        if not valid_round(payload.round):
            return
        supporters = self._seen.setdefault(payload.round, {}).setdefault(
            payload.bit, set()
        )
        if sender in supporters:
            return
        supporters.add(sender)
        assert self.ctx is not None
        params = self.ctx.params
        if len(supporters) >= params.t + 1:
            self._send_once(payload.round, payload.bit)
        if len(supporters) >= 2 * params.t + 1:
            delivered = self._delivered.setdefault(payload.round, set())
            if payload.bit not in delivered:
                delivered.add(payload.bit)
                self.emit(BvDeliver(payload.round, payload.bit))
