"""Bracha's randomized Byzantine consensus (PODC 1984).

One protocol instance decides a single bit among ``n`` processes of which
at most ``t < n/3`` are Byzantine, over asynchronous authenticated links,
using reliable broadcast + validation + a coin:

Round ``r`` (code for process ``i``, ``value`` is the current estimate):

* **Step 1** — reliably broadcast ``(r, 1, value)``; collect ``n−t``
  *validated* step-1 messages; ``value ←`` their majority bit.
* **Step 2** — broadcast ``(r, 2, value)``; collect ``n−t`` validated
  step-2 messages; if some bit holds a ``> n/2`` majority, mark the value
  as a *decide proposal* ``(d, v)``.
* **Step 3** — broadcast ``(r, 3, value)``; collect ``n−t`` validated
  step-3 messages; let ``c`` be the count of decide proposals ``(d, v)``:

  - ``c ≥ 2t+1`` → **decide v** (and keep participating with ``v``);
  - ``c ≥ t+1``  → ``value ← v``;
  - otherwise    → ``value ←`` the round-``r`` coin.

Safety hinges on two facts proved in :mod:`repro.core.validation`:
decide proposals within a round are unique, and unanimity among correct
processes, once reached, is preserved forever.  Termination: if anyone
decides ``v`` in round ``r``, every ``n−t`` step-3 set contains at least
``t+1`` of the ``2t+1`` proposals, so *every* correct process adopts
``v`` and round ``r+1`` is unanimous; before that, each round ends
unanimous with probability at least ``2^{−(n−t)}`` with local coins (at
least ``1/2`` with a common coin), so the expected number of rounds is
finite (constant with a common coin).

Two deliberate engineering choices beyond the bare paper text:

* **Monotone decide rule.**  The decide check runs over the *cumulative*
  validated step-3 set of every round, not just the first ``n−t``
  messages — deciding is stable, so acting on late-arriving evidence is
  safe and removes a classic starvation scenario for slow processes.
* **Decide amplification & halting** (in the spirit of the paper's own
  broadcast amplification): deciders send ``DECIDE v`` to all; ``t+1``
  matching ``DECIDE``s trigger a relay, ``2t+1`` allow halting.  A
  decided process keeps participating with its value pinned until it may
  halt, so laggards are never starved of step quorums; once any correct
  process halts, at least ``t+1`` correct ``DECIDE``s are in flight and
  every correct process eventually reaches the halting quorum.

Everything outside the round rules — the outcome, the coin request,
deciding, DECIDE amplification and halting — is :class:`BinaryAgreement`,
the shell the Ben-Or and MMR-14 baselines share with this protocol, so
that measured differences between them are differences of round rules.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..params import ProtocolParams
from ..types import (
    Bit, BINARY_VALUES, ProcessId, Round, Step, StepValue, valid_round,
)
from ..sim.process import ProtocolModule
from .broadcast import BroadcastLayer, RbcDelivery
from .coin import CoinSource


@dataclass(frozen=True)
class DecideMsg:
    """Decide-amplification message (sent over plain authenticated links)."""

    bit: Bit


@dataclass(frozen=True)
class DecisionEvent:
    """Upcall emitted exactly once when this process decides."""

    pid: ProcessId
    bit: Bit
    round: Round


@dataclass(frozen=True)
class HaltEvent:
    """Upcall emitted when the instance reaches its halting quorum."""

    pid: ProcessId


class BinaryAgreement(ProtocolModule):
    """What every binary-agreement engine shares, written once.

    The shell holds the outcome (``decided`` / ``decision`` /
    ``decision_round``, ``stats``, ``invariant_flags``), rejects a
    second or non-bit ``propose``, requests each round's coin once, and
    runs deciding, DECIDE amplification and halting: a decider sends
    ``DECIDE v`` to all, ``relay_at()`` matching DECIDEs (default
    ``t+1``: one correct decider) make a process relay, and
    ``halt_at()`` (default ``2t+1``) make it decide and halt.  A decided
    process keeps running rounds with its value pinned until it halts,
    so laggards are never starved of quorums.

    An engine supplies its round rules: ``_begin(bit)`` starts round 1,
    ``_progress()`` runs its upon-rules to fixpoint (again whenever a
    coin arrives), ``DECIDE`` is its amplification message type and
    ``NOTE`` the event-log label of its decisions; it overrides
    ``relay_at`` / ``halt_at`` when its fault model differs.
    """

    #: The engine's DECIDE wire type, built as ``DECIDE(bit)``.
    DECIDE: type
    #: Event-log label of a decision: ``"<NOTE> <bit> in round <r>"``.
    NOTE: str
    #: False removes DECIDE amplification and halting (an ablation).
    amplify_decides = True

    def __init__(self, module_id: str, coin: CoinSource):
        super().__init__(module_id)
        self.coin = coin
        self.round: Round = 0  # 0 = not proposed yet
        self.proposal: Optional[Bit] = None

        self.decided = False
        self.decision: Optional[Bit] = None
        self.decision_round: Round = 0
        self.stats = {"rounds": 0, "coin_flips": 0, "adoptions": 0}
        self.invariant_flags: list[str] = []

        self._coin_values: Dict[Round, Bit] = {}
        self._coin_requested: set[Round] = set()
        self._sent_decide = False
        self._decide_votes: Dict[ProcessId, Bit] = {}
        self._halted = False

    @property
    def params(self) -> ProtocolParams:
        assert self.ctx is not None
        return self.ctx.params

    def propose(self, bit: Bit) -> None:
        """Start the protocol with input ``bit``."""
        if bit not in BINARY_VALUES:
            raise ValueError(f"can only propose 0 or 1, got {bit!r}")
        if self.proposal is not None:
            raise RuntimeError("propose() called twice")
        self.proposal = bit
        self._begin(bit)

    @abc.abstractmethod
    def _begin(self, bit: Bit) -> None:
        """Enter round 1 with estimate ``bit``."""

    @abc.abstractmethod
    def _progress(self) -> None:
        """Run every applicable upon-rule to fixpoint."""

    def on_message(self, sender: ProcessId, payload: object) -> None:
        if isinstance(payload, self.DECIDE):
            self._on_decide_vote(sender, payload.bit)  # type: ignore[attr-defined]

    # -- the coin -----------------------------------------------------------

    def _request_coin(self, round_: Round) -> None:
        """Ask for the round-``round_`` coin, once per round."""
        if round_ not in self._coin_requested:
            self._coin_requested.add(round_)
            self.coin.request(round_, self._on_coin)

    def _on_coin(self, round_: Round, bit: Bit) -> None:
        self._coin_values[round_] = bit
        self._progress()

    # -- deciding and halting ----------------------------------------------

    def relay_at(self) -> int:
        """Matching DECIDEs proving a correct decider: ``t+1``."""
        return self.params.adopt_threshold

    def halt_at(self) -> int:
        """Matching DECIDEs that let this process decide and halt: ``2t+1``."""
        return self.params.decide_quorum

    def _on_decide_vote(self, sender: ProcessId, bit: object) -> None:
        """Count the first DECIDE from each sender.

        A bit must be an ``int`` (a ``bool`` is one): ``0.0 == 0`` passes
        the membership test but cannot index the vote counts.
        """
        if (isinstance(bit, int) and bit in BINARY_VALUES
                and sender not in self._decide_votes):
            self._decide_votes[sender] = bit  # type: ignore[assignment]
            self._check_decide_votes()

    def _send_decide(self, bit: Bit) -> None:
        if self.amplify_decides and not self._sent_decide:
            self._sent_decide = True
            assert self.ctx is not None
            self.ctx.broadcast(self.DECIDE(bit))

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
        self.ctx.note(f"{self.NOTE} {bit} in round {round_}")
        self.ctx.decide(bit, round=round_)
        self.emit(DecisionEvent(self.ctx.pid, bit, round_))
        self._send_decide(bit)
        self._check_decide_votes()

    def _check_decide_votes(self) -> None:
        if self._halted or not self.amplify_decides:
            return
        counts = [0, 0]
        for bit in self._decide_votes.values():
            counts[bit] += 1
        relay, halt = self.relay_at(), self.halt_at()
        for bit in BINARY_VALUES:
            if counts[bit] >= relay:
                # At least one correct process decided `bit`; relaying is
                # safe and lets everyone reach the halting quorum.
                self._send_decide(bit)
        for bit in BINARY_VALUES:
            if counts[bit] >= halt:
                self._decide(bit, self.round)
                self._halt()
                return

    def _halt(self) -> None:
        """Stop participating entirely (safe: a halting quorum exists)."""
        self._halted = True

    @property
    def halted(self) -> bool:
        return self._halted


class BrachaConsensus(BinaryAgreement):
    """One binary-consensus instance at one process.

    Args:
        broadcast: the process's reliable-broadcast layer; the consensus
            module subscribes to its acceptances and filters its own
            instances (tagged with ``module_id``).
        coin: the per-process coin source.
        module_id: distinguishes concurrent consensus instances (the ACS
            application runs ``n`` of them over one broadcast layer).
        validate: set False to replace the justification machinery with a
            permissive stub — an ABLATION switch for the experiments that
            demonstrate why validation is load-bearing.  Never disable it
            in real use.
        amplify_decides: set False to disable the DECIDE amplification /
            halting layer — the textbook protocol, which runs rounds
            forever.  Also an ablation switch.

    Outputs: the :class:`BinaryAgreement` outcome and
    :class:`DecisionEvent` upcall, plus a :class:`HaltEvent` on halting.
    """

    MODULE_ID = "bracha"
    DECIDE = DecideMsg
    NOTE = "decide"

    def __init__(
        self,
        broadcast: BroadcastLayer,
        coin: CoinSource,
        module_id: str = MODULE_ID,
        validate: bool = True,
        amplify_decides: bool = True,
    ):
        super().__init__(module_id, coin)
        # Import here to avoid a cycle at package-load time.
        from .validation import PermissiveValidator, StepValidator

        self._validator_cls = StepValidator if validate else PermissiveValidator
        self.amplify_decides = amplify_decides
        self.broadcast_layer = broadcast
        broadcast.subscribe(self._on_rbc, tag=module_id)

        self.validator: Optional["StepValidator"] = None
        self.step: Step = Step.ONE
        self.value: Optional[StepValue] = None
        #: Estimate held on entering each round: {round: bit}.  Drives the
        #: convergence-dynamics figure (F5) and is handy when debugging.
        self.round_history: Dict[Round, Bit] = {}

    # -- lifecycle ----------------------------------------------------------

    def bind(self, ctx) -> None:  # type: ignore[override]
        super().bind(ctx)
        self.validator = self._validator_cls(ctx.params)

    def _begin(self, bit: Bit) -> None:
        self.value = StepValue(bit)
        self._enter(1, Step.ONE)
        self._progress()

    # -- message plumbing ---------------------------------------------------

    def _instance(self, round_: Round, step: Step, originator: ProcessId):
        return (self.module_id, round_, int(step), originator)

    def _on_rbc(self, delivery: RbcDelivery) -> None:
        """Filter and ingest reliable-broadcast acceptances."""
        instance = delivery.instance
        if not (isinstance(instance, tuple) and len(instance) == 4):
            return
        tag, round_, step_no, origin = instance
        if tag != self.module_id:
            return  # another protocol's broadcast
        if origin != delivery.originator:
            return  # instance name forged by a non-originator
        if not valid_round(round_):
            return
        if step_no not in (1, 2, 3):
            return
        value = delivery.value
        if not isinstance(value, StepValue) or value.bit not in BINARY_VALUES:
            return
        step = Step(step_no)
        if value.decide and step is not Step.THREE:
            return  # decide marks exist only in step 3
        assert self.validator is not None
        changed = self.validator.add(round_, step, origin, value)
        if changed:  # nothing newly validated, nothing new to act on
            self._progress([r for r, s in changed if s is Step.THREE])

    # -- the protocol -----------------------------------------------------

    def _enter(self, round_: Round, step: Step) -> None:
        """Broadcast this process's message for (round, step)."""
        assert self.ctx is not None and self.value is not None
        self.round = round_
        self.step = step
        self.stats["rounds"] = max(self.stats["rounds"], round_)
        if step is Step.ONE:
            self.round_history[round_] = self.value.bit
        payload = self.value if step is Step.THREE else self.value.plain()
        self.broadcast_layer.broadcast(
            self._instance(round_, step, self.ctx.pid), payload
        )
        if step is Step.THREE:
            self._request_coin(round_)

    def _progress(self, rounds: Optional[Iterable[Round]] = None) -> None:
        """Run every applicable upon-rule to fixpoint.

        ``rounds`` are the rounds whose validated step-3 set just grew —
        the only ones where the monotone decide rule can newly fire;
        ``None`` (at ``propose``, which may follow acceptances nothing
        has looked at yet) scans every round seen.  Step transitions do
        not touch the validated sets, so one check per call is enough.
        """
        if self._halted or self.validator is None or self.round == 0:
            return
        self._check_monotone_decide(rounds)
        while not self._halted and self._advance_step():
            pass

    def _step_set(self) -> Optional[Dict[ProcessId, StepValue]]:
        """The first ``n−t`` validated messages of the current position.

        Transitions consume exactly a step quorum, as in the paper; the
        validated dict preserves insertion order, so the choice is the
        deterministic prefix of what this process validated first.
        """
        assert self.validator is not None
        validated = self.validator.validated(self.round, self.step)
        quorum = self.params.step_quorum
        if len(validated) < quorum:
            return None
        items = list(validated.items())[:quorum]
        return dict(items)

    def _advance_step(self) -> bool:
        """Fire one step transition if its guard holds; True if fired."""
        snapshot = self._step_set()
        if snapshot is None:
            return False
        if self.step is Step.ONE:
            self.value = StepValue(self._majority_bit(snapshot))
            self._enter(self.round, Step.TWO)
            return True
        if self.step is Step.TWO:
            self.value = self._step_two_value(snapshot)
            self._enter(self.round, Step.THREE)
            return True
        return self._finish_round(snapshot)

    def _majority_bit(self, snapshot: Dict[ProcessId, StepValue]) -> Bit:
        ones = sum(1 for v in snapshot.values() if v.bit == 1)
        zeros = len(snapshot) - ones
        if ones == zeros:
            # Only possible when n−t is even (non-optimal configurations);
            # keep the current estimate for determinism.
            assert self.value is not None
            return self.value.bit
        return 1 if ones > zeros else 0

    def _step_two_value(self, snapshot: Dict[ProcessId, StepValue]) -> StepValue:
        assert self.value is not None
        for bit in BINARY_VALUES:
            count = sum(1 for v in snapshot.values() if v.bit == bit)
            if count >= self.params.majority:
                return StepValue(bit, decide=True)
        return StepValue(self.value.bit)

    def _finish_round(self, snapshot: Dict[ProcessId, StepValue]) -> bool:
        """Step-3 transition: decide / adopt / coin, then next round."""
        d_counts = {0: 0, 1: 0}
        for v in snapshot.values():
            if v.decide:
                d_counts[v.bit] += 1
        if d_counts[0] and d_counts[1]:
            # Provably impossible while the fault bound holds; recorded
            # so over-resilience experiments can observe the breakage.
            self.invariant_flags.append(
                f"conflicting decide proposals in round {self.round}"
            )
        top_bit: Bit = 0 if d_counts[0] >= d_counts[1] else 1
        top = d_counts[top_bit]
        if top >= self.params.decide_quorum:
            self._decide(top_bit, self.round)
            next_bit = top_bit
        elif top >= self.params.adopt_threshold:
            next_bit = top_bit
            self.stats["adoptions"] += 1
        else:
            coin = self._coin_values.get(self.round)
            if coin is None:
                return False  # wait for the coin; re-fired on its arrival
            self.stats["coin_flips"] += 1
            next_bit = coin
        if self.decided and self.decision is not None:
            next_bit = self.decision  # pinned participation after deciding
        self.value = StepValue(next_bit)
        self._enter(self.round + 1, Step.ONE)
        return True

    # -- deciding and halting ----------------------------------------------

    def _check_monotone_decide(self, rounds: Optional[Iterable[Round]]) -> None:
        """Decide on cumulative evidence: ``2t+1`` validated decide
        proposals for one bit in any of ``rounds`` (``None``: all)."""
        if self.decided or self.validator is None:
            return
        if rounds is None:
            rounds = self.validator.rounds_seen()
        for round_ in rounds:
            support = self.validator.decide_support(round_)
            for bit in BINARY_VALUES:
                if support[bit] >= self.params.decide_quorum:
                    self._decide(bit, round_)
                    return

    def _halt(self) -> None:
        # Guarded: halting from inside _decide's own vote check returns
        # here twice, and the note and upcall must appear once.
        if self._halted:
            return
        super()._halt()
        assert self.ctx is not None
        self.ctx.note(f"halt after deciding {self.decision}")
        self.emit(HaltEvent(self.ctx.pid))
