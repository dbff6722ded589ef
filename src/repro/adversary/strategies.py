"""Adversarial network schedulers.

The asynchronous adversary's one constraint is *eventual delivery*: it
may reorder and delay arbitrarily, but every message between correct
processes arrives in the end.  All strategies here honor that constraint
structurally — each holds disfavored messages back for at most
``holdback`` delivery steps, after which they become eligible again, and
delivers the oldest pending message (rank 0) when nothing is eligible.

Strategies:

* :class:`DelayVictimScheduler` — starves a set of victim processes,
  delivering everyone else's traffic first.  Models the "slow replica"
  worst case and stresses the decide-amplification path.
* :class:`SplitBrainScheduler` — delivers within-group traffic eagerly
  and delays cross-group traffic, simulating a near-partition.  Combined
  with a two-faced Byzantine process this is the classic attack on
  unvalidated agreement protocols.
* :class:`CoinRushScheduler` — the strong adversary of randomized
  consensus: it observes the common coin as soon as any process releases
  it (allowed by unpredictability) and then delays messages that would
  help processes converge on the coin's value.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..core.coin import DealerCoin
from ..sim.scheduler import RandomScheduler, Scheduler
from ..types import Envelope, ProcessId


class _HoldbackScheduler(Scheduler):
    """Shared machinery: classify each envelope as favored or delayed.

    Virtual time is the delivery count, so a delayed envelope is
    ``now - env.send_time`` deliveries old and becomes eligible at
    ``holdback``.  Subclasses implement :meth:`disfavored`.
    """

    def __init__(self, holdback: int = 200):
        super().__init__()
        if holdback < 1:
            raise ValueError("holdback must be at least 1")
        self.holdback = holdback

    def disfavored(self, env: Envelope) -> bool:
        raise NotImplementedError

    def choose(self) -> Tuple[int, float]:
        now, holdback, disfavored = self._advance(), self.holdback, self.disfavored
        eligible = self.pending.ranks(
            lambda env: not disfavored(env) or now - env.send_time >= holdback
        )
        if not eligible:
            # Nothing favored: release the oldest disfavored message so
            # the execution stays admissible.
            return 0, now
        return eligible[self.rng.randrange(len(eligible))], now


class DelayVictimScheduler(_HoldbackScheduler):
    """Starve messages addressed to (or sent by) the victim set."""

    def __init__(
        self,
        victims: Iterable[ProcessId],
        holdback: int = 200,
        starve_outbound: bool = False,
    ):
        super().__init__(holdback)
        self.victims = frozenset(victims)
        self.starve_outbound = starve_outbound

    def disfavored(self, env: Envelope) -> bool:
        if env.dest in self.victims:
            return True
        return self.starve_outbound and env.source in self.victims


class SplitBrainScheduler(_HoldbackScheduler):
    """Deliver within-group traffic first; delay cross-group traffic."""

    def __init__(self, group_a: Iterable[ProcessId], holdback: int = 200):
        super().__init__(holdback)
        self.group_a = frozenset(group_a)

    def disfavored(self, env: Envelope) -> bool:
        return (env.source in self.group_a) != (env.dest in self.group_a)


class PartitionScheduler(RandomScheduler):
    """A hard partition that heals, modelling a netsplit-then-merge.

    While the partition is up, *no* cross-partition message is delivered
    (they queue).  The partition heals when either (a) ``heal_after``
    deliveries have happened, or (b) no intra-partition message remains
    deliverable — the moment both sides have gone quiet, which is when a
    real operator would also observe the stall.  Healing early on
    exhaustion keeps every execution admissible: nothing is delayed past
    the end of the run.

    ``heal_step`` records the delivery count at which the merge
    happened, so tests can assert that no decision predates it.  Once
    healed it is the :class:`RandomScheduler` it extends.
    """

    def __init__(self, group_a: Iterable[ProcessId], heal_after: int = 1000):
        super().__init__()
        if heal_after < 0:
            raise ValueError("heal_after must be non-negative")
        self.group_a = frozenset(group_a)
        self.heal_after = heal_after
        self.heal_step: Optional[int] = None
        self._delivered = 0

    @property
    def healed(self) -> bool:
        return self.heal_step is not None

    def _crosses(self, env: Envelope) -> bool:
        return (env.source in self.group_a) != (env.dest in self.group_a)

    def choose(self) -> Tuple[int, float]:
        intra: list[int] = []
        if not self.healed:
            if self._delivered < self.heal_after:
                intra = self.pending.ranks(lambda e: not self._crosses(e))
            if not intra:  # heal_after reached, or both sides quiet: merge
                self.heal_step = self._delivered
        self._delivered += 1
        if intra:
            return intra[self.rng.randrange(len(intra))], self._advance()
        return super().choose()


class CoinRushScheduler(_HoldbackScheduler):
    """Delay messages that support convergence on the released coin value.

    The adversary may observe a common coin the moment any process
    releases it (the unpredictability property promises nothing after
    that).  This scheduler peeks at the :class:`DealerCoin` and holds
    back consensus step messages whose bit equals the released coin for
    their round — the messages a correct process would need to assemble
    a quorum around the coin value.  Against a protocol without
    validation this class of adversary can stall progress indefinitely;
    against Bracha's protocol it can only stretch latency, which
    ``benchmarks/bench_f2_adversary.py`` quantifies.
    """

    def __init__(self, coin: DealerCoin, holdback: int = 200):
        super().__init__(holdback)
        self.coin = coin

    def disfavored(self, env: Envelope) -> bool:
        round_bit = _step_message_round_bit(env)
        if round_bit is None:
            return False
        round_, bit = round_bit
        released = self.coin.peek(round_)
        return released is not None and bit == released


def _step_message_round_bit(env: Envelope) -> Optional[Tuple[int, int]]:
    """Extract (round, bit) from a consensus step message, if it is one."""
    from ..core.broadcast import RbcMessage
    from ..types import StepValue

    payload = env.payload
    if not (isinstance(payload, tuple) and len(payload) == 2):
        return None
    _module, inner = payload
    if not isinstance(inner, RbcMessage):
        return None
    if not isinstance(inner.value, StepValue):
        return None
    instance = inner.instance
    if not (isinstance(instance, tuple) and len(instance) == 4):
        return None
    _tag, round_, _step, _origin = instance
    if not isinstance(round_, int):
        return None
    return round_, inner.value.bit
