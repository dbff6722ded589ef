"""Delivery schedulers — the "network adversary" knob of the simulator.

In the asynchronous model the network controls the order in which messages
arrive; the only guarantee is that every message between correct processes
is *eventually* delivered.  A :class:`Scheduler` embodies one such network:
at every simulation step it names the next delivery by its *rank* in the
pending set (0 = oldest) and assigns it a delivery (virtual) time.  The
runner records the ranks (``Simulation.schedule``), and
:class:`ScriptedScheduler` replays them.

Built-in benign schedulers:

* :class:`RandomScheduler` — uniformly random choice among all pending
  messages.  This is the fair scheduler under which expected-round claims
  are measured.
* :class:`RandomDelayScheduler` — each message independently draws an
  exponential latency; delivery order follows latency (a heap-backed
  event list).  Produces meaningful virtual-time latency numbers.
* :class:`FifoScheduler` — random across links, FIFO within each link
  (the standard "FIFO reliable links" assumption).
* :class:`RoundRobinScheduler` — deterministically cycles destinations;
  useful for reproducible unit tests.
* :class:`ScriptedScheduler` — replays a list of ranks, then delivers
  oldest first.

Adversarial schedulers (message reordering attacks, coin-aware rushing)
live in :mod:`repro.adversary.strategies` and subclass :class:`Scheduler`.
"""

from __future__ import annotations

import abc
import heapq
import random
from typing import Iterable, Tuple

from ..errors import SimulationError
from ..types import Envelope
from .events import PendingSet


class Scheduler(abc.ABC):
    """Chooses the next message to deliver from the pending set.

    Lifecycle: the :class:`~repro.sim.runner.Simulation` calls
    :meth:`attach` once, then alternates :meth:`on_send` notifications and
    :meth:`choose` calls.  ``choose`` runs only while messages are
    pending and returns the rank of the next delivery in the pending set
    (:meth:`~repro.sim.events.PendingSet.at`) with its delivery time.
    Keeping executions admissible — nothing delayed forever — is the
    scheduler's own job.
    """

    def __init__(self) -> None:
        self.rng: random.Random = random.Random(0)
        self.pending: PendingSet = PendingSet()
        self.now: float = 0.0

    def attach(self, rng: random.Random, pending: PendingSet) -> None:
        """Bind the scheduler to a simulation's RNG stream and pending set."""
        self.rng = rng
        self.pending = pending
        self.now = 0.0

    def on_send(self, env: Envelope) -> None:
        """Notification that ``env`` entered the pending set (optional hook)."""

    @abc.abstractmethod
    def choose(self) -> Tuple[int, float]:
        """Return ``(rank, delivery_time)``; the pending set is not empty."""

    def _advance(self, delta: float = 1.0) -> float:
        self.now += delta
        return self.now


class RandomScheduler(Scheduler):
    """Uniformly random delivery among all in-flight messages.

    Virtual time advances by one unit per delivery, so "virtual time"
    equals the delivery-step count.  This is the canonical fair network:
    every pending message has equal probability of being next, hence every
    message is delivered eventually with probability 1.

    The rank is drawn the way CPython's ``rng.randrange(n)`` draws it —
    ``n.bit_length()`` random bits, drawn again while they read ``n`` or
    more — without ``randrange``'s two Python frames, so a seed's
    schedule is the one ``randrange`` gave (``tests/unit/
    test_scheduler.py`` compares the two up to ``n = 2**20 + 1``).
    ``Simulation.run`` draws the same way inline; ``choose`` is its reference.
    """

    def choose(self) -> Tuple[int, float]:
        n = self.pending.count()
        getrandbits, k = self.rng.getrandbits, n.bit_length()
        rank = getrandbits(k)
        while rank >= n:
            rank = getrandbits(k)
        self.now = now = self.now + 1.0  # ``_advance()`` without its frame
        return rank, now


class FifoScheduler(Scheduler):
    """Random across links, strictly FIFO within each (source, dest) link."""

    def choose(self) -> Tuple[int, float]:
        heads = self.pending.oldest_per_link()
        return heads[self.rng.randrange(len(heads))], self._advance()


class RoundRobinScheduler(Scheduler):
    """Deterministic: cycles over destinations, oldest message first.

    With no randomness at all, two runs with the same protocol stack are
    bit-identical — the scheduler of choice for state-machine unit tests.
    """

    def __init__(self) -> None:
        super().__init__()
        self._next_dest = 0

    def choose(self) -> Tuple[int, float]:
        oldest: dict = {}  # dest -> rank of its oldest pending envelope
        for k, env in enumerate(self.pending):
            oldest.setdefault(env.dest, k)
        later = [dest for dest in oldest if dest >= self._next_dest]
        dest = min(later or oldest)
        self._next_dest = dest + 1
        return oldest[dest], self._advance()


class ScriptedScheduler(Scheduler):
    """Replays a schedule: delivery ``i`` is rank ``ranks[i] % len(pending)``,
    and past the end of the list the oldest pending envelope.  Every list
    of ints is a valid schedule, so shrinking one needs no repair.
    """

    def __init__(self, ranks: Iterable[int]):
        super().__init__()
        self.ranks = tuple(ranks)
        for rank in self.ranks:
            if not isinstance(rank, int) or isinstance(rank, bool):
                raise ValueError(f"ranks must be integers, got {rank!r}")
        self._script = iter(self.ranks)

    def choose(self) -> Tuple[int, float]:
        return next(self._script, 0) % len(self.pending), self._advance()


class RandomDelayScheduler(Scheduler):
    """Each message draws an independent random latency at send time.

    ``mean_delay`` sets the scale of the exponential distribution (plus a
    small fixed ``min_delay`` floor modelling processing cost).  Delivery
    always picks the pending message with the smallest due time, so the
    virtual clock is the usual event-list clock of a network simulator and
    latency measurements (e.g. decision time in "network delays") are
    meaningful.

    The event list is a heap of ``(due, send order, envelope)`` filled
    in :meth:`on_send`; on equal due times the earliest-sent message
    wins.  Entries whose envelope left the pending set some other way
    are dropped when they surface (lazy deletion).
    """

    def __init__(self, mean_delay: float = 1.0, min_delay: float = 0.01):
        super().__init__()
        if mean_delay <= 0:
            raise SimulationError("mean_delay must be positive")
        self.mean_delay = mean_delay
        self.min_delay = min_delay
        self._heap: list[Tuple[float, int, Envelope]] = []
        self._sent = 0

    def on_send(self, env: Envelope) -> None:
        latency = self.min_delay + self.rng.expovariate(1.0 / self.mean_delay)
        self._sent += 1
        heapq.heappush(
            self._heap, (max(self.now, env.send_time) + latency, self._sent, env)
        )

    def choose(self) -> Tuple[int, float]:
        pending, heap = self.pending, self._heap
        while True:
            due, _order, env = heapq.heappop(heap)
            if env in pending:
                self.now = max(self.now, due)
                return pending.rank(env), self.now
