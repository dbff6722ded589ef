"""Delivery schedulers — the "network adversary" knob of the simulator.

In the asynchronous model the network controls the order in which messages
arrive; the only guarantee is that every message between correct processes
is *eventually* delivered.  A :class:`Scheduler` embodies one such network:
at every simulation step it picks the next in-flight envelope to deliver
and assigns it a delivery (virtual) time.

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

Adversarial schedulers (message reordering attacks, coin-aware rushing)
live in :mod:`repro.adversary.strategies` and subclass :class:`Scheduler`.
"""

from __future__ import annotations

import abc
import heapq
import random
from typing import Optional, Tuple

from ..errors import SimulationError
from ..types import Envelope
from .events import PendingSet


class Scheduler(abc.ABC):
    """Chooses the next message to deliver from the pending set.

    Lifecycle: the :class:`~repro.sim.runner.Simulation` calls
    :meth:`attach` once, then alternates :meth:`on_send` notifications and
    :meth:`choose` calls.  ``choose`` must return an envelope currently in
    the pending set together with its delivery time, or ``None`` if it
    declines to schedule (the runner then falls back to the oldest pending
    envelope so that executions remain *admissible*: nothing is delayed
    forever).
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
    def choose(self) -> Optional[Tuple[Envelope, float]]:
        """Return ``(envelope, delivery_time)`` or ``None`` to defer."""

    def _advance(self, delta: float = 1.0) -> float:
        self.now += delta
        return self.now


class RandomScheduler(Scheduler):
    """Uniformly random delivery among all in-flight messages.

    Virtual time advances by one unit per delivery, so "virtual time"
    equals the delivery-step count.  This is the canonical fair network:
    every pending message has equal probability of being next, hence every
    message is delivered eventually with probability 1.
    """

    def choose(self) -> Optional[Tuple[Envelope, float]]:
        pending = self.pending
        if not pending:
            return None
        env = pending.at(self.rng.randrange(len(pending)))
        return env, self._advance()


class FifoScheduler(Scheduler):
    """Random across links, strictly FIFO within each (source, dest) link."""

    def choose(self) -> Optional[Tuple[Envelope, float]]:
        heads = self.pending.oldest_per_link()
        if not heads:
            return None
        env = heads[self.rng.randrange(len(heads))]
        return env, self._advance()


class RoundRobinScheduler(Scheduler):
    """Deterministic: cycles over destinations, oldest message first.

    With no randomness at all, two runs with the same protocol stack are
    bit-identical — the scheduler of choice for state-machine unit tests.
    """

    def __init__(self) -> None:
        super().__init__()
        self._next_dest = 0

    def choose(self) -> Optional[Tuple[Envelope, float]]:
        if not self.pending:
            return None
        dests = sorted({env.dest for env in self.pending})
        for dest in dests:
            if dest >= self._next_dest:
                break
        else:
            dest = dests[0]
        self._next_dest = dest + 1
        batch = self.pending.to_dest(dest)
        return batch[0], self._advance()


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

    def _push(self, due: float, env: Envelope) -> None:
        self._sent += 1
        heapq.heappush(self._heap, (due, self._sent, env))

    def on_send(self, env: Envelope) -> None:
        latency = self.min_delay + self.rng.expovariate(1.0 / self.mean_delay)
        self._push(max(self.now, env.send_time) + latency, env)

    def _adopt_unannounced(self) -> None:
        """Envelopes that entered the pending set without :meth:`on_send`
        are due at their send time."""
        known = {env.uid for _due, _order, env in self._heap}
        for env in self.pending:
            if env.uid not in known:
                self._push(env.send_time, env)

    def choose(self) -> Optional[Tuple[Envelope, float]]:
        pending, heap = self.pending, self._heap
        while pending:
            if len(heap) < len(pending):
                self._adopt_unannounced()
            due, _order, env = heapq.heappop(heap)
            if env in pending:
                self.now = max(self.now, due)
                return env, self.now
        return None
