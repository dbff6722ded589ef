"""Delivery schedulers: fairness, determinism, and ordering contracts."""

import random

import pytest

from repro.adversary import PartitionScheduler
from repro.errors import SimulationError
from repro.sim.events import PendingSet
from repro.sim.scheduler import (
    FifoScheduler,
    RandomDelayScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.types import Envelope


def make(scheduler, seed=0):
    pending = PendingSet()
    scheduler.attach(random.Random(seed), pending)
    return scheduler, pending


def env(uid, source=0, dest=1, send_time=0.0):
    return Envelope(uid=uid, source=source, dest=dest, payload=uid, send_time=send_time)


def feed(scheduler, pending, envelopes):
    for e in envelopes:
        pending.add(e)
        scheduler.on_send(e)


def drain(scheduler, pending):
    order = []
    while pending:
        choice = scheduler.choose()
        assert choice is not None
        chosen, _time = choice
        pending.remove(chosen)
        order.append(chosen.uid)
    return order


class TestRandomScheduler:
    def test_empty_returns_none(self):
        scheduler, _ = make(RandomScheduler())
        assert scheduler.choose() is None

    def test_chooses_only_pending(self):
        scheduler, pending = make(RandomScheduler())
        feed(scheduler, pending, [env(1), env(2)])
        chosen, _ = scheduler.choose()
        assert chosen.uid in (1, 2)

    def test_delivers_everything(self):
        scheduler, pending = make(RandomScheduler())
        feed(scheduler, pending, [env(i) for i in range(1, 30)])
        assert sorted(drain(scheduler, pending)) == list(range(1, 30))

    def test_time_advances_per_delivery(self):
        scheduler, pending = make(RandomScheduler())
        feed(scheduler, pending, [env(1), env(2)])
        _, t1 = scheduler.choose()
        pending.remove(pending.peek_oldest())
        _, t2 = scheduler.choose()
        assert t2 > t1

    def test_deterministic_under_seed(self):
        orders = []
        for _ in range(2):
            scheduler, pending = make(RandomScheduler(), seed=9)
            feed(scheduler, pending, [env(i) for i in range(1, 20)])
            orders.append(drain(scheduler, pending))
        assert orders[0] == orders[1]

    def test_actually_reorders(self):
        scheduler, pending = make(RandomScheduler(), seed=1)
        feed(scheduler, pending, [env(i) for i in range(1, 50)])
        assert drain(scheduler, pending) != list(range(1, 50))


class TestFifoScheduler:
    def test_per_link_order_preserved(self):
        scheduler, pending = make(FifoScheduler(), seed=3)
        feed(
            scheduler,
            pending,
            [env(1, 0, 1), env(2, 0, 1), env(3, 0, 1), env(4, 2, 1), env(5, 2, 1)],
        )
        order = drain(scheduler, pending)
        assert order.index(1) < order.index(2) < order.index(3)
        assert order.index(4) < order.index(5)

    def test_cross_link_interleaving_possible(self):
        """Across links there is no order promise — just check delivery."""
        scheduler, pending = make(FifoScheduler(), seed=5)
        feed(scheduler, pending, [env(i, i % 3, 3) for i in range(1, 16)])
        assert sorted(drain(scheduler, pending)) == list(range(1, 16))


class TestRoundRobinScheduler:
    def test_fully_deterministic(self):
        orders = []
        for _ in range(2):
            scheduler, pending = make(RoundRobinScheduler())
            feed(scheduler, pending, [env(i, 0, i % 3) for i in range(1, 10)])
            orders.append(drain(scheduler, pending))
        assert orders[0] == orders[1]

    def test_cycles_destinations(self):
        scheduler, pending = make(RoundRobinScheduler())
        feed(scheduler, pending, [env(1, 0, 0), env(2, 0, 1), env(3, 0, 2)])
        first, _ = scheduler.choose()
        pending.remove(first)
        second, _ = scheduler.choose()
        assert first.dest != second.dest


class TestRandomDelayScheduler:
    def test_rejects_bad_mean(self):
        with pytest.raises(SimulationError):
            RandomDelayScheduler(mean_delay=0)

    def test_time_is_monotone(self):
        scheduler, pending = make(RandomDelayScheduler(mean_delay=1.0), seed=2)
        feed(scheduler, pending, [env(i) for i in range(1, 20)])
        last = 0.0
        while pending:
            chosen, time = scheduler.choose()
            pending.remove(chosen)
            assert time >= last
            last = time

    def test_all_delivered(self):
        scheduler, pending = make(RandomDelayScheduler(), seed=4)
        feed(scheduler, pending, [env(i) for i in range(1, 25)])
        assert sorted(drain(scheduler, pending)) == list(range(1, 25))

    def test_delay_scale_influences_clock(self):
        def final_time(mean):
            scheduler, pending = make(RandomDelayScheduler(mean_delay=mean), seed=6)
            feed(scheduler, pending, [env(i) for i in range(1, 40)])
            last = 0.0
            while pending:
                chosen, last = scheduler.choose()
                pending.remove(chosen)
            return last

        assert final_time(10.0) > final_time(0.1)

    def test_equal_due_times_deliver_in_send_order(self):
        class ConstantLatency(random.Random):
            def expovariate(self, lambd):
                return 1.0

        scheduler = RandomDelayScheduler()
        pending = PendingSet()
        scheduler.attach(ConstantLatency(0), pending)
        feed(scheduler, pending, [env(uid) for uid in (5, 3, 9, 1)])
        assert drain(scheduler, pending) == [5, 3, 9, 1]

    def test_unannounced_envelope_is_due_at_its_send_time(self):
        scheduler, pending = make(RandomDelayScheduler(), seed=8)
        feed(scheduler, pending, [env(1, send_time=5.0), env(2, send_time=5.0)])
        pending.add(env(3, send_time=0.5))  # no on_send
        chosen, time = scheduler.choose()
        assert (chosen.uid, time) == (3, 0.5)
        pending.remove(chosen)
        assert sorted(drain(scheduler, pending)) == [1, 2]

    def test_envelopes_removed_elsewhere_are_skipped(self):
        scheduler, pending = make(RandomDelayScheduler(), seed=8)
        envelopes = [env(i) for i in range(1, 11)]
        feed(scheduler, pending, envelopes)
        for gone in envelopes[::2]:
            pending.remove(gone)
        assert sorted(drain(scheduler, pending)) == [2, 4, 6, 8, 10]
        assert scheduler.choose() is None

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_min_scan_reference(self, seed):
        """The heap event list picks what the full scan it replaced
        picked — same envelope, same clock — under interleaved sends."""

        class ScanReference(RandomDelayScheduler):
            def __init__(self):
                super().__init__()
                self._due = {}

            def on_send(self, e):
                latency = self.min_delay + self.rng.expovariate(
                    1.0 / self.mean_delay
                )
                self._due[e.uid] = max(self.now, e.send_time) + latency

            def choose(self):
                best, best_due = None, float("inf")
                for e in self.pending:
                    due = self._due.get(e.uid, e.send_time)
                    if due < best_due:
                        best, best_due = e, due
                if best is None:
                    return None
                self._due.pop(best.uid, None)
                self.now = max(self.now, best_due)
                return best, self.now

        def trace(scheduler):
            scheduler, pending = make(scheduler, seed=seed)
            script = random.Random(seed + 100)
            uid, out = 0, []
            for _ in range(300):
                if not pending or script.random() < 0.55:
                    uid += 1
                    feed(scheduler, pending, [env(uid, send_time=scheduler.now)])
                else:
                    chosen, time = scheduler.choose()
                    pending.remove(chosen)
                    out.append((chosen.uid, time))
            return out + [(u, None) for u in drain(scheduler, pending)]

        assert trace(RandomDelayScheduler()) == trace(ScanReference())


class _NoScanPendingSet(PendingSet):
    """A pending set on which every whole-set pass is an error."""

    def _scanned(self, *args):
        raise AssertionError("the scheduler scanned the pending set")

    __iter__ = filter = snapshot = _scanned


class _CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.randrange_calls = 0

    def randrange(self, *args):
        self.randrange_calls += 1
        return super().randrange(*args)


class TestUniformPickersDoNotScan:
    """Complexity guard without a clock: the two "uniform over
    everything pending" pickers fetch one rank and draw one number."""

    @pytest.mark.parametrize("build", [
        RandomScheduler,
        lambda: PartitionScheduler([0, 1], heal_after=0),  # healed at once
    ])
    def test_one_randrange_and_no_scan_per_choice(self, build):
        scheduler, pending = build(), _NoScanPendingSet()
        rng = _CountingRandom(4)
        scheduler.attach(rng, pending)
        envelopes = [env(uid, source=uid % 4, dest=uid % 3) for uid in range(1, 61)]
        feed(scheduler, pending, envelopes)
        order = drain(scheduler, pending)
        assert rng.randrange_calls == len(envelopes)

        reference, items = random.Random(4), list(envelopes)
        expected = [
            items.pop(reference.randrange(len(items))).uid for _ in envelopes
        ]
        assert order == expected
