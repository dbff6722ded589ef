"""Delivery schedulers: fairness, determinism, and ordering contracts.

A scheduler names each delivery by its rank in the pending set; the
helpers here drain a set the way the runner does, through ``pop``.
"""

import random
from collections import Counter

import pytest

from repro.adversary import PartitionScheduler
from repro.errors import SimulationError
from repro.sim.events import PendingSet
from repro.sim.scheduler import (
    FifoScheduler,
    RandomDelayScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
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


def deliver(scheduler, pending):
    """One step of the runner: choose a rank, take that envelope out."""
    rank, time = scheduler.choose()
    return pending.pop(rank), time


def drain(scheduler, pending):
    order = []
    while pending:
        chosen, _time = deliver(scheduler, pending)
        order.append(chosen.uid)
    return order


class TestRandomScheduler:
    def test_chooses_a_pending_rank(self):
        scheduler, pending = make(RandomScheduler())
        feed(scheduler, pending, [env(1), env(2)])
        rank, _ = scheduler.choose()
        assert rank in (0, 1)

    def test_delivers_everything(self):
        scheduler, pending = make(RandomScheduler())
        feed(scheduler, pending, [env(i) for i in range(1, 30)])
        assert sorted(drain(scheduler, pending)) == list(range(1, 30))

    def test_time_advances_per_delivery(self):
        scheduler, pending = make(RandomScheduler())
        feed(scheduler, pending, [env(1), env(2)])
        _, t1 = deliver(scheduler, pending)
        _, t2 = deliver(scheduler, pending)
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
        first, _ = deliver(scheduler, pending)
        second, _ = deliver(scheduler, pending)
        assert first.dest != second.dest

    def test_oldest_message_of_the_next_destination_first(self):
        scheduler, pending = make(RoundRobinScheduler())
        feed(scheduler, pending, [env(1, 0, 2), env(2, 0, 1), env(3, 1, 1),
                                  env(4, 0, 0), env(5, 1, 2)])
        assert drain(scheduler, pending) == [4, 2, 1, 3, 5]


class TestRandomDelayScheduler:
    def test_rejects_bad_mean(self):
        with pytest.raises(SimulationError):
            RandomDelayScheduler(mean_delay=0)

    def test_time_is_monotone(self):
        scheduler, pending = make(RandomDelayScheduler(mean_delay=1.0), seed=2)
        feed(scheduler, pending, [env(i) for i in range(1, 20)])
        last = 0.0
        while pending:
            _chosen, time = deliver(scheduler, pending)
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
                _chosen, last = deliver(scheduler, pending)
            return last

        assert final_time(10.0) > final_time(0.1)

    def test_equal_due_times_deliver_in_send_order(self):
        class ConstantLatency(random.Random):
            def expovariate(self, lambd):
                return 1.0

        scheduler = RandomDelayScheduler()
        pending = PendingSet()
        scheduler.attach(ConstantLatency(0), pending)
        feed(scheduler, pending, [env(uid) for uid in (1, 3, 5, 9)])
        assert drain(scheduler, pending) == [1, 3, 5, 9]

    def test_envelopes_removed_elsewhere_are_skipped(self):
        scheduler, pending = make(RandomDelayScheduler(), seed=8)
        envelopes = [env(i) for i in range(1, 11)]
        feed(scheduler, pending, envelopes)
        for gone in envelopes[::2]:
            pending.pop(pending.rank(gone))
        assert sorted(drain(scheduler, pending)) == [2, 4, 6, 8, 10]

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
                for k, e in enumerate(self.pending):
                    due = self._due[e.uid]
                    if due < best_due:
                        best, best_due = k, due
                self._due.pop(self.pending.at(best).uid)
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
                    chosen, time = deliver(scheduler, pending)
                    out.append((chosen.uid, time))
            return out + [(u, None) for u in drain(scheduler, pending)]

        assert trace(RandomDelayScheduler()) == trace(ScanReference())


class _NoScanPendingSet(PendingSet):
    """A pending set on which every whole-set pass is an error."""

    def _scanned(self, *args):
        raise AssertionError("the scheduler scanned the pending set")

    __iter__ = ranks = oldest_per_link = _scanned


class _CountingRandom(random.Random):
    """Counts ``randrange`` calls and the ``getrandbits`` draws under
    them or anything else."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = Counter()

    def randrange(self, *args):
        self.calls["randrange"] += 1
        return super().randrange(*args)

    def getrandbits(self, k):
        self.calls["getrandbits"] += 1
        return super().getrandbits(k)


UNIFORM_PICKERS = [
    RandomScheduler,
    lambda: PartitionScheduler([0, 1], heal_after=0),  # healed at once
]


class TestUniformPickersDoNotScan:
    """Complexity guard without a clock: the two "uniform over
    everything pending" pickers pop one rank per choice and draw it in
    one ``getrandbits`` loop, the one ``randrange`` would run."""

    @pytest.mark.parametrize("build", UNIFORM_PICKERS)
    def test_one_draw_loop_and_no_scan_per_choice(self, build):
        scheduler, pending = build(), _NoScanPendingSet()
        rng = _CountingRandom(4)
        scheduler.attach(rng, pending)
        envelopes = [env(uid, source=uid % 4, dest=uid % 3) for uid in range(1, 61)]
        feed(scheduler, pending, envelopes)
        order = drain(scheduler, pending)

        reference, items = _CountingRandom(4), list(envelopes)
        expected = [
            items.pop(reference.randrange(len(items))).uid for _ in envelopes
        ]
        assert order == expected
        assert reference.calls["randrange"] == len(envelopes)
        assert rng.calls == {"getrandbits": reference.calls["getrandbits"]}


class _Sized:
    """All a uniform picker reads of its pending set: the size, by
    ``len()`` or by :meth:`PendingSet.count <repro.sim.events.PendingSet>`."""

    n = 0

    def __len__(self):
        return self.n

    def count(self):
        return self.n


#: Every n up to 4096, then 2**k and 2**k ± 1 up to 2**20.
DRAW_SIZES = sorted(set(range(1, 4097)) | {
    2**k + d for k in range(12, 21) for d in (-1, 0, 1)
})


class TestDrawEquivalence:
    """The uniform pickers' rank is ``randrange``'s number for the same
    stream, so every recorded schedule and golden stays the one
    ``randrange`` gave.  A CPython release that changes ``randrange``
    fails here by name."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 1001])
    @pytest.mark.parametrize("build", UNIFORM_PICKERS)
    def test_ranks_equal_randrange(self, build, seed):
        scheduler, sized = build(), _Sized()
        scheduler.attach(random.Random(seed), sized)
        ranks = []
        for n in DRAW_SIZES:
            sized.n = n
            ranks.append(scheduler.choose()[0])
        reference = random.Random(seed)
        assert ranks == [reference.randrange(n) for n in DRAW_SIZES]


class TestScriptedScheduler:
    def test_delivers_the_scripted_ranks_then_oldest_first(self):
        scheduler, pending = make(ScriptedScheduler([2, 0, 1]))
        feed(scheduler, pending, [env(uid) for uid in range(1, 7)])
        assert drain(scheduler, pending) == [3, 1, 4, 2, 5, 6]

    def test_out_of_range_ranks_wrap(self):
        scheduler, pending = make(ScriptedScheduler([7, -1, 10**9 + 1]))
        feed(scheduler, pending, [env(uid) for uid in range(1, 5)])
        # 7 % 4 = 3, -1 % 3 = 2, (10**9 + 1) % 2 = 1
        assert drain(scheduler, pending)[:3] == [4, 3, 2]

    @pytest.mark.parametrize("ranks", [[0, True], [1.0], ["2"], [None]])
    def test_non_integer_ranks_rejected(self, ranks):
        with pytest.raises(ValueError, match="ranks must be integers"):
            ScriptedScheduler(ranks)
