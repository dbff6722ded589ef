"""PendingSet: the in-flight message structure schedulers name ranks in."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import events
from repro.sim.events import PendingSet
from repro.sim.runner import Simulation
from repro.types import Envelope


def env(uid, source=0, dest=1, payload="m"):
    return Envelope(uid=uid, source=source, dest=dest, payload=payload, send_time=0.0)


def within_block_bound(pending):
    """What keeps ``at`` and the whole-set passes cheap however long the
    run: never more than ``4 P / BLOCK + 2`` blocks."""
    return len(pending._blocks) <= 4 * len(pending) / events.BLOCK + 2


class TestBasics:
    def test_empty(self):
        pending = PendingSet()
        assert len(pending) == 0
        assert not pending

    def test_add_and_len(self):
        pending = PendingSet()
        pending.add(env(1))
        pending.add(env(2))
        assert len(pending) == 2

    def test_contains(self):
        pending = PendingSet()
        first = env(1)
        pending.add(first)
        assert first in pending
        assert env(2) not in pending

    def test_duplicate_uid_rejected(self):
        pending = PendingSet()
        pending.add(env(1))
        with pytest.raises(SimulationError, match="duplicate envelope uid 1"):
            pending.add(env(1))

    def test_pop_returns_and_removes(self):
        pending = PendingSet()
        first, second = env(1), env(2)
        pending.add(first)
        pending.add(second)
        assert pending.pop(1) is second
        assert pending.pop(0) is first
        assert not pending

    @pytest.mark.parametrize("uid", [1, 2, 3, -1])
    def test_a_uid_not_above_the_last_added_is_refused(self, uid):
        pending = PendingSet()
        for added in (1, 3):
            pending.add(env(added))
        assert pending.pop(1).uid == 3  # refused even once delivered
        with pytest.raises(SimulationError, match=(
                f"out-of-order or duplicate envelope uid {uid}: .* is 3$")):
            pending.add(env(uid))
        assert pending._blocks == [[env(1)]] and pending._last == 3
        pending.add(env(4))
        assert [e.uid for e in pending] == [1, 4]

    def test_iteration_is_insertion_ordered(self):
        pending = PendingSet()
        for uid in (1, 2, 5):
            pending.add(env(uid))
        assert [e.uid for e in pending] == [1, 2, 5]

    def test_rank_zero_is_first_inserted(self):
        pending = PendingSet()
        pending.add(env(2))
        pending.add(env(5))
        assert pending.at(0).uid == 2

    def test_rank_fetch_follows_insertion_order(self):
        pending = PendingSet()
        for uid in (1, 2, 3):
            pending.add(env(uid))
        assert [pending.at(k).uid for k in range(3)] == [1, 2, 3]
        assert pending.pop(1).uid == 2
        assert [pending.at(k).uid for k in range(2)] == [1, 3]

    @pytest.mark.parametrize("method", ["at", "pop"])
    @pytest.mark.parametrize("rank", [-1, 2, 10])
    def test_rank_out_of_range_rejected(self, rank, method):
        pending = PendingSet()
        pending.add(env(1))
        pending.add(env(2))
        with pytest.raises(IndexError):
            getattr(pending, method)(rank)
        assert [e.uid for e in pending] == [1, 2]

    @pytest.mark.parametrize("method", ["at", "pop"])
    def test_rank_fetch_on_empty_rejected(self, method):
        with pytest.raises(IndexError):
            getattr(PendingSet(), method)(0)

    def test_drained_blocks_are_folded(self):
        pending = PendingSet()
        envelopes = [env(uid) for uid in range(20_000)]
        for e in envelopes:
            pending.add(e)
        for e in envelopes[:-3]:
            assert pending.pop(0) is e
            assert within_block_bound(pending)
        assert [e.uid for e in pending] == [19_997, 19_998, 19_999]
        assert pending.at(2).uid == 19_999
        pending.add(env(20_007))  # into the block the drain left
        assert [e.uid for e in pending] == [19_997, 19_998, 19_999, 20_007]

    def test_one_survivor_per_block_is_folded(self, monkeypatch):
        monkeypatch.setattr(events, "BLOCK", 64)
        pending = PendingSet()
        envelopes = [env(uid) for uid in range(64 * 40)]
        for e in envelopes:
            pending.add(e)
        survivors = envelopes[::64]
        rank = 0
        for e in envelopes:
            if e.uid % 64:
                assert pending.pop(rank) is e
                assert within_block_bound(pending)
            else:
                rank += 1
        assert list(pending) == survivors
        assert [pending.at(k) for k in range(40)] == survivors


class TestQueries:
    def _loaded(self):
        pending = PendingSet()
        pending.add(env(1, source=0, dest=1))
        pending.add(env(2, source=0, dest=2))
        pending.add(env(3, source=1, dest=2))
        pending.add(env(4, source=0, dest=1))
        return pending

    def test_ranks_of_a_destination(self):
        assert self._loaded().ranks(lambda e: e.dest == 1) == [0, 3]

    def test_ranks_of_a_predicate(self):
        assert self._loaded().ranks(lambda e: e.uid % 2 == 0) == [1, 3]
        assert self._loaded().ranks(lambda e: False) == []

    def test_oldest_per_link(self):
        heads = self._loaded().oldest_per_link()
        assert heads == [0, 1, 2]  # uid 4 (rank 3) shadowed by uid 1

    def test_rank_inverts_at(self):
        pending = self._loaded()
        assert [pending.rank(env(uid)) for uid in (1, 2, 3, 4)] == [0, 1, 2, 3]
        pending.pop(1)
        assert [pending.rank(pending.at(k)) for k in range(3)] == [0, 1, 2]

    def test_rank_of_an_envelope_that_is_not_pending_rejected(self):
        pending = self._loaded()
        pending.pop(0)
        with pytest.raises(SimulationError, match="uid 1 is not pending"):
            pending.rank(env(1))

    def test_rank_and_membership_across_blocks(self, monkeypatch):
        # Uids 1, 4, 7, ... in blocks of 64; block 0 drained empty (its
        # full neighbour keeps it from folding) and block 2 thinned.
        monkeypatch.setattr(events, "BLOCK", 64)
        pending = PendingSet()
        for i in range(64 * 5):
            pending.add(env(3 * i + 1))
        for _ in range(64):
            pending.pop(0)
        for k in range(20):
            pending.pop(64 + k)  # every other envelope of block 2
        sizes = [len(block) for block in pending._blocks]
        assert sizes[:3] == [0, 64, 44] and len(sizes) == 5
        live = list(pending)
        assert [pending.rank(e) for e in live] == list(range(len(live)))
        assert all(e in pending for e in live)
        live_uids = {e.uid for e in live}
        for uid in range(-1, 3 * 64 * 5 + 3):
            if uid not in live_uids:
                assert env(uid) not in pending
                with pytest.raises(SimulationError, match="not pending"):
                    pending.rank(env(uid))

    def test_iteration_is_a_stable_copy(self):
        pending = self._loaded()
        walk = iter(pending)
        pending.pop(0)
        assert [e.uid for e in walk] == [1, 2, 3, 4]


OPS = ("add", "add_burst", "pop", "pop_burst", "step", "bad_rank", "queries")
OP_LISTS = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 5000)), max_size=80,
)


def state(pending):
    """Everything a :class:`PendingSet` holds."""
    return pending._blocks, pending._last


class TestAgainstListModel:
    """Random operation sequences, with increasing uids and refused
    lower or repeated ones, against a plain insertion-ordered list, and
    against a twin set that is only ever popped through ``pop()``:
    a ``step`` lets ``Simulation.run`` take the envelope out (in place
    while the set is one block), and the two sets must stay identical."""

    @settings(max_examples=200, deadline=None)
    @given(OP_LISTS)
    def test_matches_reference(self, ops):
        self.check(ops)

    @settings(max_examples=200, deadline=None)
    @given(OP_LISTS)
    def test_matches_reference_with_blocks_of_four(self, ops):
        """Blocks open, empty, fold and reopen within the 80 operations."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(events, "BLOCK", 4)
            self.check(ops)

    @staticmethod
    def check(ops):
        # No process is registered: a step takes the envelope out of the
        # set and delivers it to nobody.
        sim = Simulation(seed=len(ops))
        pending, twin, model = sim.pending, PendingSet(), []
        last = [0]  # the last uid added

        def add(uid):
            e = env(uid, source=uid % 3, dest=(uid // 3) % 3)
            pending.add(e)
            twin.add(e)
            model.append(e)
            last[0] = uid

        def fresh():
            return last[0] + 1 + len(model) % 3  # increasing, with gaps

        def pop(index):
            k = index % len(model)
            assert pending.pop(k) is twin.pop(k) is model.pop(k)

        for _ in range(64):
            add(fresh())
        for op, arg in ops:
            if op == "add":
                uid = last[0] + arg % 4 - 1  # lower, repeated or higher
                if uid <= last[0]:
                    with pytest.raises(SimulationError, match="duplicate"):
                        pending.add(env(uid))
                else:
                    add(uid)
            elif op == "add_burst":
                for _ in range(arg % 60):
                    add(fresh())
            elif op == "pop":
                if model:
                    pop(arg)
            elif op == "pop_burst":
                for k in range(min(len(model), arg % 90)):
                    pop(arg * (k + 1))
            elif op == "step":
                for _ in range(min(len(model), arg % 40)):
                    assert sim.step()
                    k = sim.schedule[-1]
                    assert twin.pop(k) is model.pop(k)
            elif op == "bad_rank":
                # Out of range: nothing is taken (the checks below
                # compare the whole set with the model).
                for rank in (-1, len(model), len(model) + arg):
                    for method in (pending.at, pending.pop):
                        with pytest.raises(IndexError):
                            method(rank)
                with pytest.raises(SimulationError, match="not pending"):
                    pending.rank(env(-1))
            else:
                link = (arg % 3, (arg // 3) % 3)
                assert pending.ranks(lambda e: e.uid % 2 == 0) == [
                    k for k, e in enumerate(model) if e.uid % 2 == 0
                ]
                assert pending.ranks(lambda e: (e.source, e.dest) == link) == [
                    k for k, e in enumerate(model) if (e.source, e.dest) == link
                ]
                heads = {}
                for k, e in enumerate(model):
                    heads.setdefault((e.source, e.dest), k)
                assert pending.oldest_per_link() == list(heads.values())
                assert [pending.rank(e) for e in model] == list(range(len(model)))
            assert within_block_bound(pending)
            assert state(pending) == state(twin)
            assert len(pending) == len(model)
            assert bool(pending) == bool(model)
            assert list(pending) == model
            assert all(e in pending for e in model)
            assert [pending.at(k) for k in range(len(model))] == model
