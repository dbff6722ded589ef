"""The in-flight message set of a simulation.

A :class:`PendingSet` holds every envelope that has been sent but not yet
delivered.  Schedulers query it to choose the next delivery; adversarial
schedulers additionally filter and reorder it.  The structure preserves
insertion order (whatever the order of the ``uid`` values) so that
deterministic schedulers have a canonical iteration order, and it
answers "the k-th oldest pending envelope" without a scan, which is
what the uniform-random pickers ask on every delivery.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from ..errors import SimulationError
from ..types import Envelope, ProcessId

#: Compaction threshold: the slot list is rebuilt without its tombstones
#: once they outnumber the live envelopes by more than this many.
_COMPACT_SLACK = 32


class PendingSet:
    """Insertion-ordered order-statistic set of in-flight
    :class:`~repro.types.Envelope`.

    Envelopes live in an append-only slot list; removal leaves a
    tombstone (``None``) and a Fenwick tree over the live flags maps a
    rank to its slot, so :meth:`add`, :meth:`remove`, :meth:`at` and
    :meth:`peek_oldest` are O(log P) and ``in`` / ``len`` are O(1).  The
    slot list is compacted when tombstones exceed the live envelopes by
    ``_COMPACT_SLACK``, so it never holds more than ``2 P + 32`` slots
    and every whole-set pass (iteration, :meth:`filter`,
    :meth:`oldest_per_link`, :meth:`snapshot`) stays O(P).  ``uid``
    uniqueness is enforced: the simulator assigns uids, so a duplicate
    indicates a harness bug.
    """

    def __init__(self) -> None:
        self._slots: list[Optional[Envelope]] = []
        self._slot_of: dict[int, int] = {}
        #: 1-based Fenwick tree: ``_tree[i]`` counts the live slots in
        #: ``(i - lowbit(i), i]``; ``_tree[0]`` is unused padding.
        self._tree: list[int] = [0]

    def __len__(self) -> int:
        return len(self._slot_of)

    def __bool__(self) -> bool:
        return bool(self._slot_of)

    def _live(self) -> list[Envelope]:
        return [env for env in self._slots if env is not None]

    def __iter__(self) -> Iterator[Envelope]:
        # One copy, so a caller may add or remove while iterating.
        return iter(self._live())

    def __contains__(self, env: Envelope) -> bool:
        return env.uid in self._slot_of

    def add(self, env: Envelope) -> None:
        slot_of = self._slot_of
        if env.uid in slot_of:
            raise SimulationError(f"duplicate envelope uid {env.uid}")
        slots, tree = self._slots, self._tree
        slot_of[env.uid] = len(slots)
        slots.append(env)
        # Append one Fenwick node: the new slot plus the already-summed
        # ranges that tile (i - lowbit(i), i - 1].
        i = len(slots)
        floor = i & (i - 1)
        count = 1
        j = i - 1
        while j > floor:
            count += tree[j]
            j &= j - 1
        tree.append(count)

    def remove(self, env: Envelope) -> None:
        slot = self._slot_of.pop(env.uid, None)
        if slot is None:
            raise SimulationError(f"removing unknown envelope uid {env.uid}")
        slots, tree = self._slots, self._tree
        slots[slot] = None
        size = len(tree)
        if size - 1 > 2 * len(self._slot_of) + _COMPACT_SLACK:
            self._compact()
            return
        i = slot + 1
        while i < size:
            tree[i] -= 1
            i += i & -i

    def _compact(self) -> None:
        """Drop every tombstone; all slots are live afterwards."""
        slots = self._slots = self._live()
        self._slot_of = {env.uid: slot for slot, env in enumerate(slots)}
        # A Fenwick tree over all-ones: node i counts lowbit(i) slots.
        self._tree = [i & -i for i in range(len(slots) + 1)]

    def at(self, rank: int) -> Envelope:
        """The ``rank``-th oldest pending envelope (0 = oldest).

        ``at(k)`` equals ``list(pending)[k]``; an out-of-range rank
        raises :class:`IndexError`.
        """
        if not 0 <= rank < len(self._slot_of):
            raise IndexError(
                f"rank {rank} out of range for {len(self._slot_of)} pending"
            )
        tree = self._tree
        size = len(tree)
        # Descend to the last slot whose prefix holds <= rank live
        # envelopes; the next slot is the live one of that rank.
        pos = 0
        step = 1 << ((size - 1).bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt < size and tree[nxt] <= rank:
                pos = nxt
                rank -= tree[nxt]
            step >>= 1
        env = self._slots[pos]
        assert env is not None
        return env

    def peek_oldest(self) -> Optional[Envelope]:
        """The first-inserted pending envelope, or None when empty."""
        return self.at(0) if self._slot_of else None

    def filter(self, predicate: Callable[[Envelope], bool]) -> list[Envelope]:
        """All pending envelopes satisfying ``predicate``, oldest first."""
        return [
            env for env in self._slots if env is not None and predicate(env)
        ]

    def to_dest(self, dest: ProcessId) -> list[Envelope]:
        """All pending envelopes addressed to ``dest``, oldest first."""
        return self.filter(lambda env: env.dest == dest)

    def from_source(self, source: ProcessId) -> list[Envelope]:
        """All pending envelopes sent by ``source``, oldest first."""
        return self.filter(lambda env: env.source == source)

    def between(self, source: ProcessId, dest: ProcessId) -> list[Envelope]:
        """Pending envelopes on the (source, dest) link, oldest first."""
        return self.filter(lambda env: env.source == source and env.dest == dest)

    def oldest_per_link(self) -> list[Envelope]:
        """For each (source, dest) pair, the oldest pending envelope.

        This is the candidate set for FIFO-per-link delivery.
        """
        seen: dict[tuple[ProcessId, ProcessId], Envelope] = {}
        for env in self._slots:
            if env is None:
                continue
            key = (env.source, env.dest)
            if key not in seen:
                seen[key] = env
        return list(seen.values())

    def snapshot(self) -> Iterable[Envelope]:
        """A stable copy of the current contents (oldest first)."""
        return tuple(self._live())
