"""The in-flight message set of a simulation.

A :class:`PendingSet` holds every envelope that has been sent but not yet
delivered.  A scheduler names the next delivery by its *rank* — its
position in the set, oldest first — so the set's questions are about
ranks: :meth:`~PendingSet.pop` (take out the rank-th envelope, without
a scan), :meth:`~PendingSet.at` (rank → envelope), :meth:`~PendingSet.rank`
(its inverse), :meth:`~PendingSet.ranks` (of the envelopes satisfying a
predicate) and :meth:`~PendingSet.oldest_per_link`.  Uids increase with
insertion (:meth:`~PendingSet.add` refuses any other), so ranks follow
insertion order and uid order alike.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterator

from ..errors import SimulationError
from ..types import Envelope, ProcessId

#: Envelopes per block.  Measured, not a knob: blocks of 512 lose to the
#: rank walk from P ~ 30 000 up, 8 192 is best at every size tried
#: (docs/performance.md, "The PendingSet contract").
BLOCK = 8192
_uid = itemgetter(0)  # ``Envelope.uid`` as a C-level bisection key


class PendingSet:
    """Insertion-ordered order-statistic set of in-flight
    :class:`~repro.types.Envelope`, uids increasing with insertion.

    Envelopes live, oldest first, in blocks of at most ``BLOCK``: the
    blocks and the last uid added are all the set holds.  :meth:`add`
    appends to the last block (O(1)) and refuses a uid not above the
    last one added (the simulator assigns uids in send order, so that is
    a harness bug).  :meth:`at` walks the block lengths (O(P / BLOCK)),
    :meth:`pop` takes the same walk and pops there (a ``memmove`` within
    the block), and :meth:`rank` and ``in`` take it, then bisect one
    block by uid.  A block left small is folded into its neighbour:
    adjacent blocks always total more than ``BLOCK / 2``, so there are
    at most ``4 P / BLOCK + 2`` blocks and every whole-set pass is O(P).
    With one block, ``Simulation.run`` pops in place (``_blocks[0].pop``)
    and reads the size as that block's length: one block is neither
    walked nor folded, and ``_blocks[0]`` is never replaced.
    """

    def __init__(self) -> None:
        self._blocks: list[list[Envelope]] = [[]]
        self._last = -1

    def __len__(self) -> int:
        return sum(map(len, self._blocks))

    def __iter__(self) -> Iterator[Envelope]:
        # One copy, so a caller may add or remove while iterating.
        return iter(list(chain.from_iterable(self._blocks)))

    def __contains__(self, env: Envelope) -> bool:
        """uid membership."""
        return self._find(env.uid) >= 0

    def add(self, env: Envelope) -> None:
        if env.uid <= self._last:
            raise SimulationError(
                f"out-of-order or duplicate envelope uid {env.uid}: uids "
                f"must increase, and the last one added is {self._last}")
        self._last = env.uid
        block = self._blocks[-1]
        if len(block) < BLOCK:
            block.append(env)
        else:
            self._blocks.append([env])

    def pop(self, rank: int) -> Envelope:
        """Remove and return the ``rank``-th oldest pending envelope.

        ``pop(k)`` equals ``list(pending).pop(k)``, in the one walk over
        the block lengths that :meth:`at` takes.  An out-of-range rank
        raises :class:`IndexError` and leaves the set unchanged.
        """
        blocks = self._blocks
        if not 0 <= rank < sum(map(len, blocks)):
            raise IndexError(f"rank {rank} out of range for {len(self)} pending")
        b, block = 0, blocks[0]
        while rank >= len(block):
            rank -= len(block)
            b += 1
            block = blocks[b]
        env = block.pop(rank)
        if len(blocks) > 1 and 2 * len(block) <= BLOCK:
            self._fold(b)
        return env

    def _fold(self, b: int) -> None:
        """Restore "adjacent blocks total more than ``BLOCK / 2``" after
        a removal from block ``b``, the only block that shrank."""
        blocks = self._blocks
        for left in (b, b - 1):
            if 0 <= left < len(blocks) - 1 and (
                2 * (len(blocks[left]) + len(blocks[left + 1])) <= BLOCK
            ):
                blocks[left] += blocks.pop(left + 1)

    def at(self, rank: int) -> Envelope:
        """The ``rank``-th oldest pending envelope (0 = oldest).

        ``at(k)`` equals ``list(pending)[k]``; an out-of-range rank
        raises :class:`IndexError`.
        """
        k = rank
        if k >= 0:
            for block in self._blocks:
                if k < len(block):
                    return block[k]
                k -= len(block)
        raise IndexError(f"rank {rank} out of range for {len(self)} pending")

    def _find(self, uid: int) -> int:
        """The rank of the pending envelope of ``uid``, or -1: the walk
        stops at the first block reaching ``uid``, then bisects it."""
        before = 0
        for block in self._blocks:
            if block and block[-1].uid >= uid:
                k = bisect_left(block, uid, key=_uid)
                return before + k if block[k].uid == uid else -1
            before += len(block)
        return -1

    def rank(self, env: Envelope) -> int:
        """The rank of the pending envelope of ``env``'s uid — the
        inverse of :meth:`at`, in O(P / BLOCK)."""
        rank = self._find(env.uid)
        if rank < 0:
            raise SimulationError(f"envelope uid {env.uid} is not pending")
        return rank

    def ranks(self, predicate: Callable[[Envelope], bool]) -> list[int]:
        """The ranks of the pending envelopes satisfying ``predicate``,
        ascending."""
        return [
            k for k, env in enumerate(chain.from_iterable(self._blocks))
            if predicate(env)
        ]

    def oldest_per_link(self) -> list[int]:
        """For each (source, dest) pair, the rank of its oldest pending
        envelope, ascending: the candidates of FIFO-per-link delivery."""
        heads: dict[tuple[ProcessId, ProcessId], int] = {}
        for k, env in enumerate(chain.from_iterable(self._blocks)):
            heads.setdefault((env.source, env.dest), k)
        return list(heads.values())
