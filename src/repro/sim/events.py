"""The in-flight message set of a simulation.

A :class:`PendingSet` holds every envelope that has been sent but not yet
delivered.  A scheduler names the next delivery by its *rank* — its
position in the set, oldest first — so the set's questions are about
ranks: :meth:`~PendingSet.pop` (take out the rank-th envelope, without
a scan), :meth:`~PendingSet.at` (rank → envelope), :meth:`~PendingSet.rank`
(its inverse), :meth:`~PendingSet.ranks` (of the envelopes satisfying a
predicate) and :meth:`~PendingSet.oldest_per_link`.  Ranks follow
insertion order, whatever the order of the ``uid`` values.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Callable, Iterator

from ..errors import SimulationError
from ..types import Envelope, ProcessId

#: Envelopes per block.  Measured, not a knob: blocks of 512 lose to the
#: rank walk from P ~ 30 000 up, 8 192 is best at every size tried
#: (docs/performance.md, "The PendingSet contract").
BLOCK = 8192


class PendingSet:
    """Insertion-ordered order-statistic set of in-flight
    :class:`~repro.types.Envelope`.

    Envelopes live, oldest first, in blocks of at most ``BLOCK``, the
    insertion sequence number of each in a parallel list per block.
    :meth:`add` appends to the last block (O(1)), :meth:`at` walks the
    block lengths (O(P / BLOCK)), :meth:`pop` takes the same walk and
    pops there (plus a ``memmove`` within the block); ``in`` / ``len``
    are O(1).  A block left small is folded into its neighbour: adjacent
    blocks always total more than ``BLOCK / 2``, so there are at most
    ``4 P / BLOCK + 2`` blocks and every whole-set pass (iteration,
    :meth:`ranks`, :meth:`oldest_per_link`) is O(P).  ``uid`` uniqueness
    is enforced: the simulator assigns uids, so a duplicate indicates a
    harness bug.  With one block, ``Simulation.run`` pops in place
    (``_blocks[0]``, ``_seqs[0]``, ``_seq_of``), leaving the set as
    :meth:`pop` would: one block is neither walked nor folded.
    """

    def __init__(self) -> None:
        self._blocks: list[list[Envelope]] = [[]]
        self._seqs: list[list[int]] = [[]]
        #: ``_firsts[b]`` is above every sequence number in block
        #: ``b - 1`` and at most every one in block ``b``.
        self._firsts: list[int] = [0]
        self._seq_of: dict[int, int] = {}
        self._next_seq = 0
        #: ``len(self)`` as the uid index's own ``__len__``: a C call.
        self.count: Callable[[], int] = self._seq_of.__len__

    def __len__(self) -> int:
        return len(self._seq_of)

    def __iter__(self) -> Iterator[Envelope]:
        # One copy, so a caller may add or remove while iterating.
        return iter(list(chain.from_iterable(self._blocks)))

    def __contains__(self, env: Envelope) -> bool:
        """uid membership."""
        return env.uid in self._seq_of

    def add(self, env: Envelope) -> None:
        seq_of = self._seq_of
        if env.uid in seq_of:
            raise SimulationError(f"duplicate envelope uid {env.uid}")
        seq_of[env.uid] = seq = self._next_seq
        self._next_seq = seq + 1
        block = self._blocks[-1]
        if len(block) < BLOCK:
            block.append(env)
            self._seqs[-1].append(seq)
        else:
            self._blocks.append([env])
            self._seqs.append([seq])
            self._firsts.append(seq)

    def pop(self, rank: int) -> Envelope:
        """Remove and return the ``rank``-th oldest pending envelope.

        ``pop(k)`` equals ``list(pending).pop(k)``, in the one walk over
        the block lengths that :meth:`at` takes.  An out-of-range rank
        raises :class:`IndexError` and leaves the set unchanged.
        """
        seq_of = self._seq_of
        if not 0 <= rank < len(seq_of):
            raise IndexError(f"rank {rank} out of range for {len(seq_of)} pending")
        blocks = self._blocks
        b, block = 0, blocks[0]
        while rank >= len(block):
            rank -= len(block)
            b += 1
            block = blocks[b]
        env = block.pop(rank)
        self._seqs[b].pop(rank)
        del seq_of[env.uid]
        if len(blocks) > 1 and 2 * len(block) <= BLOCK:
            self._fold(b)
        return env

    def _fold(self, b: int) -> None:
        """Restore "adjacent blocks total more than ``BLOCK / 2``" after
        a removal from block ``b``, the only block that shrank."""
        blocks, seqs, firsts = self._blocks, self._seqs, self._firsts
        for left in (b, b - 1):
            if 0 <= left < len(blocks) - 1 and (
                2 * (len(blocks[left]) + len(blocks[left + 1])) <= BLOCK
            ):
                blocks[left] += blocks.pop(left + 1)
                seqs[left] += seqs.pop(left + 1)
                del firsts[left + 1]

    def at(self, rank: int) -> Envelope:
        """The ``rank``-th oldest pending envelope (0 = oldest).

        ``at(k)`` equals ``list(pending)[k]``; an out-of-range rank
        raises :class:`IndexError`.
        """
        if not 0 <= rank < len(self._seq_of):
            raise IndexError(
                f"rank {rank} out of range for {len(self._seq_of)} pending"
            )
        for block in self._blocks:
            size = len(block)
            if rank < size:
                return block[rank]
            rank -= size
        raise AssertionError("block lengths disagree with the uid index")

    def rank(self, env: Envelope) -> int:
        """The rank of the pending envelope of ``env``'s uid — the
        inverse of :meth:`at`, in O(P / BLOCK)."""
        seq = self._seq_of.get(env.uid)
        if seq is None:
            raise SimulationError(f"envelope uid {env.uid} is not pending")
        b = bisect_right(self._firsts, seq) - 1
        return sum(map(len, self._blocks[:b])) + bisect_left(self._seqs[b], seq)

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
