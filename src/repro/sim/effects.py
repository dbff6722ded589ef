"""Protocol effects and the per-step Outbox — the engine/driver seam.

The protocol modules are pure message-driven state machines; everything
they ask of the outside world during one activation is described by a
small set of *effect* values:

* :class:`Send` — one authenticated point-to-point message;
* :class:`Broadcast` — the same payload to every process (expanded into
  ``n`` sends, self included, when the outbox drains);
* :class:`Note` — a trace annotation (measurement only);
* :class:`Decide` — a terminal output surfaced to the hosting driver.

A :class:`~repro.sim.process.Process` collects the effects of one
activation in an :class:`Outbox` and applies them against its network
when the activation ends.  Drivers — the
discrete-event simulator and the asyncio runtime's
:class:`~repro.runtime.node.Node` — therefore see a process's traffic
as explicit per-step batches they are free to coalesce, which is what
the wire-level batching pipeline (``batching`` scenario field) builds
on.

Effect order is preserved exactly: draining replays sends, notes, and
decides in the order the module issued them, at the same virtual time,
so deferring the flush to the step boundary reorders nothing
(``tests/unit/test_outbox.py`` pins the flush boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ConfigError
from ..types import ProcessId

#: Messages-per-frame cap for ``batching="flush"``: a frame must stay
#: far below the transports' 1 MiB hard frame cap even when a long
#: activation queues hundreds of messages for one destination.
FLUSH_BATCH_LIMIT = 64

#: The validated batching modes of the Scenario field / cluster knob.
BATCHING_MODES = ("off", "flush")


@dataclass(frozen=True)
class Send:
    """Send ``payload`` to ``dest`` over the authenticated link."""

    dest: ProcessId
    payload: Any


@dataclass(frozen=True)
class Broadcast:
    """Send ``payload`` to every process, including the sender.

    Fanned out at drain time into ``n`` point-to-point messages in pid
    order — by the fabric network's ``broadcast``, or by a ``send`` loop
    on a network that has none; the two are indistinguishable in uids,
    tallies and events.
    """

    payload: Any


@dataclass(frozen=True)
class Note:
    """A trace annotation (measurement only, never protocol input)."""

    detail: Any


@dataclass(frozen=True)
class Decide:
    """A terminal protocol output, surfaced to the hosting driver.

    ``module`` names the deciding protocol instance and ``round`` the
    round the decision fell in, when the protocol tracks one — the
    observability layer turns these into ``decide`` events and
    per-instance decision-latency histograms without the host polling
    module state.
    """

    value: Any
    module: Optional[str] = None
    round: Optional[int] = None


Effect = Union[Send, Broadcast, Note, Decide]


class Outbox:
    """Ordered effect buffer for one process.

    Appending is O(1); :meth:`drain` hands the whole batch to the driver
    and resets the buffer.  ``appended`` counts effects over the
    process's lifetime (cheap observability for tests and benchmarks).

    The buffer list is recycled: a driver that finished iterating a
    drained batch hands it back with :meth:`recycle`, and the next drain
    swaps it in instead of allocating — the simulator's inner loop
    drains one outbox per activation, so this removes a per-step list
    allocation on the hottest path.
    """

    __slots__ = ("_effects", "appended", "_spare")

    def __init__(self) -> None:
        self._effects: List[Effect] = []
        self.appended = 0
        self._spare: Optional[List[Effect]] = None

    def append(self, effect: Effect) -> None:
        self._effects.append(effect)
        self.appended += 1

    def drain(self) -> List[Effect]:
        """Return all buffered effects in issue order and clear the buffer."""
        effects = self._effects
        if not effects:
            return []
        spare = self._spare
        if spare is not None:
            self._spare = None
            self._effects = spare
        else:
            self._effects = []
        return effects

    def recycle(self, batch: List[Effect]) -> None:
        """Return a fully-consumed drained batch for reuse by drain.

        Only call this with a list obtained from :meth:`drain` after the
        last reference to its contents is gone — the list is cleared
        here.  A second recycle while a spare is already parked is
        dropped (reentrant flushes may race for the slot; losing the
        race just costs one allocation).
        """
        if self._spare is None:
            batch.clear()
            self._spare = batch

    def __len__(self) -> int:
        return len(self._effects)

    def __bool__(self) -> bool:
        return bool(self._effects)

    def __repr__(self) -> str:
        return f"<Outbox {len(self._effects)} buffered, {self.appended} total>"


class CausalStamper:
    """Per-sender sequence counters assigning stable causal message ids.

    Every physical send leaving the effect boundary gets an id of the
    form ``"<sender>:<seq>"`` (or ``"<sender>.<epoch>:<seq>"`` for a
    restarted incarnation), assigned in the sender's own send order.
    Because a correct process's send sequence is a pure function of the
    seed and its delivery history, the ids are deterministic per fabric
    and let ``send``/``deliver`` events be correlated into the causal
    delivery DAG (:mod:`repro.obs.report`).

    The ``epoch`` distinguishes the incarnations of a crash-recovered
    node: a respawned process restarts its counters, and without an
    epoch its fresh sends would collide with ids the dead incarnation
    already put on the wire.
    """

    __slots__ = ("epoch", "_seqs")

    def __init__(self, epoch: int = 0) -> None:
        self.epoch = int(epoch)
        self._seqs: Dict[ProcessId, int] = {}

    def stamp(self, sender: ProcessId) -> str:
        """The next causal id for ``sender`` (ids start at ``:1``)."""
        seq = self._seqs.get(sender, 0) + 1
        self._seqs[sender] = seq
        # :func:`format_mid`, inline: this runs once per observed send.
        if self.epoch:
            return f"{sender}.{self.epoch}:{seq}"
        return f"{sender}:{seq}"


def format_mid(sender: ProcessId, seq: int, epoch: int = 0) -> str:
    """Render a causal message id: ``"3:17"`` or ``"3.2:17"`` (epoch 2)."""
    if epoch:
        return f"{sender}.{epoch}:{seq}"
    return f"{sender}:{seq}"


def parse_mid(mid: str) -> Tuple[int, int, int]:
    """Split a causal id back into ``(sender, epoch, seq)``.

    Raises :class:`~repro.errors.ConfigError` on anything that is not a
    well-formed id — trace analysis must fail loudly on corrupt input.
    """
    try:
        who, seq_text = mid.split(":", 1)
        sender_text, _, epoch_text = who.partition(".")
        return (int(sender_text), int(epoch_text or 0), int(seq_text))
    except (AttributeError, ValueError):
        raise ConfigError(f"malformed causal message id {mid!r}") from None


def parse_batching(spec: Any) -> Tuple[str, int]:
    """Validate a batching spec; return ``(mode, messages per frame)``.

    ``"off"`` (or ``None``) disables wire coalescing — one frame per
    message, the historical behavior.  ``"flush"`` coalesces everything
    queued for a destination at each pump flush (capped at
    :data:`FLUSH_BATCH_LIMIT` messages per frame).  Anything else raises
    :class:`~repro.errors.ConfigError`.
    """
    if spec is None or spec == "off":
        return ("off", 1)
    if spec == "flush":
        return ("flush", FLUSH_BATCH_LIMIT)
    raise ConfigError(
        f"unknown batching spec {spec!r}; choose from {list(BATCHING_MODES)}"
    )


__all__ = [
    "BATCHING_MODES",
    "Broadcast",
    "CausalStamper",
    "Decide",
    "Effect",
    "FLUSH_BATCH_LIMIT",
    "Note",
    "Outbox",
    "Send",
    "format_mid",
    "parse_batching",
    "parse_mid",
]
