"""Bracha's reliable broadcast (PODC 1984).

The primitive lets a designated *originator* broadcast one value per
*instance* such that, despite up to ``t < n/3`` Byzantine processes:

* **Validity** — if the originator is correct, every correct process
  eventually accepts its value.
* **Consistency** — no two correct processes accept different values for
  the same instance (the originator cannot equivocate).
* **Totality** — if any correct process accepts a value, every correct
  process eventually accepts it (even if the originator is faulty and
  stops halfway).
* **Integrity** — a correct process accepts at most one value per
  instance.

Protocol (per instance, code for process *i*):

1. The originator sends ``⟨INIT, v⟩`` to all.
2. On the first ``⟨INIT, v⟩`` *from the instance's originator*: send
   ``⟨ECHO, v⟩`` to all.
3. On ``⌈(n+t+1)/2⌉`` ``⟨ECHO, v⟩`` for the same ``v``, or ``t+1``
   ``⟨READY, v⟩``: send ``⟨READY, v⟩`` to all (once per instance).
4. On ``2t+1`` ``⟨READY, v⟩``: accept ``v``.

Why it works, in one paragraph: two echo quorums of size
``⌈(n+t+1)/2⌉`` intersect in at least ``t+1`` processes, hence in a
correct one, so correct processes cannot go READY for different values
via echoes; going READY via ``t+1`` READYs requires a correct process
that already went READY, which grounds out in an echo quorum.  Accepting
needs ``2t+1`` READYs, of which ``t+1`` are correct — those ``t+1``
READYs reach everyone and push every correct process past the ``t+1``
amplification threshold, giving totality.

A single :class:`BroadcastLayer` module multiplexes any number of
concurrent instances, each kept per ``(instance, originator)`` pair:
names are predictable, so one process INITing another's name opens a
pair of its own, and a READY counts toward the pair it names only.  The
consensus layer runs ``n`` instances per step.  Cost per instance:
``n`` INIT + ``n²`` ECHO + ``n²`` READY messages — handling an ECHO or
a READY is the engine's inner loop, so each is counted in
``on_message``'s own frame against thresholds read once at ``bind``.

**What the tallies mean.**  ``instance_state(i, o).echoes`` /
``.readies`` map a value to the senders heard *while their message
could still change an outcome*.  Once this process has sent READY for
``(i, o)`` an ECHO can trigger nothing further, and once it has
accepted, neither can a READY: such a message returns before it is
tallied.  A tally is thus complete up to the point the instance stopped
listening in that phase (at most the quorum that tripped it, for the
value that won), not a log of every sender that ever spoke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from ..sim.process import Context, ProtocolModule
from ..types import Phase, ProcessId


@dataclass(frozen=True)
class RbcMessage:
    """Wire format of the broadcast layer.

    ``instance`` names the broadcast; by convention it is a tuple whose
    last component is the originator's pid, but the layer does not rely
    on that: ``originator`` is carried explicitly, INIT messages are
    only honored when the network-level sender *is* the originator, and
    every receiver keeps one state per ``(instance, originator)`` pair —
    a message counts only toward the pair it names.
    """

    instance: Hashable
    originator: ProcessId
    phase: Phase
    value: Any


@dataclass(frozen=True)
class RbcDelivery:
    """Upcall event: ``value`` was accepted for ``(instance, originator)``."""

    instance: Hashable
    originator: ProcessId
    value: Any


@dataclass
class _InstanceState:
    """Per-``(instance, originator)`` bookkeeping at one process."""

    echoed: bool = False
    ready_sent: bool = False
    accepted: bool = False
    # value -> set of pids we heard that phase-message from
    echoes: Dict[Any, Set[ProcessId]] = field(default_factory=dict)
    readies: Dict[Any, Set[ProcessId]] = field(default_factory=dict)


class BroadcastLayer(ProtocolModule):
    """Multiplexed Bracha reliable broadcast.

    Upper layers call :meth:`broadcast` to originate and subscribe to
    :class:`RbcDelivery` events for acceptances.  The layer is a pure
    state machine over (sender, message) inputs — the three thresholds
    are read from the process's :class:`~repro.params.ProtocolParams`
    once, at :meth:`bind`.
    """

    MODULE_ID = "rbc"

    def __init__(self, module_id: str = MODULE_ID):
        super().__init__(module_id)
        self._instances: Dict[Tuple[Hashable, ProcessId], _InstanceState] = {}
        # tag -> listeners that only want instances named ``(tag, ...)``
        self._tagged: Dict[Hashable, List[Callable[[RbcDelivery], None]]] = {}

    def bind(self, ctx: Context) -> None:
        super().bind(ctx)
        params = ctx.params
        self._echo_quorum = params.echo_quorum
        self._ready_amplify = params.ready_amplify
        self._accept_quorum = params.accept_quorum

    # -- public API ------------------------------------------------------

    def broadcast(self, instance: Hashable, value: Any) -> None:
        """Originate a broadcast of ``value`` in ``instance``.

        The caller is the originator; receivers will only honor the INIT
        because the network attributes it to this process.
        """
        assert self.ctx is not None, "module not bound to a process"
        self.ctx.broadcast(RbcMessage(instance, self.ctx.pid, Phase.INIT, value))

    def subscribe(
        self, listener: Callable[[RbcDelivery], None], tag: Hashable = None
    ) -> None:
        """Register an acceptance listener.

        With a ``tag``, the listener hears only acceptances whose
        instance is a tuple starting with that tag — how a consensus
        module claims its own broadcasts among the many sharing one
        layer.  Untagged listeners hear every acceptance.
        """
        if tag is None:
            super().subscribe(listener)
        else:
            self._tagged.setdefault(tag, []).append(listener)

    def emit(self, event: RbcDelivery) -> None:
        super().emit(event)
        instance = event.instance
        if type(instance) is tuple and instance:
            for listener in self._tagged.get(instance[0], ()):
                listener(event)

    def accepted(self, instance: Hashable, originator: ProcessId) -> bool:
        """Whether this process has accepted a value for the pair."""
        state = self._instances.get((instance, originator))
        return state is not None and state.accepted

    def forget(self, instance: Hashable, originator: ProcessId) -> None:
        """Drop all state for a finished pair (long-running apps)."""
        self._instances.pop((instance, originator), None)

    # -- state machine ------------------------------------------------------

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        # One frame per delivered ECHO / READY: this is the engine's
        # inner loop (n² of each per instance, against n INITs).
        if not isinstance(payload, RbcMessage):
            return  # garbage from a Byzantine process
        phase = payload.phase
        if phase is Phase.ECHO:
            echo = True
        elif phase is Phase.READY:
            echo = False
        else:
            if phase is Phase.INIT:
                self._on_init(sender, payload)
            return
        instance = payload.instance
        originator = payload.originator
        value = payload.value
        instances = self._instances
        try:
            state = instances.get((instance, originator))
            if state is None:
                state = instances[instance, originator] = _InstanceState()
            if echo:
                if state.ready_sent:
                    return  # spent: all an echo quorum does is send READY
                tally = state.echoes
            else:
                if state.accepted:
                    return  # spent: READY went out at t+1, before 2t+1 accepted
                tally = state.readies
            supporters = tally.get(value)
            if supporters is None:
                supporters = tally[value] = set()
        except TypeError:
            return  # a field that cannot key a dict: garbage
        supporters.add(sender)
        count = len(supporters)
        assert self.ctx is not None
        # READY goes out once: on an echo quorum, or on t+1 READYs.
        needed = self._echo_quorum if echo else self._ready_amplify
        if count >= needed and not state.ready_sent:
            state.ready_sent = True
            self.ctx.broadcast(
                RbcMessage(instance, originator, Phase.READY, value)
            )
        if not echo and count >= self._accept_quorum:
            state.accepted = True
            self.emit(RbcDelivery(instance, originator, value))

    def _on_init(self, sender: ProcessId, msg: RbcMessage) -> None:
        if sender != msg.originator:
            return  # forged INIT: only the originator may start its instance
        key = (msg.instance, sender)
        try:
            state = self._instances.get(key)
            if state is None:
                state = self._instances[key] = _InstanceState()
        except TypeError:
            return  # unhashable instance: garbage
        if state.echoed:
            return  # equivocating originator: echo only the first INIT
        state.echoed = True
        assert self.ctx is not None
        self.ctx.broadcast(
            RbcMessage(msg.instance, sender, Phase.ECHO, msg.value)
        )

    # -- inspection (tests and debugging) ---------------------------------

    def instance_state(
        self, instance: Hashable, originator: ProcessId
    ) -> Optional[_InstanceState]:
        return self._instances.get((instance, originator))

    def open_instances(self) -> int:
        return len(self._instances)
