"""Process and protocol-module framework.

A *process* is a container of named protocol modules (link layer,
broadcast layer, consensus, application) wired together in the modular
style of Cachin, Guerraoui & Rodrigues: modules interact downward by
sending messages through their :class:`Context` and upward by invoking
registered listener callbacks.

Messages on the wire are routed tuples ``(module_id, inner_payload)``;
the process dispatches an incoming envelope to the module whose id
matches.  Modules never touch the network directly, which keeps them
deterministic state machines that are trivial to unit-test.

**Engine/driver split.**  Module callbacks do not send inline: every
``ctx.send`` / ``ctx.broadcast`` / ``ctx.note`` appends an *effect*
(:mod:`repro.sim.effects`) to the process's per-step :class:`Outbox
<repro.sim.effects.Outbox>`, and the outbox drains against the network
when the activation that produced it ends — the end of a
:meth:`Process.deliver` or :meth:`Process.start`, or immediately for
calls made outside any activation (direct module driving in unit
tests).  Draining replays effects in issue order at an unchanged
virtual time, so executions are bit-identical to the historical
inline-send behavior.  Drivers that want a wider atomic window (e.g. a
runtime node delivering a whole wire batch) wrap the activations in
:meth:`Process.buffered`.
"""

from __future__ import annotations

import abc
import random
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Dict, Iterator, Optional, TYPE_CHECKING

from ..errors import SimulationError
from ..params import ProtocolParams
from ..types import ProcessId
from .effects import Broadcast, Decide, Effect, Note, Outbox, Send

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .network import NetworkAPI


def _send_to_all(network: "NetworkAPI", n: int, pid: ProcessId, payload: Any) -> None:
    """A Broadcast as ``n`` sends in pid order, on a network without
    ``broadcast``."""
    send = network.send
    for dest in range(n):
        send(pid, dest, payload)


class Context:
    """A module's handle on the outside world.

    Exposes exactly what the asynchronous model permits: authenticated
    sends to named processes, the process's own identity and parameters,
    a private randomness stream, and the virtual clock (for
    *measurement* only — protocols must never branch on it).

    Sends are *effects*: they enter the process outbox and reach the
    network when the current activation ends (see the module docstring),
    preserving issue order exactly.
    """

    def __init__(self, process: "Process", module_id: str):
        self._process = process
        self.module_id = module_id
        self.pid: ProcessId = process.pid
        self.params: ProtocolParams = process.params

    def send(self, dest: ProcessId, payload: Any) -> None:
        """Send ``payload`` to ``dest`` over the authenticated link."""
        self._process.enqueue(Send(dest, (self.module_id, payload)))

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every process, including ourselves.

        The self-copy travels through the network like any other message
        — the paper's protocols count a process's own message toward its
        quorums, and routing it through the scheduler keeps executions
        honest about asynchrony.
        """
        self._process.enqueue(Broadcast((self.module_id, payload)))

    def decide(self, value: Any, round: Optional[int] = None) -> None:
        """Surface a terminal output to the hosting driver (optional).

        The classic modules expose decisions as attributes + upcall
        events; this effect is the channel for drivers and the
        observability layer to learn of outputs without polling module
        state.  The effect carries the deciding module's id and, when
        given, the decision round.
        """
        self._process.enqueue(Decide(value, module=self.module_id, round=round))

    def rng(self, *names: object) -> random.Random:
        """This process's private randomness stream (e.g. its local coin)."""
        return self._process.rng_for(self.module_id, *names)

    def now(self) -> float:
        """Virtual time (measurement only)."""
        return self._process.network.now()

    def note(self, detail: Any) -> None:
        """Write an annotation into the run's event log (if observed)."""
        self._process.enqueue(Note(detail))


class ProtocolModule(abc.ABC):
    """Base class for protocol state machines.

    Subclasses implement :meth:`on_message` and may override
    :meth:`start`.  Upcalls to the parent layer go through listener
    callbacks registered with :meth:`subscribe`; a module with multiple
    event types can pass an event object.
    """

    def __init__(self, module_id: str):
        self.module_id = module_id
        self.ctx: Optional[Context] = None
        self._listeners: list[Callable[[Any], None]] = []

    def bind(self, ctx: Context) -> None:
        """Attach the module to its process context (done by Process.add_module)."""
        self.ctx = ctx

    def subscribe(self, listener: Callable[[Any], None]) -> None:
        """Register an upcall listener for this module's output events."""
        self._listeners.append(listener)

    def emit(self, event: Any) -> None:
        """Deliver an output event to every subscribed listener."""
        for listener in self._listeners:
            listener(event)

    def start(self) -> None:
        """Hook invoked once when the simulation starts (optional)."""

    def close(self) -> None:
        """Drop the upcalls that tie this module to the modules above it.

        Called by :meth:`Process.close` once the run is over: listeners
        are bound methods of other modules, so they close reference
        cycles.  A subclass holding further callbacks clears them too.
        """
        self._listeners.clear()

    @abc.abstractmethod
    def on_message(self, sender: ProcessId, payload: Any) -> None:
        """Handle a message addressed to this module."""


class Process:
    """A correct process: identity, parameters, and a stack of modules.

    Effects flush at the end of the enclosing activation, handing
    drivers one explicit batch per step.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: "NetworkAPI",
        params: ProtocolParams,
        register: bool = True,
    ):
        if not 0 <= pid < params.n:
            raise SimulationError(f"pid {pid} out of range for n={params.n}")
        self.pid = pid
        self.network = network
        self.params = params
        self.modules: Dict[str, ProtocolModule] = {}
        self.halted = False
        self.outbox = Outbox()
        self.on_decide: Optional[Callable[[Decide], None]] = None
        self._depth = 0
        # A fabric network fans a Broadcast out itself, paying the shared
        # work once; any other network (a shim filtering or recording
        # ``send``, a test double) is handed every per-destination send —
        # bound to the network, not to this process, so no cycle forms.
        self._broadcast: Callable[[ProcessId, Any], None] = getattr(
            network, "broadcast", None
        ) or partial(_send_to_all, network, params.n)
        if register:
            network.register(self)

    # -- wiring ---------------------------------------------------------

    def add_module(self, module: ProtocolModule) -> ProtocolModule:
        """Install a module and bind its context; returns the module."""
        if module.module_id in self.modules:
            raise SimulationError(
                f"process {self.pid} already has a module {module.module_id!r}"
            )
        module.bind(Context(self, module.module_id))
        self.modules[module.module_id] = module
        return module

    def module(self, module_id: str) -> ProtocolModule:
        return self.modules[module_id]

    def rng_for(self, *names: object) -> random.Random:
        return self.network.rng.stream("process", self.pid, *names)

    # -- the outbox (engine → driver) ------------------------------------

    def enqueue(self, effect: Effect) -> None:
        """Record one effect; flush immediately outside an activation.

        Inside an activation the effect waits for the step boundary; a
        direct module call from a test or driver has no activation
        window, so the effect applies on the spot — the compatibility
        shim that keeps every historical call site behaving identically.
        """
        self.outbox.append(effect)
        if self._depth == 0:
            self.flush_outbox()

    def flush_outbox(self) -> None:
        """Apply all buffered effects against the network, in issue order."""
        outbox = self.outbox
        batch = outbox.drain()
        if not batch:
            return
        apply = self._apply
        for effect in batch:
            apply(effect)
        outbox.recycle(batch)

    def _apply(self, effect: Effect) -> None:
        if type(effect) is Send:
            self.network.send(self.pid, effect.dest, effect.payload)
        elif type(effect) is Broadcast:
            self._broadcast(self.pid, effect.payload)
        elif type(effect) is Note:
            self.network.trace_note(self.pid, effect.detail)
        elif type(effect) is Decide:
            # The hook receives the full effect (value + module + round);
            # without a hook the decision still lands in the trace.
            if self.on_decide is not None:
                self.on_decide(effect)
            else:
                self.network.trace_note(self.pid, ("decide", effect.value))
        else:
            raise SimulationError(f"unknown effect {effect!r}")

    @contextmanager
    def buffered(self) -> Iterator["Process"]:
        """Widen the atomic window across several activations.

        Everything enqueued inside the ``with`` block drains in one
        batch when the outermost block exits — even if the process
        raises, effects issued before the fault still reach the network
        (a crash does not recall packets already handed over).
        """
        self._depth += 1
        try:
            yield self
        finally:
            self._depth -= 1
            if self._depth == 0:
                self.flush_outbox()

    # -- simulation interface --------------------------------------------

    @property
    def is_faulty(self) -> bool:
        return False

    def start(self) -> None:
        with self.buffered():
            for module in list(self.modules.values()):
                module.start()

    def halt(self) -> None:
        """Stop reacting to messages (graceful protocol termination)."""
        self.halted = True

    def close(self) -> None:
        """Unlink this process from its modules once the run is over.

        Each module is closed, the module table emptied and the decide
        hook dropped, so the stack is freed by reference counting instead
        of waiting for the cycle collector.  The process delivers nothing
        afterwards; the modules' outcome attributes stay readable through
        whoever still holds them.
        """
        for module in self.modules.values():
            module.close()
        self.modules.clear()
        self.on_decide = None

    def deliver(self, sender: ProcessId, payload: Any) -> None:
        """Route an incoming message to the addressed module."""
        if self.halted:
            return
        if not (isinstance(payload, tuple) and len(payload) == 2):
            raise SimulationError(
                f"process {self.pid} received unroutable payload {payload!r}"
            )
        module_id, inner = payload
        try:
            module = self.modules.get(module_id)
        except TypeError:
            module = None  # an unhashable id names no module
        if module is None:
            # A message for a module this process does not run (e.g. sent
            # by a Byzantine process inventing protocol tags) is ignored,
            # exactly as an unknown message type would be in a real system.
            return
        # One activation window, as in buffered(), without the generator
        # context manager: this runs once per delivered message, and most
        # deliveries (an ECHO or READY short of its quorum) enqueue
        # nothing — the outbox is empty between activations, so an
        # unmoved ``appended`` means there is nothing to flush.
        outbox = self.outbox
        mark = outbox.appended
        self._depth += 1
        try:
            module.on_message(sender, inner)
        finally:
            self._depth -= 1
            if outbox.appended != mark and self._depth == 0:
                self.flush_outbox()

    def __repr__(self) -> str:
        tag = " halted" if self.halted else ""
        return f"<Process p{self.pid}{tag} modules={sorted(self.modules)}>"
