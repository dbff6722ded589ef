"""The simulation loop.

A :class:`Simulation` owns the pending-message set, the scheduler and
the network.  Running proceeds one delivery at a time, in one loop
(:meth:`Simulation.run`; :meth:`~Simulation.step` is one pass of it):
draw or ask for the rank of the next envelope, record it, pop that
envelope, count it and hand it to its process, repeat — until a
caller-supplied predicate holds, the system is quiescent (no messages
in flight), or the step budget runs out.

Each delivery step drains the target process's effect outbox as one
batch: the callback buffers its sends (see :mod:`repro.sim.effects`)
and :meth:`~repro.sim.process.Process.deliver` applies them against the
network when the activation ends — in issue order, at the same virtual
time, so event order per seed is identical to inline sending and the
runner needs no batching awareness of its own.

A rank can only name a pending envelope, so whatever the scheduler
does, it reorders and never drops or forges; eventual delivery — every
execution admissible in the sense of the asynchronous model — is the
scheduler's contract (the adversarial ones release what they hold back).
The ranks of a run are its schedule, :attr:`Simulation.schedule`:
replayed under :class:`~repro.sim.scheduler.ScriptedScheduler` with the
same seed, they repeat the run.

A run's object graph is cyclic — process ↔ module ↔ context, listener
lists, the network's registry, the clock closures — so left alone it
would wait for a full collection to be freed, paid for by whatever runs
next.  :meth:`Simulation.close` unlinks those cycles, after which the
graph is freed by reference counting the moment its last holder drops
it; ``run(scenario)`` closes every sim run it makes.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import EventBudgetExceeded, SimulationError
from ..obs.events import DELIVER
from ..obs.profile import SPAN_BUFFER
from .events import PendingSet
from .network import Network
from .rng import SplitRng
from .scheduler import RandomScheduler, Scheduler


class Simulation:
    """A single seeded execution of a distributed protocol.

    Args:
        seed: master seed; fixes every random choice in the run.
        scheduler: delivery scheduler (default :class:`RandomScheduler`).

    Typical use::

        sim = Simulation(seed=7)
        net = sim.network
        ...build processes against net...
        sim.start()
        sim.run(until=lambda: all(p.decided for p in correct))
    """

    def __init__(self, seed: int = 0, scheduler: Optional[Scheduler] = None):
        self.rng = SplitRng(seed)
        self.pending = PendingSet()
        self.scheduler = scheduler if scheduler is not None else RandomScheduler()
        self.scheduler.attach(self.rng.stream("scheduler"), self.pending)
        self.network = Network(self.rng, self.pending)
        self.network.bind_clock(lambda: self.now)
        # ``on_send`` is an optional hook: a scheduler that keeps the base
        # class's no-op is not called once per message to do nothing.
        if type(self.scheduler).on_send is not Scheduler.on_send:
            self.network.bind_send_hook(self.scheduler.on_send)
        self.now: float = 0.0
        self.steps: int = 0
        #: The pending-set rank of every delivery so far, in order.
        self.schedule: list[int] = []
        #: Optional :class:`~repro.obs.profile.SpanProfiler` timing the
        #: step loop (``sim_step``) and the deliver-plus-effects-drain
        #: path (``sim_deliver``).  Profiling reads the wall clock into
        #: the metrics registry only — virtual time, the rng, and the
        #: event stream are untouched, so a profiled fixed-seed run
        #: stays bit-identical to an unprofiled one.
        self.profiler: Optional[object] = None
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Invoke ``start()`` on every registered process exactly once."""
        if self._started:
            raise SimulationError("simulation already started")
        self._started = True
        for pid in sorted(self.network.processes):
            self.network.processes[pid].start()

    # -- stepping -----------------------------------------------------------

    def step(self) -> bool:
        """Deliver one message.  Returns False when nothing is in flight."""
        steps = self.steps
        return self.run(until=lambda: self.steps > steps, max_steps=1) == 1

    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_steps: int = 2_000_000,
    ) -> int:
        """Deliver messages until ``until()`` holds or quiescence.

        The one delivery loop.  The stock :class:`RandomScheduler`'s
        draw and a one-block pop run inline, so such a step pays no
        Python frame before ``Process.deliver``; other ranks go through
        ``choose`` and the checked :meth:`PendingSet.pop`.  Returns the
        number of steps executed in this call.  Raises
        :class:`EventBudgetExceeded` if the budget runs out first —
        which, for a correct protocol under an admissible scheduler,
        indicates a livelock and is treated as a test failure.
        """
        if self._closed:
            raise SimulationError("simulation is closed: it cannot deliver again")
        if not self._started:
            self.start()
        pending, scheduler, network = self.pending, self.scheduler, self.network
        count, pop, record = pending.count, pending.pop, self.schedule.append
        blocks, seqs, seq_of = pending._blocks, pending._seqs, pending._seq_of
        processes, delivered = network.processes, network.delivered
        drawn, observer = type(scheduler) is RandomScheduler, network.observer
        choose, getrandbits = scheduler.choose, scheduler.rng.getrandbits
        profiler = self.profiler
        if profiler is not None:
            # Three clock reads a step; the two durations are buffered
            # and folded into their histograms a buffer at a time.
            clock = profiler.clock
            step_spans: list[float] = []
            deliver_spans: list[float] = []
        executed = 0
        try:
            while True:
                if until is not None and until():
                    return executed
                if not (n := count()):
                    return executed  # quiescent
                if executed >= max_steps:
                    raise EventBudgetExceeded(self.steps)
                if profiler is not None:
                    step_started = clock()
                if drawn:
                    rank, k = n, n.bit_length()
                    while rank >= n:
                        rank = getrandbits(k)
                    scheduler.now = time = scheduler.now + 1.0
                else:
                    rank, time = choose()
                record(rank)
                if time > self.now:
                    self.now = time
                self.steps += 1
                executed += 1
                if profiler is not None:
                    started = clock()
                if drawn and len(blocks) == 1:
                    env = blocks[0].pop(rank)
                    seqs[0].pop(rank)
                    del seq_of[env.uid]
                else:
                    env = pop(rank)
                delivered[env.dest] += 1
                if observer is not None:
                    # ``sink.named(slot, payload, 1)`` inline (seq 0: no id).
                    sink, payload = observer.sink, env.payload
                    slot, seq = id(payload), network._mids.pop(env.uid, 0)
                    sink.record((self.now, DELIVER, env.dest, slot,
                                 env.source if seq else None, seq))
                    sink.payloads[slot] = payload
                    sink.recorded += 1
                    if sink.recorded >= sink.due:
                        sink.settle()
                target = processes.get(env.dest)
                if target is not None:
                    target.deliver(env.source, env.payload)
                if profiler is not None:
                    ended = clock()
                    deliver_spans.append(ended - started)
                    step_spans.append(ended - step_started)
                    if len(step_spans) >= SPAN_BUFFER:
                        profiler.fold("sim_deliver", deliver_spans)
                        profiler.fold("sim_step", step_spans)
        finally:
            if profiler is not None:
                profiler.fold("sim_deliver", deliver_spans)
                profiler.fold("sim_step", step_spans)

    def close(self) -> None:
        """Unlink the run's reference cycles; idempotent.

        Every registered process is closed (its modules unlinked from
        it and from each other) and dropped from the network, and the
        clocks bound into the network and its observer are frozen at the
        final virtual time, so nothing refers back to this object.  The
        tallies, the schedule and :attr:`now` stay readable; delivering
        again raises :class:`SimulationError`.
        """
        if self._closed:
            return
        self._closed = True
        network = self.network
        for process in network.processes.values():
            close = getattr(process, "close", None)
            if close is not None:
                close()
        network.processes.clear()
        final = self.now
        network.bind_clock(lambda: final)
        if network.observer is not None:
            network.observer.bind_clock(lambda: final)

    @property
    def quiescent(self) -> bool:
        return not self.pending
