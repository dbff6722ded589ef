"""The simulation loop.

A :class:`Simulation` owns the pending-message set, the scheduler and
the network.  Running proceeds one delivery at a time, in one loop
(:meth:`Simulation.run`; :meth:`~Simulation.step` is one pass of it):
ask the scheduler for the rank of the next envelope, record the rank,
have the network pop that envelope and deliver it, repeat — until a
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

        The one delivery loop: the scheduler names a rank, the rank is
        recorded, and the network pops and delivers that envelope.
        Returns the number of steps executed in this call.  Raises
        :class:`EventBudgetExceeded` if the budget runs out first —
        which, for a correct protocol under an admissible scheduler,
        indicates a livelock and is treated as a test failure.
        """
        if self._closed:
            raise SimulationError("simulation is closed: it cannot deliver again")
        if not self._started:
            self.start()
        pending, record = self.pending, self.schedule.append
        choose, deliver = self.scheduler.choose, self.network.deliver
        profiler = self.profiler
        # The profiler's clock, called directly: a span costs the one
        # ``stop`` frame, not a ``start`` frame as well.
        clock = profiler.clock if profiler is not None else None
        executed = 0
        while True:
            if until is not None and until():
                return executed
            if not pending:
                return executed  # quiescent
            if executed >= max_steps:
                raise EventBudgetExceeded(self.steps)
            if profiler is not None:
                step_started = clock()
            rank, time = choose()
            record(rank)
            if time > self.now:
                self.now = time
            self.steps += 1
            executed += 1
            if profiler is None:
                deliver(rank, self.now)
            else:
                started = clock()
                deliver(rank, self.now)
                profiler.stop("sim_deliver", started)
                profiler.stop("sim_step", step_started)

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

    def run_to_quiescence(self, max_steps: int = 2_000_000) -> int:
        """Deliver every message until none are in flight."""
        return self.run(until=None, max_steps=max_steps)

    @property
    def quiescent(self) -> bool:
        return not self.pending
