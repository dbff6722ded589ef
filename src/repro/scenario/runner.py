"""Fabric-agnostic scenario execution.

:func:`run` is the single entry point that takes a declarative
:class:`~repro.scenario.spec.Scenario` and executes it on whichever
fabric it names:

* ``sim`` — the deterministic discrete-event simulator, with the
  scenario's scheduler as the network adversary;
* ``local`` — the asyncio runtime over in-process queues (every payload
  still round-trips through the binary wire codec);
* ``tcp`` — the asyncio runtime over authenticated binary frames on TCP;
* ``mp`` — one OS process per node over the same TCP transport,
  bootstrapped by a trusted-setup dealer (:mod:`repro.mp`).

All four build their per-process stacks through the same
:class:`~repro.stacks.ProtocolPlan` and end in the same run spine
(:mod:`repro.outcome`: per-node :class:`~repro.outcome.NodeReport` →
:func:`~repro.outcome.build_result`), so one scenario is directly
comparable across fabrics::

    from repro.scenario import Scenario, run

    scenario = Scenario(protocol="bracha", n=4, proposals=1, seed=7)
    print(run(scenario).decided_values)               # {1} on the simulator
    print(run(scenario, fabric="tcp").decided_values)  # {1} over real sockets
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..errors import ConfigError, EventBudgetExceeded
from ..obs import MetricsRegistry, Observer, build_observer, build_profiler
from ..outcome import NodeReport, build_result
from ..sim.process import Process
from ..sim.rng import derive_seed
from ..sim.runner import Simulation
from ..sim.scheduler import Scheduler
from ..stacks import ProtocolPlan, build_plan_behavior
from ..types import ProcessId, RunResult
from .spec import Scenario

if TYPE_CHECKING:
    from ..recovery.restart import RestartBehavior


def run(
    scenario: Scenario,
    check: bool = True,
    keep_scratch: bool = False,
    **overrides: Any,
) -> RunResult:
    """Execute a scenario on its declared fabric; return a verified result.

    Keyword overrides are scenario fields applied via
    :meth:`~repro.scenario.spec.Scenario.replace` — ``run(s,
    fabric="tcp")`` or ``run(s, seed=3)`` run a variant without mutating
    the spec.  With ``check=True`` safety/liveness violations raise; with
    ``check=False`` they are recorded in ``result.violations``.
    ``keep_scratch`` preserves the mp fabric's scratch directory (bundles
    and WALs) for debugging instead of deleting it after the run.
    """
    if overrides:
        scenario = scenario.replace(**overrides)
    if scenario.fabric == "sim":
        return _run_sim(scenario, check)
    observer = build_observer(scenario.observe)
    try:
        if scenario.fabric == "mp":  # one OS process per node
            from ..mp.orchestrator import run_mp_sync

            result = run_mp_sync(
                scenario, check=check, observer=observer,
                keep_scratch=keep_scratch,
            )
        else:
            result = _run_runtime(scenario, check, observer)
    finally:
        # Flush/close the sink even when verification raises, so a
        # failing run still leaves a readable JSONL trace behind.
        summary = observer.close() if observer is not None else None
    return _stamp(result, scenario, observer, summary)


def _stamp(
    result: RunResult,
    scenario: Scenario,
    observer: Optional[Observer],
    summary: Optional[Dict[str, Any]],
) -> RunResult:
    """The ``meta`` keys every fabric's result ends with."""
    if observer is not None:
        result.meta["obs"] = summary
        if summary.get("sink") == "ring":
            result.meta["obs_events"] = observer.events()
    result.meta["scenario"] = scenario.name or "<inline>"
    result.meta["fabric"] = scenario.fabric
    return result


def repeat(
    scenario: Scenario, trials: int, check: bool = True, **overrides: Any
) -> List[RunResult]:
    """Run ``trials`` independent seeded executions of one scenario.

    A ``seed`` override replaces the scenario's own seed as the base the
    per-trial seeds derive from.
    """
    if trials < 1:
        raise ConfigError(f"need at least one trial, got {trials}")
    base_seed = overrides.pop("seed", scenario.seed)
    return [
        run(scenario, check=check, seed=derive_seed(base_seed, "trial", i),
            **overrides)
        for i in range(trials)
    ]


# ---------------------------------------------------------------------------
# sim fabric
# ---------------------------------------------------------------------------


class SimRun:
    """One assembled ``sim``-fabric execution (see :func:`assemble`).

    ``run()`` then ``result()`` is the whole of a sim ``run(scenario)``.
    White-box callers ``start()`` and step ``sim`` themselves, reading
    the live objects on the way: ``stacks`` (correct pid → decision
    modules, one per instance), ``behaviors`` (faulty pid → behavior),
    ``restart_nodes``, ``sim.network``, ``sim.pending``.  ``until`` is
    the scenario's stop predicate (``None`` for ``quiescent``).  The
    graph stays live, and inspectable after ``result()``, until
    :meth:`close` unlinks it; but ``result()`` closes the observer, so a
    step taken after it is not observed.
    """

    def __init__(
        self,
        scenario: Scenario,
        plan: Optional[ProtocolPlan] = None,
        scheduler: Optional[Scheduler] = None,
    ):
        if scenario.fabric != "sim":
            raise ConfigError(
                f"assemble() builds the 'sim' fabric only, not {scenario.fabric!r}"
            )
        params = scenario.params
        if plan is None:
            plan = ProtocolPlan.for_scenario(scenario)
        if scheduler is None:
            scheduler = scenario.build_scheduler()
        proposals = plan.default_proposals(scenario.proposals)
        faults = scenario.faults_dict()

        sim = Simulation(seed=scenario.seed, scheduler=scheduler)
        registry = MetricsRegistry()
        observer = build_observer(scenario.observe)
        if observer is not None:
            observer.bind_clock(lambda: sim.now)
            sim.network.observer = observer
        sim.profiler = build_profiler(scenario.profile, registry)
        # First-Decide virtual time per node, captured the moment the effect
        # applies — richer than stamping every decision with the end time.
        decide_times: Dict[ProcessId, float] = {}
        # A recovery replay re-fires Decide effects the pre-crash execution
        # already reported; count/emit each (node, module) decision once.
        decided_modules: Dict[ProcessId, set] = {}

        # False while ``until`` (below) may answer False without polling.
        recheck = True

        def _on_decide(pid: ProcessId, effect: Any) -> None:
            nonlocal recheck
            recheck = True
            seen = decided_modules.setdefault(pid, set())
            if effect.module in seen:
                return
            seen.add(effect.module)
            decide_times.setdefault(pid, sim.now)
            if observer is not None:
                observer.emit(
                    "decide", node=pid, instance=effect.module,
                    round=effect.round, detail=effect.value,
                )

        stacks: Dict[ProcessId, List[Any]] = {}
        behaviors: Dict[ProcessId, Any] = {}
        restart_nodes: Dict[ProcessId, RestartBehavior] = {}
        restart_specs = scenario.fault_specs("restart")
        if restart_specs:
            from ..recovery.restart import RestartBehavior
        for pid in range(scenario.n):
            if pid in restart_specs:
                spec = restart_specs[pid]

                def _factory(process: Process, p: ProcessId = pid) -> List[Any]:
                    process.on_decide = lambda effect: _on_decide(p, effect)
                    return plan.build(process)

                node = RestartBehavior(
                    pid, sim.network, params, _factory,
                    after=int(spec.get("after", 8)),
                    down=int(spec.get("down", 1)),
                )
                sim.network.register(node)
                restart_nodes[pid] = node
            elif pid in faults:
                behavior = build_plan_behavior(
                    pid, faults[pid], sim.network, params, plan, proposals
                )
                sim.network.register(behavior)
                behaviors[pid] = behavior
            else:
                process = Process(pid, sim.network, params)
                process.on_decide = lambda effect, p=pid: _on_decide(p, effect)
                stacks[pid] = plan.build(process)

        # A Process stack's decided/halted flags only ever turn on, so the
        # stop predicate keeps a watch-list of the stacks not yet done and
        # tests only its tail: it shrinks as nodes finish instead of being
        # re-walked every step.  Restart nodes are *correct* — they must
        # decide/halt like any other correct node — but their module list is
        # rebuilt on recovery (not monotone), so they are polled in full,
        # through the behavior rather than a snapshot.
        if scenario.stop in ("decided", "halted"):
            decided = scenario.stop == "decided"
            stack_done = plan.decided if decided else plan.halted
            waiting = list(stacks.values())

            # Where a module's ``decided`` turns on only in the activation
            # that issues its Decide effect (a recovering restart node
            # replays its decisions through the same hook), a false answer
            # under ``decided`` turns true only on a step on which
            # ``_on_decide`` fired: until then, polling is skipped.  Other
            # stacks, and ``halted``, which has no hook, are polled after
            # every step.
            gated = decided and plan.decides_by_effect

            def until() -> bool:
                nonlocal recheck
                if not recheck:
                    return False
                while waiting and stack_done(waiting[-1]):
                    waiting.pop()
                done = not waiting and all(
                    node.is_decided(plan) if decided else node.is_halted(plan)
                    for node in restart_nodes.values()
                )
                recheck = done or not gated
                return done
        else:  # "quiescent" — drain every message
            until = None

        self.scenario, self.sim, self.plan = scenario, sim, plan
        self.proposals, self.stacks, self.behaviors = proposals, stacks, behaviors
        self.restart_nodes, self.until = restart_nodes, until
        self.registry, self.observer = registry, observer
        self.decide_times, self.decided_modules = decide_times, decided_modules
        self.started = False
        #: The step budget ran out in :meth:`run`; :meth:`result` raises it
        #: under ``check=True`` and records it as a failure otherwise.
        self.exhausted: Optional[EventBudgetExceeded] = None

    def start(self) -> None:
        """Start every process, then hand the correct ones their proposals."""
        self.started = True
        self.sim.start()
        for pid, modules in self.stacks.items():
            self.plan.propose(modules, pid, self.proposals[pid])
        for pid, node in self.restart_nodes.items():
            node.propose(self.plan, self.proposals[pid])

    def run(self) -> "SimRun":
        """Deliver until the stop condition holds or ``max_steps`` run out."""
        if not self.started:
            self.start()
        try:
            self.sim.run(until=self.until, max_steps=self.scenario.max_steps)
        except EventBudgetExceeded as exc:
            # Kept without its traceback, whose frames would hold this
            # run in a reference cycle.
            self.exhausted = exc.with_traceback(None)
        return self

    def result(self, check: bool = True) -> RunResult:
        """Read every node out and verify — the end of ``run(scenario)``.

        The observer's sink is closed (a ring keeps what it holds) and
        the network stops recording, so later steps leave no record."""
        scenario, sim, restart_nodes = self.scenario, self.sim, self.restart_nodes
        observer, registry = self.observer, self.registry
        # The sink is flushed before verification, so a run that fails
        # it still leaves a readable JSONL trace behind.
        summary = None
        if observer is not None:
            summary = observer.close()
            sim.network.observer = None
        failures: List[str] = []
        if self.exhausted is not None:
            if check:
                # A fresh copy: raising the kept one would give it a
                # traceback through this frame, which holds ``self``.
                raise EventBudgetExceeded(self.exhausted.steps)
            failures.append("event budget exhausted (possible livelock)")
        # A restart node still down when the run ends has no modules to
        # read and files no report: a correct node was expected back.
        still_down = sorted(p for p, r in restart_nodes.items() if r.down_now)
        if still_down:
            failures.append(
                f"restart nodes never recovered: {still_down} "
                "(no traffic arrived after the down window)"
            )
        readout: Dict[ProcessId, List[Any]] = dict(self.stacks)
        readout.update(
            (p, r.modules) for p, r in restart_nodes.items() if not r.down_now
        )
        reports = [
            NodeReport.from_modules(
                pid, readout.get(pid), sim.network.sent_by_kind[pid],
                delivered=sim.network.delivered[pid],
                decide_time=self.decide_times.get(pid),
                module_decisions=len(self.decided_modules.get(pid, ())),
            )
            for pid in range(scenario.n) if pid not in still_down
        ]

        meta: Dict[str, Any] = {
            "protocol": scenario.protocol, "instances": scenario.instances,
            "batching": scenario.batching, "codec": scenario.codec,
        }
        if restart_nodes:
            nodes = restart_nodes.values()
            meta["restarted"] = sorted(restart_nodes)
            registry.count("restarts", sum(r.restarts for r in nodes))
            registry.count("recovery_replayed", sum(r.replayed for r in nodes))
            recovered = [
                r.recovery_time for r in nodes if r.recovery_time is not None
            ]
            if recovered:
                registry.gauge("recovery_time", max(recovered))
        result = build_result(
            reports, correct=set(self.stacks) | set(restart_nodes),
            faulty=self.behaviors, proposals=self.proposals,
            params=scenario.params, check=check, elapsed=sim.now,
            registry=registry, meta=meta, failures=failures,
        )
        return _stamp(result, scenario, observer, summary)

    def close(self) -> None:
        """Unlink the run's object graph (:meth:`Simulation.close
        <repro.sim.runner.Simulation.close>`); idempotent.  The built
        result is plain data and is untouched.  The observer's sink is
        closed first, so a run that raised still writes its trace."""
        if self.observer is not None:
            self.observer.sink.close()
        self.sim.close()


def assemble(
    scenario: Scenario,
    plan: Optional[ProtocolPlan] = None,
    scheduler: Optional[Scheduler] = None,
) -> SimRun:
    """Assemble, but do not start, a scenario's ``sim``-fabric execution.

    The two arguments are the live objects a :class:`Scenario` cannot
    spell as data, and both default to what the scenario declares:
    ``plan`` (:meth:`ProtocolPlan.for_scenario(scenario, coin=, stack=)
    <repro.stacks.ProtocolPlan.for_scenario>` — to share a
    :class:`~repro.core.coin.CoinScheme` object with a coin-aware
    scheduler, or to install an :func:`~repro.stacks.ablation_stack`)
    and ``scheduler`` (any :class:`~repro.sim.scheduler.Scheduler`
    instance).
    """
    return SimRun(scenario, plan, scheduler)


def _run_sim(scenario: Scenario, check: bool) -> RunResult:
    sim_run = assemble(scenario)
    try:
        return sim_run.run().result(check)
    finally:
        # Also when verification raises: the graph is freed on return
        # by reference counting, not by the next run's collections.
        sim_run.close()


# ---------------------------------------------------------------------------
# runtime fabrics (local queues / authenticated TCP)
# ---------------------------------------------------------------------------


def _run_runtime(
    scenario: Scenario, check: bool, observer: Optional[Observer] = None
) -> RunResult:
    import asyncio

    from ..runtime.cluster import Cluster

    async def execute() -> RunResult:
        cluster = Cluster(scenario, observer)
        try:
            return await cluster.run(check)  # starts the cluster first
        finally:
            await cluster.shutdown()

    return asyncio.run(execute())


__all__ = ["SimRun", "assemble", "repeat", "run"]
