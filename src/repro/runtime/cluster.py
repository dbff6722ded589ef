"""Cluster driver: spawn n nodes, run a scenario to decision, measure.

:class:`Cluster` assembles the runtime analogue of
:func:`repro.scenario.assemble` from the same
:class:`~repro.scenario.Scenario`: the same protocol
stacks (Bracha, Ben-Or and its crash variant, MMR-14, ACS), the same
coin schemes, and the same Byzantine behaviors — but each process lives
on its own :class:`~repro.runtime.node.Node` with a private
:class:`~repro.runtime.node.NodeNetwork`, pumped concurrently over a
real :class:`~repro.runtime.transport.Transport` ("local" asyncio
queues or authenticated "tcp"), both carrying the one binary wire
format.

The driver can run *many* consensus instances per node in one execution
(``instances > 1``): Bracha instances share one reliable-broadcast
layer exactly as the ACS application does, which is the batching shape
later scaling work builds on.

Results come back through the run spine every fabric shares
(:mod:`repro.outcome`): each node is read out into a
:class:`~repro.outcome.NodeReport` and
:func:`~repro.outcome.build_result` sums the counters and applies the
safety and liveness checks, so sim and runtime executions are directly
comparable in tables and benchmarks.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional

from ..adversary.behaviors import ByzantineBehavior
from ..errors import ConfigError
from ..net.auth import KeyRing
from ..obs import MetricsRegistry, Observer, build_profiler
from ..outcome import NodeReport, build_result
from ..netem import LinkPolicy, ReliableLink, TickClock, WallClock
from ..netem.clock import Clock
from ..recovery.wal import WalWriter, parse_recovery, wal_filename
from ..scenario.spec import Scenario
from ..sim.process import Process
from ..stacks import ProtocolPlan, build_plan_behavior
from ..types import ProcessId, RunResult
from .node import Node, NodeNetwork
from .tcp import TcpTransport
from .transport import LocalHub, Transport


# ---------------------------------------------------------------------------
# The cluster
# ---------------------------------------------------------------------------


class Cluster:
    """n concurrently-running nodes executing one scenario to decision.

    A scenario (fabric ``local`` or ``tcp``) is the whole configuration;
    :func:`repro.scenario.run` is the one-shot path.  White-box callers
    hold the cluster open to read its nodes and transports::

        async with Cluster(Scenario(fabric="tcp")) as cluster:
            result = await cluster.run()
    """

    def __init__(self, scenario: Scenario, observer: Optional[Observer] = None):
        if scenario.fabric not in ("local", "tcp"):
            raise ConfigError(
                "Cluster runs the 'local' and 'tcp' fabrics only, not "
                f"{scenario.fabric!r}"
            )
        self.scenario = scenario
        self.params = scenario.params
        self.faults = scenario.faults_dict()
        self.netem = scenario.netem_config()
        self.recovery_mode, self.wal_dir = parse_recovery(scenario.recovery)
        self._owns_wal_dir = False
        self.plan = ProtocolPlan.for_scenario(scenario)
        self.proposals: Dict[ProcessId, Any] = self.plan.default_proposals(
            scenario.proposals
        )

        self.nodes: Dict[ProcessId, Node] = {}
        self._wal_writers: Dict[ProcessId, WalWriter] = {}
        self.stacks: Dict[ProcessId, List[Any]] = {}  # correct nodes only
        self.behaviors: Dict[ProcessId, ByzantineBehavior] = {}
        self.transports: Dict[ProcessId, Transport] = {}
        self._tasks: List[asyncio.Task] = []
        self._hub: Optional[LocalHub] = None
        self._policy: Optional[LinkPolicy] = None
        self._clock: Optional[Clock] = None
        self._progress = asyncio.Event()
        self._decision_times: Dict[ProcessId, float] = {}
        self._decide_counts: Dict[ProcessId, int] = {}
        self._zero = 0.0
        self._started = False
        self.observer = observer
        self.registry = MetricsRegistry()
        # One cluster-wide profiler: nodes share the registry, so span
        # histograms aggregate across the whole cluster (per-node splits
        # would multiply histogram storage for no analytical gain here).
        self.profiler = build_profiler(scenario.profile, self.registry)
        if self.observer is not None:
            # One cluster-wide timeline: seconds since the run loops
            # launched (the closure reads _zero when each event fires).
            self.observer.bind_clock(lambda: time.monotonic() - self._zero)

    # -- assembly ------------------------------------------------------------

    async def start(self) -> "Cluster":
        """Bind transports, build nodes, and launch every run loop."""
        if self._started:
            raise ConfigError("cluster already started")
        self._started = True
        n = self.params.n
        await self._make_transports()

        for pid in range(n):
            network = NodeNetwork(pid, self.params, seed=self.scenario.seed)
            network.observer = self.observer
            if pid in self.faults:
                behavior = build_plan_behavior(
                    pid, self.faults[pid], network, self.params,
                    self.plan, self.proposals,
                )
                self.behaviors[pid] = behavior
                target: Any = behavior
            else:
                process = Process(pid, network, self.params)  # type: ignore[arg-type]
                process.on_decide = (
                    lambda effect, p=pid: self._handle_decide(p, effect)
                )
                modules = self.plan.build(process)
                self.stacks[pid] = modules
                target = process
            node = Node(
                pid, network, self.transports[pid], target,
                on_activation=self._on_activation,
                batching=self.scenario.batching,
            )
            node.profiler = self.profiler
            self.nodes[pid] = node

        if self.recovery_mode == "wal":
            self._attach_wals()

        # Queue proposals before the run loops start so every correct
        # node proposes immediately after its modules' start() hooks.
        for pid, modules in self.stacks.items():
            bit = self.proposals[pid]
            self.nodes[pid].queue_action(
                lambda m=modules, p=pid, b=bit: self._propose(p, m, b)
            )

        self._zero = time.monotonic()
        self._tasks = [
            asyncio.ensure_future(node.run()) for node in self.nodes.values()
        ]
        return self

    def _attach_wals(self) -> None:
        """Open one WAL per correct node and hook it into the pump.

        The header binds each file to this exact run (seed, protocol,
        instances), so a recovery boot against the wrong scenario is
        refused rather than replayed into nonsense.
        """
        if self.wal_dir is None:
            # ``recovery: "wal"`` names no directory: log into a temp dir
            # shutdown() removes.  ``wal:DIR`` files are the caller's.
            self.wal_dir = tempfile.mkdtemp(prefix="repro-wal-")
            self._owns_wal_dir = True
        scenario = self.scenario
        for pid in self.stacks:
            writer = WalWriter.open(
                os.path.join(self.wal_dir, wal_filename(pid)),
                {
                    "run_id": f"{scenario.fabric}-{scenario.seed}",
                    "node": pid,
                    "seed": scenario.seed,
                    "protocol": scenario.protocol,
                    "instances": scenario.instances,
                },
            )
            self._wal_writers[pid] = writer
            self.nodes[pid].wal = writer

    def _propose(self, pid: ProcessId, modules: List[Any], bit: Any) -> None:
        writer = self._wal_writers.get(pid)
        if writer is not None:
            writer.append_propose(bit)
        self.plan.propose(modules, pid, bit)

    async def _make_transports(self) -> None:
        n, scenario = self.params.n, self.scenario
        if self.netem is not None:
            # The local fabric runs on deterministic virtual time (one
            # tick per event-loop pass); TCP runs on the wall clock.
            # Started only after the transports are up, so bind/connect
            # latency cannot eat into scripted partition windows.
            self._clock = (
                TickClock() if scenario.fabric == "local" else WallClock()
            )
            self._policy = LinkPolicy(
                n, self.netem, seed=scenario.seed, observer=self.observer
            )
        if scenario.fabric == "local":
            self._hub = LocalHub(n, policy=self._policy, clock=self._clock)
            self.transports = {pid: self._hub.endpoint(pid) for pid in range(n)}
        else:
            ring = KeyRing(
                n, master_secret=f"cluster-setup-{scenario.seed}".encode()
            )
            endpoints: Dict[ProcessId, TcpTransport] = {}
            for pid in range(n):
                port = 0 if scenario.base_port == 0 else scenario.base_port + pid
                endpoints[pid] = TcpTransport(
                    pid, n, ring, host=scenario.host, port=port,
                    policy=self._policy, clock=self._clock,
                )
                endpoints[pid].profiler = self.profiler
            for t in endpoints.values():
                await t.start()
            peers = {pid: t.address for pid, t in endpoints.items()}
            for t in endpoints.values():
                t.set_peers(peers)
            await asyncio.gather(*(t.connect() for t in endpoints.values()))
            self.transports = dict(endpoints)
        if self.netem is not None:
            self._clock.start()
        if self.netem is not None and self.netem.retransmit:
            # Every node gets the link layer (uniform framing); the
            # eventual-delivery guarantee it provides only binds between
            # correct endpoints — a faulty peer may ignore the
            # discipline, and its unacked frames die after max_retries.
            # Resends pause for scripted partitions (severed) so the
            # retry budget is spent on unresponsive peers, not windows
            # the scenario promised would heal.
            policy = self._policy
            self.transports = {
                pid: ReliableLink(
                    t, self._clock,
                    rto=self.netem.rto, max_retries=self.netem.max_retries,
                    severed=(
                        lambda dest, now, src=pid: policy.severed(src, dest, now)
                    ),
                    observer=self.observer,
                )
                for pid, t in self.transports.items()
            }
            for t in self.transports.values():
                t.start_scan()

    # -- progress tracking ---------------------------------------------------

    def _handle_decide(self, pid: ProcessId, effect: Any) -> None:
        """A module surfaced a Decide effect: count it, emit the event."""
        self._decide_counts[pid] = self._decide_counts.get(pid, 0) + 1
        if self.observer is not None:
            self.observer.emit(
                "decide", node=pid, instance=effect.module,
                round=effect.round, detail=effect.value,
            )

    def _on_activation(self, node: Node) -> None:
        modules = self.stacks.get(node.pid)
        if modules is not None and node.pid not in self._decision_times:
            if self.plan.decided(modules):
                self._decision_times[node.pid] = time.monotonic() - self._zero
        self._progress.set()

    # -- execution -----------------------------------------------------------

    async def run(self, check: bool = True) -> RunResult:
        """Wait for the stop condition, then collect and verify a result.

        The scenario's ``stop`` is ``"decided"`` (every correct node
        decided every instance) or ``"halted"`` (every correct node may
        stop participating).  Running past its ``timeout`` raises
        :class:`~repro.errors.LivenessFailure` under ``check=True`` and
        is recorded as a violation otherwise.
        """
        if not self._started:
            await self.start()
        scenario = self.scenario
        timeout = scenario.timeout
        done = self.plan.decided if scenario.stop == "decided" else self.plan.halted

        def predicate() -> bool:
            return all(done(modules) for modules in self.stacks.values())

        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        timed_out = False
        while not predicate():
            self._crash_check()
            remaining = deadline - loop.time()
            if remaining <= 0:
                timed_out = True
                break
            self._progress.clear()
            try:
                await asyncio.wait_for(self._progress.wait(), remaining)
            except asyncio.TimeoutError:
                timed_out = True
                break
        # A node that died without a subsequent activation would read as
        # a timeout; surface the real exception instead.
        self._crash_check()

        failures = []
        if timed_out:
            missing = sorted(
                pid for pid, modules in self.stacks.items()
                if not self.plan.decided(modules)
            )
            failures.append(
                f"timeout after {timeout}s; nodes still undecided: {missing}"
            )
        reports = [
            NodeReport.from_modules(
                pid, self.stacks.get(pid), node.network.sent_by_kind,
                delivered=node.messages_delivered,
                decide_time=self._decision_times.get(pid),
                module_decisions=self._decide_counts.get(pid, 0),
                node=node, transport=self.transports[pid], policy=self._policy,
            )
            for pid, node in self.nodes.items()
        ]
        meta: Dict[str, Any] = {
            "transport": scenario.fabric, "protocol": scenario.protocol,
            "instances": scenario.instances, "batching": scenario.batching,
            "codec": scenario.codec,
        }
        if self.recovery_mode == "wal":
            meta["recovery"] = {"mode": "wal", "dir": self.wal_dir}
            self.registry.count(
                "wal_records",
                sum(w.next_seq for w in self._wal_writers.values()),
            )
        return build_result(
            reports, correct=self.stacks, faulty=self.behaviors,
            proposals=self.proposals, params=self.params, check=check,
            elapsed=time.monotonic() - self._zero, registry=self.registry,
            meta=meta, failures=failures,
        )

    def _crash_check(self) -> None:
        for node in self.nodes.values():
            if node.crashed is not None:
                raise node.crashed

    async def shutdown(self) -> None:
        """Close transports, netem machinery, WALs, and all node tasks."""
        for writer in self._wal_writers.values():
            writer.close()
        if self._owns_wal_dir:
            shutil.rmtree(self.wal_dir, ignore_errors=True)
        await asyncio.gather(
            *(t.close() for t in self.transports.values()), return_exceptions=True
        )
        if self._hub is not None:
            await self._hub.close()
        if self._clock is not None:
            await self._clock.close()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)

    async def __aenter__(self) -> "Cluster":
        return await self.start()

    async def __aexit__(self, *_exc: Any) -> None:
        await self.shutdown()


__all__ = ["Cluster"]
