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
format.  Every node is built by
:func:`~repro.runtime.node.assemble_node`, the code that builds an
``mp`` node too; the cluster owns only what is shared — the hub or the
tcp endpoints, the netem clock and policy, the progress wait, shutdown.

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
from typing import Any, Dict, Optional

from ..errors import ConfigError
from ..net.auth import KeyRing
from ..obs import MetricsRegistry, Observer, build_profiler
from ..outcome import build_result
from ..netem import LinkPolicy, TickClock, WallClock
from ..netem.clock import Clock
from ..recovery import parse_recovery
from ..recovery.wal import wal_filename
from ..scenario.spec import Scenario
from ..stacks import ProtocolPlan
from ..types import ProcessId, RunResult
from .node import Node, assemble_node
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
        self.netem = scenario.netem_config()
        self.recovery_mode, self.wal_dir = parse_recovery(scenario.recovery)
        self._owns_wal_dir = False
        self.plan = ProtocolPlan.for_scenario(scenario)
        self.proposals: Dict[ProcessId, Any] = self.plan.default_proposals(
            scenario.proposals
        )

        self.nodes: Dict[ProcessId, Node] = {}
        self.transports: Dict[ProcessId, Transport] = {}
        self._hub: Optional[LocalHub] = None
        self._policy: Optional[LinkPolicy] = None
        self._clock: Optional[Clock] = None
        self._progress = asyncio.Event()
        self._zero = 0.0
        self._started = False
        self.observer = observer
        self.registry = MetricsRegistry()
        # One cluster-wide profiler: nodes share the registry, so span
        # histograms aggregate across the whole cluster (per-node splits
        # would multiply histogram storage for no analytical gain here).
        self.profiler = build_profiler(scenario.profile, self.registry)
        if self.observer is not None:
            self.observer.bind_clock(self._elapsed)

    # -- assembly ------------------------------------------------------------

    async def start(self) -> "Cluster":
        """Bind transports, assemble every node, and launch the run loops."""
        if self._started:
            raise ConfigError("cluster already started")
        self._started = True
        await self._make_transports()
        if self.recovery_mode == "wal" and self.wal_dir is None:
            # ``recovery: "wal"`` names no directory: log into a temp dir
            # shutdown() removes.  ``wal:DIR`` files are the caller's.
            self.wal_dir = tempfile.mkdtemp(prefix="repro-wal-")
            self._owns_wal_dir = True
        scenario = self.scenario
        for pid, transport in list(self.transports.items()):
            node = assemble_node(
                scenario, pid, transport, self.plan, self.proposals,
                self._elapsed, observer=self.observer, policy=self._policy,
                clock=self._clock,
                wal_path=(
                    None if self.wal_dir is None
                    else os.path.join(self.wal_dir, wal_filename(pid))
                ),
                wal_header={"run_id": f"{scenario.fabric}-{scenario.seed}"},
                on_activation=lambda _node: self._progress.set(),
            )
            node.profiler = self.profiler
            self.nodes[pid] = node
            self.transports[pid] = node.transport

        self._zero = time.monotonic()
        for node in self.nodes.values():
            node.launch()
        return self

    def _elapsed(self) -> float:
        """Seconds since the run loops launched: the one cluster-wide
        timeline of decide times and events."""
        return time.monotonic() - self._zero

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
        correct = [node for node in self.nodes.values() if node.modules is not None]
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        timed_out = False
        while not all(node.done.is_set() for node in correct):
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
            missing = [
                node.pid for node in correct
                if not self.plan.decided(node.modules)
            ]
            failures.append(
                f"timeout after {timeout}s; nodes still undecided: {missing}"
            )
        meta: Dict[str, Any] = {
            "transport": scenario.fabric, "protocol": scenario.protocol,
            "instances": scenario.instances, "batching": scenario.batching,
            "codec": scenario.codec,
        }
        if self.recovery_mode == "wal":
            meta["recovery"] = {"mode": "wal", "dir": self.wal_dir}
            self.registry.count("wal_records", sum(
                node.wal.next_seq for node in correct
            ))
        return build_result(
            [node.report() for node in self.nodes.values()],
            correct=[node.pid for node in correct],
            faulty=[pid for pid, node in self.nodes.items() if node.modules is None],
            proposals=self.proposals, params=self.params, check=check,
            elapsed=self._elapsed(), registry=self.registry,
            meta=meta, failures=failures,
        )

    def _crash_check(self) -> None:
        for node in self.nodes.values():
            if node.crashed is not None:
                raise node.crashed

    async def shutdown(self) -> None:
        """Stop every node's pump, then tear each node down (its WAL and
        transport, see :meth:`Node.close`), then the hub and the clock.

        All pumps stop before the first await, so the result
        :meth:`run` built is the run's last word: no node delivers,
        sends or logs while the others close.
        """
        for node in self.nodes.values():
            node.stop()
        await asyncio.gather(
            *(node.close() for node in self.nodes.values()),
            # Transports whose node was never assembled.
            *(t.close() for pid, t in self.transports.items()
              if pid not in self.nodes),
            return_exceptions=True,
        )
        if self._hub is not None:
            await self._hub.close()
        if self._clock is not None:
            await self._clock.close()
        if self._owns_wal_dir:
            shutil.rmtree(self.wal_dir, ignore_errors=True)
        if self.observer is not None:
            # The bound ``_elapsed`` would tie the observer to this cluster.
            final = self._elapsed()
            self.observer.bind_clock(lambda: final)

    async def __aenter__(self) -> "Cluster":
        return await self.start()

    async def __aexit__(self, *_exc: Any) -> None:
        await self.shutdown()


__all__ = ["Cluster"]
