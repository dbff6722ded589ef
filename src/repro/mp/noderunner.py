"""One node, one OS process: the ``repro node`` entry point.

The runner is the per-process analogue of what
:class:`~repro.runtime.cluster.Cluster` assembles n times in one
interpreter — and it is deliberately the *same* stack: a
:class:`~repro.stacks.ProtocolPlan`-built engine on a
:class:`~repro.runtime.node.Node` pump, over
:class:`~repro.runtime.tcp.TcpTransport` (netem
:class:`~repro.netem.LinkPolicy` and
:class:`~repro.netem.ReliableLink` included, when the scenario declares
them).  Nothing protocol-side knows it left the single-process world.

Lifecycle:

1. read the manifest and this node's bundle; **validate** the bundle
   against the manifest (scenario hash, MAC-key coverage, coin-seed
   derivation, dealer shares) — mismatched setup refuses to boot;
2. bind the TCP listener at the manifest's address (port 0, and any
   respawn: any free port);
3. connect the control channel, say ``hello`` with the bound port, and
   wait for ``go`` (the start barrier, with every peer's address);
4. dial every peer, start the pump, propose;
5. on deciding (or halting, per the scenario's stop condition) send
   ``done``; redial a peer a ``peer`` line readdresses; on ``stop``
   send the full ``result`` readout and exit.

The node itself is built by :func:`~repro.runtime.node.assemble_node`,
the code :class:`~repro.runtime.cluster.Cluster` builds its nodes with;
the runner keeps what is the mp fabric's own: the bundle and manifest
checks, bind and dial, the control channel and WAL replay.  ``repro
node`` (:mod:`repro.cli`) is the one entry point: the fork server
(:mod:`repro.mp.zygote`) runs it in a forked child per node, and a
standalone node execs it.

Without a control endpoint the runner is standalone (manual multi-host
operation) and refuses a manifest with a port 0 in it.  It proposes as
soon as its peers are dialled, prints the ``result`` JSON to stdout
when its stop condition holds, lingers a grace period so slower peers
can still read from it, and exits.

Determinism note: every node seeds its :class:`NodeNetwork` and
:class:`LinkPolicy` from the scenario seed exactly as the in-process
cluster does.  Link-policy randomness is streamed per directed link, so
n per-process policy instances agree with one shared instance — each
node only consults the streams of its own outbound links.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import ReproError
from ..netem import LinkPolicy, WallClock
from ..recovery.wal import WalWriter, read_wal, replay, validate_header
from ..obs import Observer
from ..obs.observer import DEFAULT_RING_CAPACITY, parse_observe
from ..obs.sinks import RingSink
from ..runtime.node import Node, assemble_node
from ..runtime.tcp import TcpTransport
from ..stacks import ProtocolPlan
from ..types import ProcessId
from .bundle import NodeBundle, RunManifest, load_bundle, load_manifest
from .control import MAX_CONTROL_LINE, parse_endpoint, read_msg, send_msg

#: How long a node retries dialling peers that are still booting.
CONNECT_RETRY = 15.0


class NodeRunner:
    """Assembles and drives one node process end to end."""

    def __init__(self, manifest: RunManifest, bundle: NodeBundle,
                 wal_path: Optional[str] = None, recover: bool = False,
                 attempt: int = 0):
        bundle.validate(manifest)
        self.manifest = manifest
        self.bundle = bundle
        self.scenario = manifest.scenario
        self.pid = bundle.node
        self.params = self.scenario.params
        self.wal_path = wal_path
        self.recovering = recover
        self.attempt = int(attempt)
        self._wal_records: Optional[List[Dict[str, Any]]] = None
        self.replay_stats: Dict[str, Any] = {}
        self._replayed = asyncio.Event()
        if recover:
            if wal_path is None:
                raise ReproError("--recover needs the WAL path")
            # Read + verify the log *now*: a damaged or mismatched WAL
            # refuses the boot before the node ever says hello.
            header, self._wal_records = read_wal(wal_path)
            validate_header(
                header,
                run_id=manifest.run_id,
                scenario_hash=manifest.digest,
                node=self.pid,
                seed=self.scenario.seed,
                protocol=self.scenario.protocol,
                instances=self.scenario.instances,
            )
        self.plan = ProtocolPlan.for_scenario(self.scenario)
        self.proposals = self.plan.default_proposals(self.scenario.proposals)
        self.observer: Optional[Observer] = None
        mode, arg = parse_observe(self.scenario.observe)
        if mode != "off":
            # Node-side capture is always an in-memory ring; the
            # orchestrator owns the run's real sink and replays the
            # shipped events into it.
            capacity = arg if mode == "ring" else DEFAULT_RING_CAPACITY
            self.observer = Observer(RingSink(capacity))

        self.node: Optional[Node] = None
        self._tcp: Optional[TcpTransport] = None
        self._policy: Optional[LinkPolicy] = None
        self._clock: Optional[WallClock] = None
        self._zero = time.monotonic()

    # -- assembly ------------------------------------------------------------

    async def bind(self, port: Optional[int] = None) -> None:
        """Start the listener on the manifest's host, at ``port`` (0: any
        free port) or else the manifest's port."""
        netem = self.scenario.netem_config()
        if netem is not None:
            self._clock = WallClock()
            self._policy = LinkPolicy(
                self.params.n, netem, seed=self.scenario.seed,
                observer=self.observer,
            )
        host, listed = self.manifest.addresses[self.pid]
        self._tcp = TcpTransport(
            self.pid, self.params.n, self.bundle.keyring(self.params.n),
            host=host, port=listed if port is None else port,
            policy=self._policy, clock=self._clock,
        )
        await self._tcp.start()

    async def connect(self, peers: Mapping[ProcessId, Tuple[str, int]],
                      retry_for: float = CONNECT_RETRY) -> None:
        """Dial every peer at its address in ``peers`` (retrying while
        they boot) and build the node, its proposal (or, recovering, its
        WAL replay) queued."""
        self._tcp.set_peers(peers)
        await self._tcp.connect(retry_for=retry_for)
        if self._clock is not None:
            self._clock.start()
        self.node = assemble_node(
            self.scenario, self.pid, self._tcp, self.plan, self.proposals,
            self._elapsed, observer=self.observer, policy=self._policy,
            clock=self._clock, attempt=self.attempt,
            wal_path=None if self.recovering else self.wal_path,
            wal_header={"run_id": self.manifest.run_id,
                        "scenario_hash": self.manifest.digest},
            propose=not self.recovering,
        )
        if self.recovering and self.node.modules is not None:
            self._schedule_replay()

    def start_clock(self) -> None:
        """Zero the run timeline (called at the ``go`` barrier)."""
        self._zero = time.monotonic()
        if self.observer is not None:
            self.observer.bind_clock(self._elapsed)

    def _elapsed(self) -> float:
        """Seconds since the ``go`` barrier: this node's run timeline."""
        return time.monotonic() - self._zero

    def _schedule_replay(self) -> None:
        """Queue the WAL replay as the node task's first action.

        The replay runs inside the pump (so replayed sends flush to the
        transport) before any new delivery is consumed; only then is the
        WAL reopened for appending, so replayed records are not logged
        twice.
        """
        records = self._wal_records or []
        node, pid = self.node, self.pid
        modules = node.modules

        def action() -> None:
            started = time.monotonic()
            stats = replay(
                records,
                lambda value: self.plan.propose(modules, pid, value),
                node.target.deliver,
            )
            node.wal = WalWriter.resume(
                self.wal_path, len(records) + 1  # + the header record
            )
            if not stats["proposed"]:
                # Killed before the proposal was logged: propose fresh.
                bit = self.proposals[pid]
                node.wal.append_propose(bit)
                self.plan.propose(modules, pid, bit)
            self.replay_stats = {
                "replayed": stats["replayed"],
                "replay_ms": (time.monotonic() - started) * 1000.0,
            }
            if self.observer is not None:
                self.observer.emit(
                    "recovery_replayed", node=pid,
                    detail=dict(self.replay_stats),
                )
            self._replayed.set()

        node.queue_action(action)

    async def shutdown(self) -> None:
        """The node's teardown (:meth:`Node.close`: pump, WAL, transport,
        clock); before the node is built, the listener and the clock."""
        if self.node is not None:
            await self.node.close(self._clock)
            return
        if self._tcp is not None:
            await self._tcp.close()
        if self._clock is not None:
            await self._clock.close()


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


async def run_node(
    manifest_path: str,
    bundle_path: str,
    control: Optional[str] = None,
    linger: float = 5.0,
    wal: Optional[str] = None,
    recover: Optional[str] = None,
    attempt: int = 0,
) -> int:
    runner = NodeRunner(
        load_manifest(manifest_path), load_bundle(bundle_path),
        wal_path=recover if recover is not None else wal,
        recover=recover is not None,
        attempt=attempt,
    )
    if control is None:
        return await _run_standalone(runner, linger)
    return await _run_controlled(runner, control)


def _peers(message: Dict[str, Any]) -> Dict[ProcessId, Tuple[str, int]]:
    """The pid -> (host, port) table of a ``go`` or ``peer`` line."""
    return {int(pid): (str(host), int(port))
            for pid, (host, port) in message["peers"].items()}


async def _run_controlled(runner: NodeRunner, control: str) -> int:
    host, port = parse_endpoint(control)
    send_lock = asyncio.Lock()
    writer: Optional[asyncio.StreamWriter] = None
    try:
        # A respawn binds a fresh port: the orchestrator readdresses its
        # peers, so it never races anyone for the dead incarnation's.
        await runner.bind(0 if runner.recovering else None)
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_CONTROL_LINE
        )
        hello: Dict[str, Any] = {"type": "hello", "node": runner.pid,
                                 "port": runner._tcp.address[1]}
        if runner.recovering:
            hello["recovered"] = True
            hello["attempt"] = runner.attempt
        async with send_lock:
            await send_msg(writer, hello)
        message = await read_msg(reader)
        if message is None or message.get("type") != "go":
            raise ReproError(
                f"node {runner.pid}: expected 'go', got {message!r}"
            )
        # Past the barrier every live peer has bound, so a refused dial
        # is a dead peer (a ``kill`` fault at the barrier): one attempt,
        # not the boot-time retry budget — the send path redials later.
        await runner.connect(_peers(message), retry_for=0.0)
        runner.start_clock()
        runner.node.launch()

        async def report_done() -> None:
            await runner.node.done.wait()
            async with send_lock:
                await send_msg(writer, {
                    "type": "done", "node": runner.pid,
                    "decide_time": runner.node.decide_time,
                })

        side_tasks = [asyncio.ensure_future(report_done())]

        if runner.recovering:
            async def report_recovered() -> None:
                await runner._replayed.wait()
                async with send_lock:
                    await send_msg(writer, {
                        "type": "recovered", "node": runner.pid,
                        **runner.replay_stats,
                    })

            side_tasks.append(asyncio.ensure_future(report_recovered()))
        try:
            while True:
                message = await read_msg(reader)
                if message is None or message.get("type") == "stop":
                    break
                if message.get("type") == "peer":
                    runner._tcp.set_peers(_peers(message))
                elif message.get("type") == "ping":
                    async with send_lock:
                        await send_msg(writer, {
                            "type": "pong", "node": runner.pid,
                            "seq": message.get("seq"),
                        })
        finally:
            for side in side_tasks:
                side.cancel()
            await asyncio.gather(*side_tasks, return_exceptions=True)
        if message is not None:  # a real 'stop', not an orphaning EOF
            result = runner.node.report().to_dict()
            if runner.observer is not None:
                # The captured ring rides along for the orchestrator's
                # merged event stream; it is not part of the report.
                result["events"] = [
                    e.to_dict() for e in runner.observer.events()
                ]
            async with send_lock:
                await send_msg(writer, result)
        return 0
    except Exception as exc:
        if writer is not None:
            try:
                async with send_lock:
                    await send_msg(writer, {
                        "type": "crash", "node": runner.pid,
                        "error": repr(exc),
                    })
            except Exception:
                pass
        raise
    finally:
        if writer is not None:
            writer.close()
        await runner.shutdown()


async def _run_standalone(runner: NodeRunner, linger: float) -> int:
    addresses = runner.manifest.addresses
    if any(port == 0 for _host, port in addresses.values()):
        raise ReproError(
            "a standalone node needs every node's port in the manifest; "
            "deal it with a positive base_port (--set base_port=7000)"
        )
    await runner.bind()
    host, port = runner._tcp.address
    print(f"node {runner.pid} listening on {host}:{port}", file=sys.stderr)
    await runner.connect(addresses)
    runner.start_clock()
    runner.node.launch()
    try:
        timeout = runner.scenario.timeout
        try:
            await asyncio.wait_for(runner.node.done.wait(), timeout)
        except asyncio.TimeoutError:
            print(f"node {runner.pid}: timeout after {timeout}s",
                  file=sys.stderr)
            return 1
        # Keep serving peers that are still catching up before exiting.
        await asyncio.sleep(linger)
        print(json.dumps(runner.node.report().to_dict(), sort_keys=True))
        return 0
    finally:
        await runner.shutdown()


__all__ = ["NodeRunner", "run_node"]
