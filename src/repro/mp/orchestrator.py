"""The ``mp`` fabric: n nodes, n OS processes, one ``RunResult``.

The orchestrator is the multi-process analogue of
:class:`~repro.runtime.cluster.Cluster`: it deals trusted-setup bundles
into a scratch directory (:mod:`repro.mp.bundle`), has the
interpreter's fork server (:mod:`repro.mp.zygote`) fork one node
process per pid, holds them at a start barrier on the control channel
(:mod:`repro.mp.control`), supervises them until every correct node's
stop condition holds, then hands each node's ``result`` message (a
:class:`~repro.outcome.NodeReport`) to the
:func:`~repro.outcome.build_result` every fabric shares.  The builder
is told the correct set, so a Byzantine node's report only adds
counters and a correct node whose ``result`` never arrives within
:data:`RESULT_TIMEOUT` is a named failure, not a smaller quorum.

Every node is a real OS process, so crash faults are real: a fault spec
``{"kind": "kill", "after": S}`` SIGKILLs that node ``S`` seconds after
the start barrier, and the run succeeds iff the surviving correct
majority still decides.

Nodes pick their own protocol ports (any free one unless ``base_port``
is set) and report them in ``hello``; ``go`` carries the pid → address
table and a respawn's new port reaches its peers in one ``peer`` line,
so no port is ever reserved for someone else.
"""

from __future__ import annotations

import asyncio
import math
import os
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import ConfigError, ReproError
from ..obs import MetricsRegistry, Observer
from ..obs.events import Event
from ..outcome import NodeReport, build_result
from ..recovery import parse_recovery
from ..recovery.wal import wal_filename
from ..scenario.spec import Scenario
from ..stacks import ProtocolPlan
from ..types import ProcessId, RunResult
from .bundle import deal
from .control import MAX_CONTROL_LINE, read_msg, send_msg
from .zygote import Lease, NodeProc, last_lines

#: How long the orchestrator waits for every node to bind and say hello.
BOOT_TIMEOUT = 30.0

#: Grace period for nodes to answer ``stop`` with their result.
RESULT_TIMEOUT = 10.0

#: Cadence of the control-channel liveness probe (``ping``/``pong``).
PING_INTERVAL = 2.0

#: How long one probe waits for its pong before the next retry.
PING_TIMEOUT = 2.0

#: Probe retries (with doubling waits) before a node is declared
#: unresponsive — a hung node must surface as a named harness failure,
#: not as the scenario's full liveness timeout.
PING_RETRIES = 3

#: Cap on the doubling wait between respawns of a restart node that
#: keeps dying.
RESPAWN_MAX_DELAY = 10.0


async def _await_until(awaitable: Any, deadline: float) -> None:
    """Await ``awaitable``, giving up at loop time ``deadline``."""
    try:
        await asyncio.wait_for(
            awaitable, deadline - asyncio.get_running_loop().time())
    except asyncio.TimeoutError:
        pass


class MpOrchestrator:
    """One multi-process run, start to verified result."""

    def __init__(self, scenario: Scenario, check: bool = True,
                 observer: Optional[Observer] = None,
                 keep_scratch: bool = False):
        if scenario.fabric != "mp":
            raise ConfigError(
                f"the mp orchestrator runs fabric 'mp' scenarios, "
                f"got {scenario.fabric!r}"
            )
        if scenario.stop not in ("decided", "halted"):
            raise ConfigError(
                f"stop condition {scenario.stop!r} is not available on 'mp'"
            )
        self.scenario = scenario
        self.check = check
        self.observer = observer
        self.keep_scratch = keep_scratch
        self.params = scenario.params
        # Validates the protocol/coin/instances combination up front and
        # supplies the canonical proposal table; the coins themselves
        # are built (identically) inside each node process.
        self.plan = ProtocolPlan.for_scenario(scenario)
        self.proposals = self.plan.default_proposals(scenario.proposals)
        self.kills: Dict[ProcessId, float] = {
            pid: float(spec.get("after", 0.0))
            for pid, spec in scenario.fault_specs("kill").items()
        }
        #: pid -> {"after", "down", "max_restarts"} for restart faults.
        #: A restart node is *correct* — it is SIGKILLed, recovered from
        #: its WAL, and then held to the same outcome checks as every
        #: other correct node (it still counts toward the t budget).
        self.restarts = scenario.fault_specs("restart")
        self.recovery_mode, self.wal_dir = parse_recovery(scenario.recovery)
        self.faulty = set(scenario.faults_dict()) - set(self.restarts)
        self.correct: Set[ProcessId] = set(range(scenario.n)) - self.faulty

        self.procs: Dict[ProcessId, NodeProc] = {}
        self.writers: Dict[ProcessId, asyncio.StreamWriter] = {}
        #: Every control connection accepted, hello or not; teardown
        #: closes them all.
        self._control: List[asyncio.StreamWriter] = []
        #: pid -> the (host, port) it reported binding; ``go`` carries it.
        self.addresses: Dict[ProcessId, Tuple[str, int]] = {}
        self.results: Dict[ProcessId, NodeReport] = {}
        self.node_events: List[Dict[str, Any]] = []
        self.done: Dict[ProcessId, Optional[float]] = {}
        #: pid -> the named error its crash, death or hang fails the run
        #: with (if the node is correct); the first cause wins.
        self.casualties: Dict[ProcessId, str] = {}
        self.restart_attempts: Dict[ProcessId, int] = {}
        self.kill_times: Dict[ProcessId, float] = {}
        self.recovery_times: Dict[ProcessId, float] = {}
        self.recovered: Dict[ProcessId, Dict[str, Any]] = {}
        self._pongs: Dict[ProcessId, int] = {}
        self._spawn_argv: Dict[ProcessId, List[str]] = {}
        self._zygote = Lease()
        self._wake = asyncio.Event()
        self._hello = asyncio.Event()
        self._stopping = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: List[asyncio.Task] = []
        self._zero = 0.0

    # -- control-channel server ----------------------------------------------

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> Any:
        """Book a control connection the moment it is accepted.

        Synchronous, so the books hold even a connection whose
        :meth:`_serve` task is cancelled before its first step — a boot
        that fails while a node is connecting — which no ``finally``
        inside the handler could close.
        """
        self._control.append(writer)
        return self._serve(reader, writer)

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            message = await read_msg(reader) or {}
        except ReproError:
            message = {}
        pid, port = message.get("node"), message.get("port")
        if not (message.get("type") == "hello"
                and isinstance(pid, int) and 0 <= pid < self.scenario.n
                and isinstance(port, int) and 0 < port < 65536):
            writer.close()
            return
        self.writers[pid] = writer
        self.addresses[pid] = (self.scenario.host, port)
        if self._hello.is_set():
            # A respawn's hello: a re-barrier of one, and one line to
            # each live peer with its new port.
            await self._send(pid, {"type": "go", "peers": self.addresses})
            peer = {"type": "peer", "peers": {pid: self.addresses[pid]}}
            for other in [other for other in self.writers if other != pid]:
                await self._send(other, peer)
        elif len(self.writers) == self.scenario.n:
            self._hello.set()
        while True:
            try:
                message = await read_msg(reader)
                if message is None or self.writers.get(pid) is not writer:
                    break  # EOF, or a dead incarnation's last words
                kind = message.get("type")
                if kind == "result":
                    self.results[pid] = NodeReport.from_dict(message)
                    self.node_events.extend(message.get("events", ()))
            except ReproError as exc:
                self._casualty(pid, f"node {pid} crashed: bad control "
                                    f"message: {exc}")
                break
            if kind == "done":
                self.done[pid] = message.get("decide_time")
            elif kind == "crash":
                self._casualty(pid, f"node {pid} crashed: "
                                    f"{message.get('error', 'unknown')}")
            elif kind == "recovered":
                self.recovered[pid] = message
                killed_at = self.kill_times.get(pid)
                if killed_at is not None:
                    self.recovery_times[pid] = time.monotonic() - killed_at
                if self.observer is not None:
                    self.observer.emit(
                        "recovery_complete", node=pid,
                        detail={
                            "recovery_time": self.recovery_times.get(pid),
                            "replayed": message.get("replayed"),
                            "replay_ms": message.get("replay_ms"),
                        },
                        time=time.monotonic() - self._zero,
                    )
            elif kind == "pong":
                seq = message.get("seq")
                if isinstance(seq, int):
                    self._pongs[pid] = max(self._pongs.get(pid, 0), seq)
            self._wake.set()
        self._wake.set()

    # -- lifecycle -----------------------------------------------------------

    async def run(self) -> RunResult:
        scenario = self.scenario
        bundle_dir = tempfile.mkdtemp(prefix="repro-mp-")
        self._scratch_dir = bundle_dir
        try:
            await self._zygote.start(BOOT_TIMEOUT)
            self._zygote.reader.add_done_callback(lambda _: self._wake.set())
            manifest_path, bundle_paths = deal(scenario, bundle_dir)

            self._server = await asyncio.start_server(
                self._accept, scenario.host, 0, limit=MAX_CONTROL_LINE
            )
            chost, cport = self._server.sockets[0].getsockname()[:2]
            if self.recovery_mode == "wal" and self.wal_dir is None:
                self.wal_dir = os.path.join(bundle_dir, "wal")
            spawns = []
            for pid in range(scenario.n):
                self._spawn_argv[pid] = [
                    "--manifest", manifest_path,
                    "--bundle", bundle_paths[pid],
                    "--control", f"{chost}:{cport}",
                ]
                extra = None
                if self.recovery_mode == "wal" and pid in self.correct:
                    extra = ["--wal",
                             os.path.join(self.wal_dir, wal_filename(pid))]
                spawns.append(self._spawn(pid, extra))
            # Every request is out before any handle is awaited: one
            # zygote round trip per run, not one per node.
            self.procs = dict(enumerate(await asyncio.gather(*spawns)))

            hello = asyncio.ensure_future(self._hello.wait())
            self._tasks.append(hello)
            await asyncio.wait(
                {hello, self._zygote.reader}, timeout=BOOT_TIMEOUT,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if self._zygote.error is not None:
                raise ReproError(self._zygote.error)
            if not self._hello.is_set():
                missing = sorted(set(range(scenario.n)) - set(self.writers))
                raise ReproError(
                    f"mp boot failed: nodes {missing} never reported in "
                    f"({await self._stderr_tail(missing)})"
                )

            self._zero = time.monotonic()
            go = {"type": "go", "peers": self.addresses}
            for pid in range(scenario.n):
                await self._send(pid, go)
            self._tasks.extend(
                asyncio.ensure_future(self._watch(pid))
                for pid in range(scenario.n)
            )

            timed_out = not await self._wait_for_completion()
            elapsed = time.monotonic() - self._zero
            await self._stop_nodes()
            return self._result(elapsed, timed_out)
        finally:
            await self._teardown()
            if self.keep_scratch:
                print(f"mp scratch kept at {bundle_dir}", file=sys.stderr)
            else:
                shutil.rmtree(bundle_dir, ignore_errors=True)

    def _spawn(self, pid: ProcessId,
               extra: Optional[List[str]] = None) -> "asyncio.Future[NodeProc]":
        """The future handle of node ``pid``, forked by the zygote, with
        one stderr file per incarnation: ``node-<pid>-<attempt>``."""
        attempt = self.restart_attempts.get(pid, 0)
        stderr = os.path.join(self._scratch_dir, f"node-{pid}-{attempt}.stderr")
        return self._zygote.spawn(pid, self._spawn_argv[pid] + (extra or []),
                                  stderr)

    async def _send(self, pid: ProcessId, message: Dict[str, Any]) -> bool:
        """One control line to node ``pid``; False if its channel is gone."""
        writer = self.writers.get(pid)
        if writer is None or writer.is_closing():
            return False
        try:
            await send_msg(writer, message)
        except (ConnectionError, OSError):
            return False
        return True

    def _casualty(self, pid: ProcessId, error: str) -> None:
        self.casualties.setdefault(pid, error)
        self._wake.set()

    # -- supervision: one loop per node ---------------------------------------

    async def _watch(self, pid: ProcessId) -> None:
        """Supervise node ``pid`` from the start barrier to the run's end.

        One loop waits on whichever comes first: the process exits, its
        ``kill`` or ``restart`` deadline arrives, or a probe is due.  A
        ``restart`` node's exit or deadline goes to :meth:`_respawn`, a
        correct node's exit fails the run, a faulty node's is its own
        business.  Probes go only to a correct, not-yet-done node over a
        live control channel (a respawn closes the dead one's): one
        ``ping`` sent up to ``PING_RETRIES + 1`` times with doubling
        waits, then ``node N unresponsive`` with its stderr tail.
        """
        loop = asyncio.get_running_loop()
        restart = self.restarts.get(pid)
        after = (self.kills.get(pid) if restart is None
                 else float(restart.get("after", 0.0)))
        # ``after`` counts from the barrier; ``_zero`` is on the loop's
        # clock (both are ``time.monotonic``).
        crash_at = math.inf if after is None else self._zero + after
        proc = self.procs[pid]
        seq = sent = 0  # the current probe's seq, and how often it went out
        wake = loop.time() + PING_INTERVAL
        while True:
            await _await_until(proc.wait(), min(wake, crash_at))
            exited = proc.returncode is not None
            if self._stopping:
                return
            if exited or loop.time() >= crash_at:
                if restart is not None:
                    proc = await self._respawn(pid, restart, proc)
                    if proc is None:
                        return
                    crash_at, sent = math.inf, 0
                    wake = loop.time() + PING_INTERVAL
                    continue
                if not exited:
                    proc.kill()  # a kill fault: the exit is the point
                elif pid in self.correct:
                    self._casualty(pid, f"node {pid} exited unexpectedly "
                                        f"(rc={proc.returncode})")
                return
            now = loop.time()
            if not sent:  # idle: start a probe, if this node is owed one
                if (pid in self.correct and pid not in self.done
                        and await self._send(pid, {"type": "ping",
                                                   "seq": seq + 1})):
                    seq, sent, wake = seq + 1, 1, now + PING_TIMEOUT
                else:
                    wake = now + PING_INTERVAL
            elif self._pongs.get(pid, 0) >= seq or pid in self.done:
                sent, wake = 0, now + PING_INTERVAL  # answered, or moot
            elif sent > PING_RETRIES:
                self._casualty(pid, (
                    f"node {pid} unresponsive: no pong after "
                    f"{PING_RETRIES + 1} control-channel probes "
                    f"({await self._stderr_tail([pid])})"
                ))
                return
            elif await self._send(pid, {"type": "ping", "seq": seq}):
                sent, wake = sent + 1, now + PING_TIMEOUT * 2 ** sent
            else:
                sent, wake = 0, now + PING_INTERVAL  # its exit is coming

    async def _respawn(self, pid: ProcessId, spec: Dict[str, Any],
                       proc: NodeProc) -> Optional[NodeProc]:
        """SIGKILL restart node ``pid`` and fork it again from its WAL.

        The first respawn comes ``down`` seconds after the kill, each
        later one after twice the last wait (at most
        :data:`RESPAWN_MAX_DELAY`); past ``max_restarts`` the run fails
        as ``restart budget exhausted``.  Returns the new incarnation,
        or ``None``.
        """
        proc.kill()
        self.kill_times.setdefault(pid, time.monotonic())
        # A dead incarnation's ``done`` cannot answer ``stop``: the run
        # waits for the respawn to replay its way to its own.
        self.done.pop(pid, None)
        writer = self.writers.pop(pid, None)
        if writer is not None:
            writer.close()  # the respawn says hello on a channel of its own
        await proc.wait()
        attempt = self.restart_attempts.get(pid, 0) + 1
        if attempt > int(spec.get("max_restarts", 3)):
            self._casualty(pid, (
                f"node {pid} crashed: restart budget exhausted after "
                f"{attempt - 1} attempts ({await self._stderr_tail([pid])})"
            ))
            return None
        down = float(spec.get("down", 1.0))
        await asyncio.sleep(min(down * 2 ** (attempt - 1), RESPAWN_MAX_DELAY))
        if self._stopping:
            return None
        self.restart_attempts[pid] = attempt
        wal_path = os.path.join(self.wal_dir, wal_filename(pid))
        proc = self.procs[pid] = await self._spawn(
            pid, ["--recover", wal_path, "--attempt", str(attempt)]
        )
        if self.observer is not None:
            self.observer.emit(
                "restart", node=pid, detail={"attempt": attempt},
                time=time.monotonic() - self._zero,
            )
        return proc

    async def _wait_for_completion(self) -> bool:
        """Until every correct node reported ``done``; False on timeout."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.scenario.timeout
        while not self.correct <= set(self.done):
            self._raise_on_casualties()
            if loop.time() >= deadline:
                return False
            self._wake.clear()
            await _await_until(self._wake.wait(), deadline)
        self._raise_on_casualties()
        return True

    def _raise_on_casualties(self) -> None:
        """A *correct* node dying or hanging is a harness failure, never
        a result."""
        if self._zygote.error is not None:
            raise ReproError(self._zygote.error)
        for pid in sorted(self.casualties):
            if pid in self.correct:
                raise ReproError(self.casualties[pid])

    async def _stop_nodes(self) -> None:
        """Ask every live node for its result; wait RESULT_TIMEOUT at most."""
        self._stopping = True
        asked: Set[ProcessId] = set()
        for pid, proc in self.procs.items():
            if proc.returncode is None and await self._send(
                    pid, {"type": "stop"}):
                asked.add(pid)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + RESULT_TIMEOUT
        while not asked <= set(self.results) and loop.time() < deadline:
            if self._zygote.error is not None:  # the askees died with it
                raise ReproError(self._zygote.error)
            self._wake.clear()
            await _await_until(self._wake.wait(), deadline)

    async def _stderr_tail(self, pids: List[ProcessId]) -> str:
        parts = []
        for pid in pids:
            proc = self.procs.get(pid)
            if proc is None:
                continue
            proc.kill()
            try:
                _out, err = await asyncio.wait_for(proc.communicate(), 5.0)
            except asyncio.TimeoutError:
                err = b""
            if err:
                parts.append(f"node {pid}: " + last_lines(err))
        return "; ".join(parts) or "no stderr captured"

    async def _teardown(self) -> None:
        self._stopping = True
        await self._zygote.release()
        for writer in self._control:
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)

    # -- result assembly -----------------------------------------------------

    def _result(self, elapsed: float, timed_out: bool) -> RunResult:
        """Build the result, adding what only this fabric knows."""
        scenario = self.scenario
        failures = []
        if timed_out:
            failures.append(
                f"timeout after {scenario.timeout}s; nodes still undecided: "
                f"{sorted(self.correct - set(self.done))}"
            )
        registry = MetricsRegistry()
        meta: Dict[str, Any] = {
            "transport": "mp", "protocol": scenario.protocol,
            "instances": scenario.instances, "batching": scenario.batching,
            "codec": scenario.codec,
        }
        if self.kills:
            meta["killed"] = sorted(self.kills)
        if self.recovery_mode == "wal":
            meta["recovery"] = {"mode": "wal", "dir": self.wal_dir}
        if self.restarts:
            meta["restarted"] = sorted(self.restarts)
            registry.count("restarts", sum(self.restart_attempts.values()))
            registry.count("recovery_replayed", sum(
                int(msg.get("replayed") or 0)
                for msg in self.recovered.values()
            ))
            if self.recovery_times:
                registry.gauge(
                    "recovery_time", max(self.recovery_times.values())
                )
        if self.keep_scratch:
            meta["scratch_dir"] = self._scratch_dir
        if self.observer is not None:
            # One merged timeline, original node-relative timestamps.
            events = [Event.from_dict(data) for data in self.node_events]
            events.sort(key=lambda e: (e.time, -1 if e.node is None else e.node))
            for event in events:
                self.observer.sink.emit(event)
        return build_result(
            self.results.values(), correct=self.correct, faulty=self.faulty,
            proposals=self.proposals, params=self.params, check=self.check,
            elapsed=elapsed, registry=registry, meta=meta, failures=failures,
        )


def run_mp_sync(scenario: Scenario, check: bool = True,
                observer: Optional[Observer] = None,
                keep_scratch: bool = False) -> RunResult:
    """Execute one ``fabric: "mp"`` scenario; return a verified result."""
    return asyncio.run(MpOrchestrator(
        scenario, check=check, observer=observer, keep_scratch=keep_scratch,
    ).run())


__all__ = ["BOOT_TIMEOUT", "MpOrchestrator", "run_mp_sync"]
