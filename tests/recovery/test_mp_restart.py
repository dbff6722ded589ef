"""Crash recovery on the mp fabric: SIGKILL, respawn, replay, decide.

The expensive end of the recovery contract, run with real OS
processes: every protocol decides on ``fabric: "mp"`` with one correct
node SIGKILLed mid-run and respawned from its write-ahead log, the
recovered run's *logical* decide stream matches the simulator's for
the same unanimous scenario, the recovery metrics land on the result,
and the supervision machinery (the per-node loop's liveness probes,
scratch lifecycle) is unit-tested against the real control-channel
server without spawning anything.
"""

import asyncio
import gc
import os
import shutil
import warnings

import pytest

from repro.errors import ReproError
from repro.mp import orchestrator as orch_mod
from repro.mp.control import read_msg, send_msg
from repro.mp.orchestrator import PING_RETRIES, MpOrchestrator
from repro.recovery.wal import wal_filename
from repro.scenario import Scenario, run

#: Unanimous fixed-seed configurations with node "restart_pid" killed
#: 0.1s into the run and respawned from its WAL 0.5s later.  The link
#: retransmission budget (rto * max_retries) must outlast the down
#: window or peers give the node up for dead before it returns.
RESTART_LINK = {"retransmit": True, "rto": 0.1, "delay": 0.05,
                "max_retries": 200}


def _restart_scenario(protocol, **kw):
    n = kw.get("n", 4)
    if protocol != "acs":  # ACS nodes propose request payloads instead
        kw.setdefault("proposals", 1)
    return Scenario(
        protocol=protocol, fabric="mp", seed=67,
        faults={n - 1: {"kind": "restart", "after": 0.1, "down": 0.5}},
        recovery="wal", observe="ring", link=RESTART_LINK, **kw,
    )


RESTART_SCENARIOS = {
    "bracha": _restart_scenario("bracha"),
    "benor": _restart_scenario("benor"),
    "benor-crash": _restart_scenario("benor-crash", n=5, t=2),
    "mmr14": _restart_scenario("mmr14", coin="dealer"),
    "acs": _restart_scenario("acs"),
}


def _logical_decides(result):
    """Sorted (node, instance, value) triples of the decide events."""
    return sorted(
        (event.node, event.instance, event.detail)
        for event in result.meta["obs_events"]
        if event.kind == "decide"
    )


class TestMpRestart:
    @pytest.mark.parametrize("protocol", sorted(RESTART_SCENARIOS))
    def test_every_protocol_survives_a_wal_recovered_sigkill(self, protocol):
        scenario = RESTART_SCENARIOS[protocol]
        result = run(scenario)
        assert not result.violations
        # The restarted node is correct: *everyone* decides, it included.
        assert len(result.decisions) == scenario.n
        if protocol != "acs":
            assert result.decided_values == {1}

        counters = result.metrics.counters
        assert counters.get("restarts") == 1
        assert counters.get("recovery_replayed", 0) > 0
        assert result.metrics.gauges.get("recovery_time", 0) > 0
        assert result.meta["restarted"] == [scenario.n - 1]

        kinds = [e.kind for e in result.meta["obs_events"]]
        for kind in ("restart", "recovery_replayed", "recovery_complete"):
            assert kind in kinds

        # The decide stream of the recovered run is logically the
        # simulator's for the same unanimous spec: recovery changed
        # *when* node n-1 decided, never *what* anyone decided.
        sim = run(scenario.replace(
            fabric="sim", faults={}, recovery="off", link={}))
        decides = _logical_decides(result)
        assert decides == _logical_decides(sim)
        assert decides


    def test_a_respawn_leaves_no_unclosed_control_channel(self):
        # The respawned node's hello supersedes the dead incarnation's
        # control-channel writer; an unclosed one warns from its
        # finalizer, so collect inside the recording window.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            result = run(RESTART_SCENARIOS["bracha"])
            gc.collect()
        assert result.metrics.counters.get("restarts") == 1
        assert [
            str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)
        ] == []


class TestScratchLifecycle:
    SCENARIO = Scenario(protocol="bracha", n=4, proposals=1, fabric="mp",
                        seed=53, recovery="wal")

    def test_scratch_is_deleted_by_default(self):
        result = run(self.SCENARIO)
        wal_dir = result.meta["recovery"]["dir"]
        assert "scratch_dir" not in result.meta
        assert not os.path.exists(wal_dir)

    def test_keep_scratch_preserves_bundles_and_wals(self):
        result = run(self.SCENARIO, keep_scratch=True)
        scratch = result.meta["scratch_dir"]
        try:
            assert os.path.isdir(scratch)
            assert os.path.isfile(os.path.join(scratch, "manifest.json"))
            wal_dir = result.meta["recovery"]["dir"]
            for pid in range(4):
                assert os.path.isfile(
                    os.path.join(wal_dir, wal_filename(pid)))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


class _FakeProc:
    """Stands in for a forked node in the probe tests."""

    def __init__(self):
        self.returncode = None
        self.killed = False
        self._exited = asyncio.Event()

    def kill(self):
        self.killed = True
        self.returncode = -9
        self._exited.set()

    async def wait(self):
        await self._exited.wait()
        return self.returncode

    async def communicate(self):
        return b"", b"stack dump\nwedged in a syscall\n"


class TestPingProbe:
    """The per-node supervision loop (`_watch`) probing against the real
    `_serve`, over real sockets, with fake node clients — no subprocess
    spawn, and the probe cadence shrunk to milliseconds."""

    SCENARIO = Scenario(protocol="bracha", n=2, t=0, proposals=1,
                        fabric="mp", seed=3)

    @pytest.fixture(autouse=True)
    def fast_probes(self, monkeypatch):
        monkeypatch.setattr(orch_mod, "PING_INTERVAL", 0.05)
        monkeypatch.setattr(orch_mod, "PING_TIMEOUT", 0.02)

    async def _watch(self, scenario, responsive, done=(), window=1.0):
        """Run the loops of fake nodes 0 and 1 for up to ``window``
        seconds; the orchestrator and how many pings each node got."""
        orch = MpOrchestrator(scenario)
        server = await asyncio.start_server(orch._serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        pings = {0: 0, 1: 0}
        clients, tasks = [], []
        try:
            for pid in range(2):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                await send_msg(writer, {"type": "hello", "node": pid,
                                        "port": 7000 + pid})
                clients.append(writer)

                async def pump(r=reader, w=writer, p=pid):
                    while True:
                        message = await read_msg(r)
                        if message is None:
                            return
                        if message.get("type") == "ping":
                            pings[p] += 1
                            if p in responsive:
                                await send_msg(w, {
                                    "type": "pong", "node": p,
                                    "seq": message["seq"]})

                tasks.append(asyncio.ensure_future(pump()))
                orch.procs[pid] = _FakeProc()
            await asyncio.sleep(0.05)  # both hellos land
            orch.done.update(dict.fromkeys(done, 1.0))
            watchers = [asyncio.ensure_future(orch._watch(pid))
                        for pid in range(2)]
            tasks.extend(watchers)
            await asyncio.wait(watchers, timeout=window)
            return orch, pings
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            for writer in clients + list(orch.writers.values()):
                writer.close()
            server.close()
            await server.wait_closed()

    def test_all_responsive_nodes_pass(self):
        orch, pings = asyncio.run(self._watch(self.SCENARIO, {0, 1}))
        assert min(pings.values()) >= 2  # probed, round after round
        assert orch.casualties == {}

    def test_a_hung_node_is_flagged_with_its_stderr_tail(self):
        orch, pings = asyncio.run(self._watch(self.SCENARIO, {0}))
        assert sorted(orch.casualties) == [1]
        assert pings[1] == PING_RETRIES + 1
        assert not orch.procs[0].killed  # the healthy node is untouched
        assert "wedged in a syscall" in orch.casualties[1]
        with pytest.raises(
                ReproError,
                match=rf"node 1 unresponsive: no pong after "
                      rf"{PING_RETRIES + 1} control-channel probes"):
            orch._raise_on_casualties()

    def test_done_and_respawning_nodes_are_exempt(self):
        # Node 0 reported done: nothing to probe.  Node 1 is a restart
        # node killed at the barrier, its respawn a minute away: its
        # loop closed the dead incarnation's channel and waits — and
        # forgot that incarnation's ``done``, which the respawn owes.
        scenario = Scenario(
            protocol="bracha", n=4, proposals=1, fabric="mp", seed=3,
            faults={1: {"kind": "restart", "after": 0.0, "down": 60}},
            recovery="wal", link=RESTART_LINK,
        )
        orch, pings = asyncio.run(
            self._watch(scenario, responsive=(), done={0, 1}, window=0.5))
        assert pings == {0: 0, 1: 0}
        assert orch.casualties == {}
        assert orch.procs[1].killed and 1 not in orch.writers
        assert sorted(orch.done) == [0]


class TestRespawnBudget:
    def test_a_node_that_keeps_dying_exhausts_its_budget_by_name(self):
        scenario = Scenario(
            protocol="bracha", n=4, proposals=1, fabric="mp", seed=3,
            faults={1: {"kind": "restart", "after": 0.0, "down": 0.01,
                        "max_restarts": 2}},
            recovery="wal", link=RESTART_LINK,
        )

        async def watch():
            orch = MpOrchestrator(scenario)
            orch.wal_dir = "wal"
            respawns = []

            async def spawn(pid, extra):
                respawns.append(extra)
                proc = _FakeProc()
                proc.kill()  # every incarnation dies at once
                return proc

            orch._spawn = spawn
            orch.procs[1] = _FakeProc()
            await asyncio.wait_for(orch._watch(1), 5.0)
            return orch, respawns

        orch, respawns = asyncio.run(watch())
        assert [argv[-2:] for argv in respawns] == [
            ["--attempt", "1"], ["--attempt", "2"]]
        with pytest.raises(
                ReproError,
                match=r"node 1 crashed: restart budget exhausted after 2 "
                      r"attempts \(node 1: stack dump \| wedged"):
            orch._raise_on_casualties()
