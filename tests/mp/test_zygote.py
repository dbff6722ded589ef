"""The fork server behind ``fabric: "mp"``: protocol, lifetime, pids.

Three layers, cheapest first:

* ``python -m repro.mp.zygote`` driven by hand over its pipes — the
  ``ready → spawn → spawned → exit`` vocabulary, a child's return code
  and stderr file, ``reap``, and what stdin EOF does to live children;
* :class:`~repro.mp.orchestrator.MpOrchestrator` with the real zygote —
  one per interpreter, reused run after run; every run's nodes gone at
  its end on success, boot failure, timeout and zygote death; a dead
  idle zygote replaced; node pids distinct; ``kill`` / ``restart``
  signals land on exactly the scheduled pid;
* whole processes from outside — an orchestrator SIGKILLed mid-run
  leaves nothing behind, a child it forks does not keep its idle
  zygote alive, and n standalone ``repro node`` processes (the entry
  point the orchestrator no longer execs) still decide.
"""

import asyncio
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

import pytest

import repro
from repro.errors import LivenessFailure, ReproError
from repro.mp import orchestrator as orch_mod
from repro.mp import zygote as zygote_mod
from repro.mp.bundle import deal
from repro.mp.orchestrator import MpOrchestrator
from repro.mp.zygote import NodeProc
from repro.scenario import Scenario

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ENV = {**os.environ,
       "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}

SCENARIO = Scenario(protocol="bracha", n=4, proposals=1, fabric="mp", seed=31)
#: 0.3 s per hop: consensus takes seconds, so "mid-run" is a wide target.
SLOW = SCENARIO.replace(link={"delay": 0.3})


def _gone(os_pid):
    """No such process, or only its unreaped corpse (a zombie answers
    ``kill(pid, 0)`` until its parent — here possibly a pid 1 that does
    not reap — collects it)."""
    try:
        with open(f"/proc/{os_pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _children(os_pid):
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == os_pid and fields[0] != "Z":
                out.append(int(entry))
    return out


def _wait_until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


# ---------------------------------------------------------------------------
# The zygote, driven by hand
# ---------------------------------------------------------------------------


class _Zygote:
    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.mp.zygote"], env=ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def read(self):
        line = self.proc.stdout.readline()
        assert line, "zygote closed its stdout"
        return json.loads(line)

    def send(self, request):
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()

    def spawn(self, node, argv, stderr):
        self.send({"type": "spawn", "node": node, "argv": argv,
                   "stderr": str(stderr)})

    def dismiss(self, timeout=5.0):
        self.proc.stdin.close()
        try:
            return self.proc.wait(timeout)
        finally:
            self.proc.kill()
            self.proc.stdout.close()


@pytest.fixture
def zygote():
    server = _Zygote()
    try:
        assert server.read() == {"type": "ready"}
        yield server
    finally:
        server.proc.kill()
        server.proc.wait()


_BOOT_FROM_WARM = """
import json, sys, types
from repro.mp import zygote

zygote.warm()
from repro import cli
from repro.mp.bundle import load_bundle, load_manifest
from repro.mp.noderunner import NodeRunner
from repro.runtime.node import assemble_node

builds = []
build_parser = cli.build_parser
cli.build_parser = lambda: builds.append(1) or build_parser()
before = set(sys.modules)
for manifest, bundle in zip(sys.argv[1::2], sys.argv[2::2]):
    args = cli._parser().parse_args(
        ["node", "--manifest", manifest, "--bundle", bundle,
         "--control", "127.0.0.1:1"])
    runner = NodeRunner(load_manifest(args.manifest), load_bundle(args.bundle))
    # The node's stack or fault behavior, as ``connect`` builds it.
    assemble_node(
        runner.scenario, runner.pid, types.SimpleNamespace(pid=runner.pid),
        runner.plan, runner.proposals, runner._elapsed, propose=False,
    ).report()
print(json.dumps({"imported": sorted(set(sys.modules) - before),
                  "parsers_built": len(builds)}))
"""


def test_a_forked_node_boots_from_the_zygotes_warm_state(tmp_path):
    """What a child does before its first frame — parse ``repro node``
    arguments, load its bundle, assemble its runner and its node —
    imports nothing and builds no parser that the zygote did not before
    ``gc.freeze``: for a Bracha node, an ACS node and a crash-faulty
    node alike, since the stacks import their engines and behaviors
    only when they build them."""
    argv = []
    for index, (scenario, pid) in enumerate([
        (SCENARIO, 0),
        (Scenario(protocol="acs", n=4, fabric="mp", seed=31), 0),
        (SCENARIO.replace(faults={3: "crash"}), 3),
    ]):
        manifest, bundles = deal(scenario, str(tmp_path / str(index)))
        argv += [manifest, bundles[pid]]
    done = subprocess.run(
        [sys.executable, "-c", _BOOT_FROM_WARM, *argv],
        env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"imported": [], "parsers_built": 0}


class TestZygoteProtocol:
    def test_round_trip_reports_the_childs_rc_and_fills_its_stderr_file(
            self, zygote, tmp_path):
        zygote.spawn(2, ["--manifest", "/nonexistent/manifest.json",
                         "--bundle", "/nonexistent/node-2.json"],
                     tmp_path / "node-2-0.stderr")
        spawned = zygote.read()
        assert spawned["type"] == "spawned" and spawned["node"] == 2
        assert spawned["os_pid"] not in (zygote.proc.pid, os.getpid())
        assert zygote.read() == {
            "type": "exit", "os_pid": spawned["os_pid"], "rc": 1}
        text = (tmp_path / "node-2-0.stderr").read_text()
        assert "cannot read /nonexistent/manifest.json" in text

        # An argparse rejection leaves through SystemExit(2), and still
        # through the child's own exit — never back into the server.
        zygote.spawn(0, ["--no-such-flag"], tmp_path / "node-0-0.stderr")
        spawned = zygote.read()
        assert zygote.read() == {
            "type": "exit", "os_pid": spawned["os_pid"], "rc": 2}
        assert "usage: repro node" in (tmp_path / "node-0-0.stderr").read_text()
        assert zygote.dismiss() == 0

    def test_an_exit_never_overtakes_its_spawned(self, zygote, tmp_path):
        # Children that die at once on a bad --bundle path, requested
        # back to back: every ``exit`` must name a pid already announced.
        count = 12
        for k in range(count):
            zygote.spawn(k, ["--manifest", "/nonexistent",
                             "--bundle", f"/nonexistent/node-{k}.json"],
                         tmp_path / f"node-{k}-0.stderr")
        announced, exited = set(), set()
        while len(exited) < count:
            message = zygote.read()
            if message["type"] == "spawned":
                announced.add(message["os_pid"])
            else:
                assert message["type"] == "exit" and message["rc"] == 1
                assert message["os_pid"] in announced
                exited.add(message["os_pid"])
        assert exited == announced and len(announced) == count
        assert zygote.dismiss() == 0

    @staticmethod
    def _held_nodes(zygote, tmp_path, control, nodes):
        """Real nodes held at the barrier: the "orchestrator" listens but
        never says go, so they stay alive until someone kills them.
        Their os pids, and the control connections of their hellos."""
        control.bind(("127.0.0.1", 0))
        control.listen(8)
        endpoint = "127.0.0.1:%d" % control.getsockname()[1]
        manifest, bundles = deal(SCENARIO, str(tmp_path))  # port 0
        pids = []
        for node in nodes:
            zygote.spawn(node, ["--manifest", manifest,
                                "--bundle", bundles[node],
                                "--control", endpoint],
                         tmp_path / f"node-{node}-0.stderr")
            pids.append(zygote.read()["os_pid"])
        return pids, [control.accept()[0] for _ in pids]

    def test_reap_reports_each_child_once_then_reaped_and_serves_on(
            self, zygote, tmp_path):
        with socket.socket() as control:
            [live], held = self._held_nodes(zygote, tmp_path, control, [0])
            try:
                # A child that dies on its own, its ``exit`` not yet read.
                zygote.spawn(1, ["--manifest", "/nonexistent",
                                 "--bundle", "/nonexistent/node-1.json"],
                             tmp_path / "node-1-0.stderr")
                dead = zygote.read()["os_pid"]
                assert _wait_until(lambda: _gone(dead), 10.0)
                assert not _gone(live)
                zygote.send({"type": "reap"})
                exits = []
                while (message := zygote.read())["type"] != "reaped":
                    assert message["type"] == "exit"
                    exits.append((message["os_pid"], message["rc"]))
            finally:
                for conn in held:
                    conn.close()
        assert sorted(exits) == sorted([(live, -signal.SIGKILL), (dead, 1)])
        for os_pid in (live, dead):  # reaped, not just signalled
            with pytest.raises(ProcessLookupError):
                os.kill(os_pid, 0)
        # The pipe is at a line boundary and the server still forks.
        zygote.spawn(2, ["--no-such-flag"], tmp_path / "node-2-0.stderr")
        spawned = zygote.read()
        assert spawned["type"] == "spawned" and spawned["node"] == 2
        assert zygote.read() == {
            "type": "exit", "os_pid": spawned["os_pid"], "rc": 2}
        assert zygote.dismiss() == 0

    def test_stdin_eof_kills_the_live_children_and_exits_zero(
            self, zygote, tmp_path):
        with socket.socket() as control:
            pids, held = self._held_nodes(zygote, tmp_path, control, [0, 1])
            try:
                assert all(not _gone(os_pid) for os_pid in pids)
                started = time.monotonic()
                assert zygote.dismiss(timeout=2.0) == 0
                assert time.monotonic() - started < 2.0
            finally:
                for conn in held:
                    conn.close()
            for os_pid in pids:  # reaped, not just signalled
                with pytest.raises(ProcessLookupError):
                    os.kill(os_pid, 0)


# ---------------------------------------------------------------------------
# The orchestrator and its zygote
# ---------------------------------------------------------------------------


def _run(orch):
    """Run to the end (or the error); returns (result, error)."""
    try:
        return asyncio.run(orch.run()), None
    except ReproError as exc:
        return None, exc


def _assert_nothing_left(orch, idle=True):
    """Every node forked for the run is gone and so is its scratch dir;
    the zygote is alive and idle in the slot (``idle``), or dismissed."""
    for proc in orch._zygote.nodes.values():
        assert _gone(proc.os_pid)
    assert not os.path.exists(orch._scratch_dir)
    assert (orch._zygote.server is zygote_mod._idle) == idle
    assert (orch._zygote.server.proc.poll() is None) == idle


@pytest.fixture
def cold():
    """No idle zygote: the next run execs one."""
    zygote_mod._dismiss_idle()


@pytest.mark.usefixtures("cold")
class TestZygoteLifetime:
    def test_two_runs_exec_one_zygote_and_every_node_pid_differs(
            self, monkeypatch):
        execs = []
        real_popen = subprocess.Popen

        def counting_popen(argv, *args, **kw):
            execs.append(argv)
            return real_popen(argv, *args, **kw)

        monkeypatch.setattr(subprocess, "Popen", counting_popen)
        orchs = [MpOrchestrator(SCENARIO.replace(seed=seed))
                 for seed in (31, 32)]
        for orch in orchs:
            result, error = _run(orch)
            assert error is None and len(result.decisions) == 4
            _assert_nothing_left(orch)
        assert [argv[1:] for argv in execs] == [["-m", "repro.mp.zygote"]]
        assert orchs[0]._zygote.server is orchs[1]._zygote.server
        os_pids = [proc.os_pid for orch in orchs
                   for proc in orch._zygote.nodes.values()]
        assert len(set(os_pids)) == len(os_pids) == 8
        assert orchs[0]._zygote.server.proc.pid not in os_pids
        assert os.getpid() not in os_pids

    def test_a_zygote_killed_between_runs_is_replaced(self):
        first = MpOrchestrator(SCENARIO)
        assert _run(first)[1] is None
        stale = first._zygote.server
        os.kill(stale.proc.pid, signal.SIGKILL)
        assert _wait_until(lambda: _gone(stale.proc.pid), 5.0)
        second = MpOrchestrator(SCENARIO.replace(seed=32))
        result, error = _run(second)
        assert error is None and len(result.decisions) == 4
        assert second._zygote.server is not stale
        assert stale.proc.returncode == -signal.SIGKILL
        _assert_nothing_left(second)

    def test_boot_failure_names_the_node_from_its_stderr_file(
            self, monkeypatch):
        monkeypatch.setattr(orch_mod, "BOOT_TIMEOUT", 1.5)
        base = _free_base_port(4)
        with socket.socket() as squatter:
            squatter.bind(("127.0.0.1", base + 1))
            squatter.listen(1)
            orch = MpOrchestrator(SCENARIO.replace(base_port=base))
            _result, error = _run(orch)
        assert error is not None
        assert "mp boot failed: nodes [1] never reported in (node 1: " in str(error)
        assert "address already in use" in str(error).lower()
        _assert_nothing_left(orch)

    def test_timeout_leaves_nothing_behind(self):
        orch = MpOrchestrator(SLOW.replace(timeout=0.5))
        _result, error = _run(orch)
        assert isinstance(error, LivenessFailure)
        assert "timeout after 0.5s" in str(error)
        _assert_nothing_left(orch)

    def test_zygote_death_is_a_named_error_not_a_hang(self):
        orch = MpOrchestrator(SLOW)

        async def scenario():
            task = asyncio.ensure_future(orch.run())
            await asyncio.wait_for(orch._hello.wait(), 20.0)
            live = [proc.os_pid for proc in orch._zygote.nodes.values()]
            assert len(live) == 4 and not any(_gone(p) for p in live)
            orch._zygote.server.proc.kill()
            started = time.monotonic()
            with pytest.raises(ReproError, match=r"mp zygote died \(rc=-9\)"):
                await task
            return time.monotonic() - started

        assert asyncio.run(scenario()) < 5.0
        # SIGKILL gave the zygote no chance to take its children along:
        # the orchestrator signalled the orphans itself.
        assert all(proc.returncode == -signal.SIGKILL
                   for proc in orch._zygote.nodes.values())
        assert _wait_until(
            lambda: all(_gone(p.os_pid) for p in orch._zygote.nodes.values()),
            5.0)
        _assert_nothing_left(orch, idle=False)

    def test_a_zygote_that_never_gets_ready_fails_the_run_by_name(
            self, monkeypatch):
        monkeypatch.setattr(sys, "executable", shutil.which("false"))
        orch = MpOrchestrator(SCENARIO)
        _result, error = _run(orch)
        assert str(error) == "mp zygote died (rc=1): no stderr captured"
        _assert_nothing_left(orch, idle=False)


class TestSignalsHitTheScheduledPid:
    @staticmethod
    def _spy_on_kills(monkeypatch, orch):
        kills = []
        real_kill = os.kill

        def spy(os_pid, sig):
            if not orch._stopping:  # teardown sweeps every survivor
                kills.append((os_pid, sig))
            real_kill(os_pid, sig)

        monkeypatch.setattr(os, "kill", spy)
        return kills

    def test_a_kill_fault_signals_only_its_own_node(self, monkeypatch):
        # Killed once everyone is connected: a peer still dialling a dead
        # node would sit out its 15 s connect budget first.
        orch = MpOrchestrator(SCENARIO.replace(
            faults={3: {"kind": "kill", "after": 0.1}},
            link={"delay": 0.05}))
        kills = self._spy_on_kills(monkeypatch, orch)
        result, error = _run(orch)
        assert error is None and sorted(result.decisions) == [0, 1, 2]
        assert kills == [(orch.procs[3].os_pid, signal.SIGKILL)]
        assert orch.procs[3].returncode == -signal.SIGKILL

    def test_a_restart_kills_one_incarnation_and_forks_a_new_pid(
            self, monkeypatch):
        orch = MpOrchestrator(SCENARIO.replace(
            faults={3: {"kind": "restart", "after": 0.1, "down": 0.3}},
            recovery="wal",
            link={"retransmit": True, "rto": 0.1, "delay": 0.05,
                  "max_retries": 200},
        ), keep_scratch=True)
        kills = self._spy_on_kills(monkeypatch, orch)
        try:
            result, error = _run(orch)
            assert error is None and len(result.decisions) == 4
            first, second = [proc for proc in orch._zygote.nodes.values()
                             if proc.stderr_path.rsplit("-", 2)[-2] == "3"]
            assert kills == [(first.os_pid, signal.SIGKILL)]
            assert first.returncode == -signal.SIGKILL
            assert second is orch.procs[3] and second.os_pid != first.os_pid
            # One stderr file per incarnation, kept with the scratch dir.
            assert first.stderr_path.endswith("node-3-0.stderr")
            assert second.stderr_path.endswith("node-3-1.stderr")
            assert os.path.isfile(first.stderr_path)
            assert os.path.isfile(second.stderr_path)
        finally:
            shutil.rmtree(orch._scratch_dir, ignore_errors=True)


class TestStderrFiles:
    def test_the_tail_of_a_stderr_far_larger_than_a_pipe(self, tmp_path):
        # The old PIPE held ~192 KiB before the node blocked in write(2);
        # a file has no such limit, and only its last three lines are read
        # into the message.
        path = tmp_path / "node-0-0.stderr"
        path.write_bytes(b"noise\n" * 100_000 + b"one\ntwo\nthree\nfour\n")

        async def tail():
            orch = MpOrchestrator(SCENARIO)
            proc = NodeProc(os_pid=-1, stderr_path=str(path))
            proc.exited(1)
            orch.procs[0] = proc
            return await orch._stderr_tail([0])

        assert asyncio.run(tail()) == "node 0: two | three | four"


# ---------------------------------------------------------------------------
# Whole processes, from outside
# ---------------------------------------------------------------------------


def test_a_sigkilled_orchestrator_leaves_no_node_or_zygote_behind():
    code = (
        "from repro.scenario import Scenario, run\n"
        "run(Scenario(protocol='bracha', n=4, proposals=1, fabric='mp', "
        "seed=31, link={'delay': 0.3}))\n"
    )
    victim = subprocess.Popen([sys.executable, "-c", code], env=ENV)
    try:
        zygotes = []
        assert _wait_until(
            lambda: zygotes or zygotes.extend(_children(victim.pid)), 20.0)
        assert len(zygotes) == 1
        nodes = []
        assert _wait_until(
            lambda: len(nodes) == 4
            or nodes.extend(_children(zygotes[0])[len(nodes):]), 20.0)
    finally:
        victim.kill()
        victim.wait()
    assert _wait_until(
        lambda: all(_gone(os_pid) for os_pid in zygotes + nodes), 5.0)


def test_a_child_forked_after_a_run_does_not_hold_the_idle_zygote():
    # Run, fork a sleeper, die: the zygote must see its stdin close,
    # which it would not if the sleeper had inherited the write end.
    code = (
        "import os, time\n"
        "from repro.scenario import Scenario, run\n"
        "run(Scenario(protocol='bracha', n=4, proposals=1, fabric='mp', "
        "seed=31))\n"
        "child = os.fork()\n"
        "if child == 0:\n"
        "    time.sleep(60)\n"
        "    os._exit(0)\n"
        "print(child, flush=True)\n"
        "time.sleep(60)\n"
    )
    victim = subprocess.Popen([sys.executable, "-c", code], env=ENV,
                              stdout=subprocess.PIPE, text=True)
    sleeper = None
    try:
        sleeper = int(victim.stdout.readline())
        zygotes = [pid for pid in _children(victim.pid) if pid != sleeper]
        assert len(zygotes) == 1
        victim.kill()
        victim.wait()
        assert not _gone(sleeper)
        assert _wait_until(lambda: _gone(zygotes[0]), 5.0)
    finally:
        victim.kill()
        victim.wait()
        victim.stdout.close()
        if sleeper is not None:
            try:
                os.kill(sleeper, signal.SIGKILL)
            except ProcessLookupError:
                pass


def _free_base_port(n):
    """A base port with n consecutive free ports above it, below the
    kernel's ephemeral range."""
    for base in range(24000 + os.getpid() % 4000, 32000, n):
        held = []
        try:
            for port in range(base, base + n):
                sock = socket.socket()
                held.append(sock)
                sock.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for sock in held:
                sock.close()
    raise AssertionError("no free port block")


def test_standalone_nodes_dealt_by_the_cli_decide_and_print_their_result(
        tmp_path):
    cli = [sys.executable, "-m", "repro"]
    subprocess.run(
        cli + ["dealer", "--name", "mp-smoke", "--out", str(tmp_path),
               "--set", f"base_port={_free_base_port(4)}"],
        env=ENV, check=True, capture_output=True, timeout=60,
    )
    nodes = [
        subprocess.Popen(
            cli + ["node", "--manifest", str(tmp_path / "manifest.json"),
                   "--bundle", str(tmp_path / f"node-{pid}.json"),
                   "--linger", "0.2"],
            env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for pid in range(4)
    ]
    try:
        outputs = [node.communicate(timeout=60) for node in nodes]
    finally:
        for node in nodes:
            node.kill()
    values = set()
    for pid, (node, (out, err)) in enumerate(zip(nodes, outputs)):
        assert node.returncode == 0, err
        assert f"node {pid} listening on 127.0.0.1:" in err
        report = json.loads(out)
        assert report["type"] == "result" and report["node"] == pid
        assert [inst["decided"] for inst in report["instances"]] == [True]
        values.add(report["instances"][0]["value"])
    assert len(values) == 1
