"""The fork server behind ``fabric: "mp"``: protocol, lifetime, pids.

Three layers, cheapest first:

* ``python -m repro.mp.zygote`` driven by hand over its pipes — the
  ``ready → spawn → spawned → exit`` vocabulary, a child's return code
  and stderr file, and what stdin EOF does to live children;
* :class:`~repro.mp.orchestrator.MpOrchestrator` with the real zygote —
  one per run and gone with it on success, boot failure, timeout and
  zygote death; node pids distinct; ``kill`` / ``restart`` signals land
  on exactly the scheduled pid;
* whole processes from outside — an orchestrator SIGKILLed mid-run
  leaves nothing behind, and n standalone ``repro node`` processes
  (the entry point the orchestrator no longer execs) still decide.
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
from repro.mp.bundle import deal
from repro.mp.orchestrator import MpOrchestrator, _NodeProc
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

    def spawn(self, node, argv, stderr):
        request = {"type": "spawn", "node": node, "argv": argv,
                   "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()

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

    def test_stdin_eof_kills_the_live_children_and_exits_zero(
            self, zygote, tmp_path):
        # Real nodes held at the barrier: the "orchestrator" listens but
        # never says go, so they stay alive until someone kills them.
        with socket.socket() as control:
            control.bind(("127.0.0.1", 0))
            control.listen(8)
            endpoint = "127.0.0.1:%d" % control.getsockname()[1]
            manifest, bundles = deal(SCENARIO, str(tmp_path))  # port 0
            pids = []
            for node in (0, 1):
                zygote.spawn(node, ["--manifest", manifest,
                                    "--bundle", bundles[node],
                                    "--control", endpoint],
                             tmp_path / f"node-{node}-0.stderr")
                pids.append(zygote.read()["os_pid"])
            held = [control.accept()[0] for _ in pids]  # both said hello
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


def _assert_nothing_left(orch):
    assert orch._zygote.returncode is not None
    assert _gone(orch._zygote.pid)
    for proc in orch._forked.values():
        assert _gone(proc.os_pid)
    assert not os.path.exists(orch._scratch_dir)


class TestZygoteLifetime:
    def test_one_zygote_per_run_and_distinct_node_pids(self, monkeypatch):
        execs = []
        real_exec = asyncio.create_subprocess_exec

        async def counting_exec(*argv, **kw):
            execs.append(argv)
            return await real_exec(*argv, **kw)

        monkeypatch.setattr(asyncio, "create_subprocess_exec", counting_exec)
        orch = MpOrchestrator(SCENARIO)
        result, error = _run(orch)
        assert error is None and len(result.decisions) == 4
        assert [argv[1:] for argv in execs] == [("-m", "repro.mp.zygote")]
        assert orch._zygote.returncode == 0
        os_pids = [orch.procs[pid].os_pid for pid in range(4)]
        assert len(set(os_pids)) == 4
        assert orch._zygote.pid not in os_pids and os.getpid() not in os_pids
        assert sorted(orch._forked) == sorted(os_pids)
        _assert_nothing_left(orch)

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
            live = [proc.os_pid for proc in orch._forked.values()]
            assert len(live) == 4 and not any(_gone(p) for p in live)
            orch._zygote.kill()
            started = time.monotonic()
            with pytest.raises(ReproError, match=r"mp zygote died \(rc=-9\)"):
                await task
            return time.monotonic() - started

        assert asyncio.run(scenario()) < 5.0
        # SIGKILL gave the zygote no chance to take its children along:
        # the orchestrator signalled the orphans itself.
        assert all(proc.returncode == -signal.SIGKILL
                   for proc in orch._forked.values())
        assert _wait_until(
            lambda: all(_gone(p.os_pid) for p in orch._forked.values()), 5.0)
        _assert_nothing_left(orch)

    def test_a_zygote_that_never_gets_ready_fails_the_run_by_name(
            self, monkeypatch):
        monkeypatch.setattr(sys, "executable", shutil.which("false"))
        orch = MpOrchestrator(SCENARIO)
        _result, error = _run(orch)
        assert str(error) == "mp zygote died (rc=1): no stderr captured"
        assert not os.path.exists(orch._scratch_dir)


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
            first, second = [proc for proc in orch._forked.values()
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
            proc = _NodeProc(os_pid=-1, stderr_path=str(path))
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
