"""A forked node starts warm: the zygote's warm-up and one-pass spawns.

:func:`repro.mp.zygote.warm` runs one in-process tcp Bracha run before
the fork server forks anything.  These tests pin what that run may not
leave behind (a thread, an fd, an event loop, a signal handler, a byte
on the control pipe, a file) and that a failing warm-up fails the boot
by name.  They also pin the orchestrator's side: a run writes every
``spawn`` line before it reads a ``spawned``, and a zygote that dies
with spawn lines still queued is a named error that takes its nodes
along.
"""

import asyncio
import fcntl
import gc
import json
import os
import re
import signal
import struct
import subprocess
import sys
import termios
import time
import warnings

import pytest

from repro.errors import ReproError
from repro.mp import zygote as zygote_mod
from repro.mp.control import encode_msg
from repro.mp.orchestrator import MpOrchestrator
from tests.mp.test_zygote import (
    ENV,
    SCENARIO,
    _assert_nothing_left,
    _children,
    _gone,
    _run,
    _wait_until,
)

_WARM_PROBE = """
import asyncio, json, os, signal, sys, threading
from repro.mp import zygote

sigint = signal.getsignal(signal.SIGINT)
fds = sorted(os.listdir("/proc/self/fd"))
zygote.warm()
report = {
    "fds_before": fds,
    "fds_after": sorted(os.listdir("/proc/self/fd")),
    "threads": threading.active_count(),
    "running_loop": asyncio._get_running_loop() is not None,
    "set_loop": asyncio.get_event_loop_policy()._local._loop is not None,
    "sigint_kept": signal.getsignal(signal.SIGINT) is sigint,
}
with open(sys.argv[1], "w") as out:
    json.dump(report, out)
"""


def test_nothing_live_crosses_the_fork(tmp_path):
    """After ``warm()`` the fork server is the process it was before the
    warm-up run, give or take its heap: one thread, the same fds, no
    event loop, the same SIGINT handler, nothing on stdout (the
    orchestrator's control pipe) and no file written."""
    cwd, tmpdir = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    tmpdir.mkdir()
    report_path = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, "-c", _WARM_PROBE, str(report_path)],
        env={**ENV, "TMPDIR": str(tmpdir)}, cwd=cwd,
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b""
    report = json.loads(report_path.read_text())
    assert report["fds_after"] == report["fds_before"]
    assert report["threads"] == 1
    assert not report["running_loop"] and not report["set_loop"]
    assert report["sigint_kept"]
    assert list(cwd.iterdir()) == [] and list(tmpdir.iterdir()) == []


def test_a_failed_warm_up_fails_the_boot_by_name(tmp_path, monkeypatch):
    # The "interpreter" the orchestrator execs is a real one whose
    # warm-up run raises: the run must fail as the zygote's death, with
    # the cause in the stderr tail, and never hang.
    fake = tmp_path / "python"
    fake.write_text(
        "#!/bin/sh\n"
        f"exec {sys.executable} -c '\n"
        "import sys, repro.scenario\n"
        "from repro.errors import LivenessFailure\n"
        "def run(*args, **kwargs):\n"
        "    raise LivenessFailure(\"warm-up stalled\")\n"
        "repro.scenario.run = run\n"
        "from repro.mp import zygote\n"
        "sys.exit(zygote.main())\n"
        "'\n"
    )
    fake.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(fake))
    orch = MpOrchestrator(SCENARIO)
    started = time.monotonic()
    _result, error = _run(orch)
    assert time.monotonic() - started < 20.0
    assert re.fullmatch(
        r"mp zygote died \(rc=1\): .*LivenessFailure: warm-up stalled",
        str(error))
    assert orch._zygote.nodes == {}
    _assert_nothing_left(orch, idle=False)


def _spy_on_zygote_traffic(monkeypatch, orch, on_send=None):
    """The spawn lines the run writes and the ``spawned`` lines its
    zygote reader reads, in the order they happen."""
    log = []
    real_send = zygote_mod.Server.send
    real_read = zygote_mod.read_msg

    def send(server, message):
        if message["type"] == "spawn":
            log.append(("spawn", message["node"]))
        if on_send is not None:
            on_send(server, message, lambda: real_send(server, message))
        else:
            real_send(server, message)

    async def read(reader):
        message = await real_read(reader)
        if (reader is orch._zygote.out and message is not None
                and message["type"] == "spawned"):
            log.append(("spawned", message["node"]))
        return message

    monkeypatch.setattr(zygote_mod.Server, "send", send)
    monkeypatch.setattr(zygote_mod, "read_msg", read)
    return log


def test_a_run_writes_every_spawn_line_before_it_reads_a_spawned(
        monkeypatch):
    orch = MpOrchestrator(SCENARIO)
    log = _spy_on_zygote_traffic(monkeypatch, orch)
    result, error = _run(orch)
    assert error is None and len(result.decisions) == 4
    n = SCENARIO.n
    assert log[:n] == [("spawn", node) for node in range(n)]
    assert sorted(log[n:]) == [("spawned", node) for node in range(n)]
    _assert_nothing_left(orch)


def _unread(fd):
    """Bytes waiting in a pipe, without reading them."""
    return struct.unpack(
        "i", fcntl.ioctl(fd, termios.FIONREAD, b"\0\0\0\0"))[0]


def test_a_zygote_killed_with_spawn_lines_queued_is_named_and_takes_its_nodes(
        monkeypatch):
    """Nodes 0 and 1 are forked and announced; the zygote is stopped
    with the lines for nodes 2 and 3 queued in its stdin, then killed.
    The run fails as its death, and the two orphans go too."""
    _kill_the_zygote_with_spawn_lines_queued(monkeypatch)


def test_a_failed_boot_leaves_no_unclosed_control_connection(monkeypatch):
    """The two orphans connected and were cancelled before their hello
    was read: the run must still close both control connections, or
    the garbage collector reports them as unclosed transports."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        _kill_the_zygote_with_spawn_lines_queued(monkeypatch)
        gc.collect()
    leaks = [str(w.message) for w in caught
             if issubclass(w.category, ResourceWarning)]
    assert leaks == []


def _kill_the_zygote_with_spawn_lines_queued(monkeypatch):
    orch = MpOrchestrator(SCENARIO)
    forked = []

    def on_send(server, message, send):
        zygote = server.proc.pid
        if message["type"] == "spawn" and message["node"] == 2:
            # The loop is blocked here, so nothing reads the pipe: wait
            # until both ``spawned`` lines are in it, then stop the server.
            out = server.proc.stdout.fileno()
            assert _wait_until(lambda: len(_children(zygote)) == 2, 10.0)
            forked.extend(_children(zygote))
            want = sum(len(encode_msg({"type": "spawned", "node": 0,
                                       "os_pid": os_pid}))
                       for os_pid in forked)
            assert _wait_until(lambda: _unread(out) == want, 10.0)
            os.kill(zygote, signal.SIGSTOP)
        send()
        if message["type"] == "spawn" and message["node"] == 3:
            os.kill(zygote, signal.SIGKILL)

    log = _spy_on_zygote_traffic(monkeypatch, orch, on_send)

    async def scenario():
        task = asyncio.ensure_future(orch.run())
        started = time.monotonic()
        with pytest.raises(ReproError, match=r"^mp zygote died \(rc=-9\)"):
            await task
        return time.monotonic() - started

    assert asyncio.run(scenario()) < 5.0
    assert log == [("spawn", 0), ("spawn", 1), ("spawn", 2), ("spawn", 3),
                   ("spawned", 0), ("spawned", 1)]
    assert sorted(proc.os_pid for proc in orch._zygote.nodes.values()) == sorted(forked)
    assert all(proc.returncode == -signal.SIGKILL
               for proc in orch._zygote.nodes.values())
    assert _wait_until(lambda: all(_gone(os_pid) for os_pid in forked), 5.0)
    _assert_nothing_left(orch, idle=False)
