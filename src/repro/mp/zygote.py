"""The mp fabric's fork server, both ends of its pipe: import once, fork n.

``python -m repro.mp.zygote`` is the server.  It imports
:mod:`repro.cli`, :mod:`repro.mp.noderunner` and every protocol stack
and fault behavior a node may build, builds the CLI's parser, runs the
node path once (:func:`warm`: ~0.3 s, once per interpreter), freezes
the heap, and then turns each ``spawn`` line on stdin into a forked
child that runs ``repro node`` — ``cli.main(["node", *argv])``.

The client end is :class:`Lease`, one run's hold on the interpreter's
one server; :mod:`repro.mp.orchestrator` uses nothing else, so this
module alone speaks the pipe.

The warm-up run is one Bracha decision among four nodes over in-process
``tcp``: the node, transport, codec, MAC and engine code a forked node
runs.  A child forked before any of that has run starts cold — CPython
3.11+ specializes bytecode in place on first use, and codec tables and
asyncio/hmac/struct caches fill on first use — and would pay for it in
the middle of consensus, in every child, on every run.  Forked after it,
a child inherits the warm copies.  Bracha because every mp scenario in
tree runs it (the catalog's ``mp-*`` entries, the m1/m2 benches and the
e2e workload); ``tcp`` because a ``sim`` or ``local`` run leaves the
socket path cold (both were measured and paid less; see
docs/performance.md).  The warm-up keeps four rules:

* nothing live crosses the fork: when :func:`warm` returns, its event
  loop is closed and its sockets and transports are gone; it starts no
  thread, leaves the fd table and the SIGINT handler as it found them,
  and writes no file (no WAL, no trace);
* nothing reaches stdout before ``ready``: stdout is the control pipe;
* a failed warm-up fails the boot by name: the server exits before
  ``ready`` and the run fails as ``mp zygote died (rc=…)`` with the
  stderr tail (bounded by its boot timeout, never a hang);
* its shape comes from the traffic in tree, not from a benchmark.

The vocabulary, in the newline-JSON framing of :mod:`repro.mp.control`:

client → server (stdin)
    ``spawn``    ``{node, argv, stderr}``: fork one node whose fd 2 is
                 the file ``stderr``
    ``reap``     SIGKILL and reap every live child: the end of a run

server → client (stdout)
    ``ready``    the import and the warm-up are done; spawns are now
                 cheap
    ``spawned``  ``{node, os_pid}``: the child exists
    ``exit``     ``{os_pid, rc}``: the child was reaped (``rc`` is the
                 negated signal number for a signalled child, as
                 ``subprocess`` reports it); never sent before that
                 child's ``spawned``, and exactly once per child
    ``reaped``   answers ``reap`` after every child's ``exit``; nothing
                 follows it until the next request, so the next run
                 reads the pipe from a clean line boundary

The server is single-threaded and runs no asyncio loop once the
warm-up's is closed, so ``os.fork`` is safe; it never opens a bundle,
so each child still reads only its own setup material.  Children are
killed at every run's end (``reap``) and on EOF on stdin — the client
dismissed the server or died — after which the server exits 0: no node
outlives the run that forked it.  POSIX only.
"""

from __future__ import annotations

import asyncio
import atexit
import contextlib
import gc
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import ReproError
from .control import MAX_CONTROL_LINE, encode_msg, read_msg

#: How long release waits for the server's ``reaped``, and a dismissed
#: server for its exit, before it is killed.
REAP_TIMEOUT = 5.0


# -- the server ---------------------------------------------------------------


def _send(message: Dict[str, Any]) -> None:
    """One control line on stdout."""
    os.write(1, encode_msg(message))


def _kill_and_reap(children: Set[int]) -> List[Tuple[int, int]]:
    """SIGKILL every live child and wait for each: its ``(os_pid, rc)``.
    A child that already died is still unreaped, so its signal lands on
    its zombie and its status is its own."""
    for os_pid in children:
        os.kill(os_pid, signal.SIGKILL)
    reaped = [(os_pid, os.waitstatus_to_exitcode(os.waitpid(os_pid, 0)[1]))
              for os_pid in children]
    children.clear()
    return reaped


def _run_child(main: Any, request: Dict[str, Any],
               inherited: Tuple[int, int]) -> None:
    """The forked side: become one node process; never returns."""
    rc = 1
    try:
        fd = os.open(request["stderr"],
                     os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        os.dup2(fd, 2)
        os.close(fd)
        # Let go of the control pipes: a node holding the zygote's
        # stdout open would hide the zygote's death from the
        # orchestrator.
        null = os.open(os.devnull, os.O_RDWR)
        os.dup2(null, 0)
        os.dup2(null, 1)
        os.close(null)
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        for fd in inherited:
            os.close(fd)
        if hasattr(os, "sched_setaffinity"):
            # A forked child starts on the zygote's CPU, and one that
            # sleeps until ``go`` and then runs for tens of ms is never
            # moved by the load balancer: all n nodes would share one
            # core for the whole consensus (decide p50 2x, measured).
            # Exec'd nodes were spread by their own 0.2 s of import;
            # forked ones are dealt round-robin — a start, not a pin.
            allowed = os.sched_getaffinity(0)
            start = sorted(allowed)[request["node"] % len(allowed)]
            os.sched_setaffinity(0, {start})
            os.sched_setaffinity(0, allowed)
        rc = main(["node", *request["argv"]])
    except SystemExit as exc:  # argparse rejections leave through here
        rc = exc.code if isinstance(exc.code, int) else 1
    except BaseException:  # noqa: BLE001 - reported, then the process ends
        traceback.print_exc()
    finally:
        # Never unwind into the server's loop: this process is a node.
        sys.stderr.flush()
        os._exit(rc)


def warm() -> Any:
    """Everything a forked node would otherwise do before it runs: the
    imports of ``repro node`` (the CLI, the node runner, asyncio), of
    every protocol engine and fault behavior (:mod:`repro.stacks` imports
    each only when a node builds it) and the CLI's parser; then one
    in-process tcp Bracha run, so the path a child runs is already
    specialized (see the module docstring).  Returns ``cli.main``."""
    from .. import adversary, app, baselines  # noqa: F401 - every engine and behavior
    from .. import cli
    from ..scenario import Scenario, run
    from . import noderunner  # noqa: F401 - what ``repro node`` imports lazily

    cli._parser()
    run(Scenario(protocol="bracha", n=4, proposals=1, fabric="tcp", seed=0))
    return cli.main


def main() -> int:
    node_main = warm()
    # Everything built so far is shared with every child; moving it to
    # the permanent generation keeps a child's first collections from
    # touching (and so copying) those pages in the middle of consensus.
    gc.collect()
    gc.freeze()

    # One loop, two inputs, nothing concurrent: SIGCHLD only writes a
    # byte to the wake pipe, and children are reaped between requests —
    # so an ``exit`` cannot overtake its ``spawned``, however fast the
    # child dies.
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.signal(signal.SIGCHLD, lambda _signum, _frame: None)
    signal.set_wakeup_fd(wake_w, warn_on_full_buffer=False)

    children: Set[int] = set()
    pending = b""
    try:
        _send({"type": "ready"})
        while True:
            readable, _, _ = select.select([0, wake_r], [], [])
            if wake_r in readable:
                os.read(wake_r, 4096)
                while children:
                    os_pid, status = os.waitpid(-1, os.WNOHANG)
                    if os_pid == 0:
                        break
                    children.discard(os_pid)
                    _send({"type": "exit", "os_pid": os_pid,
                           "rc": os.waitstatus_to_exitcode(status)})
            if 0 in readable:
                chunk = os.read(0, 1 << 16)
                if not chunk:
                    break  # dismissed, or the client is gone
                *lines, pending = (pending + chunk).split(b"\n")
                for line in lines:
                    request = json.loads(line)
                    if request["type"] == "reap":
                        for os_pid, rc in _kill_and_reap(children):
                            _send({"type": "exit", "os_pid": os_pid, "rc": rc})
                        _send({"type": "reaped"})
                        continue
                    os_pid = os.fork()
                    if os_pid == 0:
                        _run_child(node_main, request, (wake_r, wake_w))
                    children.add(os_pid)
                    _send({"type": "spawned", "node": request["node"],
                           "os_pid": os_pid})
    finally:
        # Whichever way the server leaves, the nodes go down with the
        # run that forked them.
        _kill_and_reap(children)
    return 0


# -- the client ---------------------------------------------------------------


def last_lines(stderr: bytes) -> str:
    """The last three lines of a captured stderr, joined for one message."""
    return " | ".join(
        stderr.decode("utf-8", "replace").strip().splitlines()[-3:])


def _child_env() -> Dict[str, str]:
    """The server's environment, with this repro package importable."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": root + os.pathsep + path if path else root}


def _server_key() -> Tuple[Any, ...]:
    """What a server inherits at exec, and so passes to every node it
    forks: an idle one serves only runs that would exec its twin."""
    return os.getpid(), sys.executable, os.getcwd(), _child_env()


class Server:
    """The exec'd server process, as its client holds it.

    A plain ``subprocess.Popen``, because each run has its own event
    loop and reads the server's stdout through a :class:`Lease` for its
    own duration only.  Its stderr is an unlinked temporary file the
    server holds, so a death's tail outlives the run that exec'd it.
    """

    def __init__(self) -> None:
        self.key = _server_key()
        self.errfile = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.mp.zygote"], bufsize=0,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=self.errfile, env=self.key[3],
            )
        except OSError:
            self.errfile.close()
            raise

    def send(self, message: Dict[str, Any]) -> None:
        """One request line; ``OSError`` once the server is gone."""
        self.proc.stdin.write(encode_msg(message))

    async def death(self) -> str:
        """The named error for a server whose stdout hit EOF or that
        talks nonsense, with its return code and stderr tail.  EOF
        nearly always means it is exiting; one still running a second
        later is wedged, and is killed."""
        deadline = time.monotonic() + 1.0
        while self.proc.poll() is None and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        # ``pread``: the server shares the file's offset.
        fd = self.errfile.fileno()
        size = os.fstat(fd).st_size
        tail = last_lines(os.pread(fd, 4096, max(0, size - 4096)))
        return (f"mp zygote died (rc={self.proc.returncode}): "
                f"{tail or 'no stderr captured'}")

    def dismiss(self) -> None:
        """Close stdin — the server kills and reaps any child and exits
        — wait up to :data:`REAP_TIMEOUT`, then kill; close the pipes."""
        self.proc.stdin.close()
        try:
            self.proc.wait(REAP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.close()

    def close(self) -> None:
        """Let go of this process's ends of the pipes and the file."""
        for handle in (self.proc.stdin, self.proc.stdout, self.errfile):
            handle.close()


#: The idle server between runs, always past its ``ready``: a lease
#: takes it at :meth:`Lease.start` and puts it back at
#: :meth:`Lease.release` once every node it forked is reaped.  Runs are
#: sequential (each is one ``asyncio.run``).
_idle: Optional[Server] = None


@atexit.register
def _dismiss_idle() -> None:
    global _idle
    server, _idle = _idle, None
    if server is not None:
        server.dismiss()


def _forget_idle() -> None:
    """In a child forked from this process: the server is the parent's,
    and a child holding its stdin open would hide the parent's death."""
    global _idle
    server, _idle = _idle, None
    if server is not None:
        server.close()


os.register_at_fork(after_in_child=_forget_idle)


class NodeProc:
    """One forked node, with the ``asyncio.subprocess.Process`` surface
    the orchestrator uses.  The server is the parent that reaps it, so
    the exit status arrives as a message; signals go straight to the
    pid, so a ``kill`` is a real SIGKILL from outside."""

    def __init__(self, os_pid: int, stderr_path: str):
        self.os_pid = os_pid
        self.stderr_path = stderr_path
        self.returncode: Optional[int] = None
        self._exited = asyncio.Event()

    def exited(self, rc: int) -> None:
        self.returncode = rc
        self._exited.set()

    def kill(self) -> None:
        if self.returncode is None:
            try:
                os.kill(self.os_pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # reaped; its ``exit`` is on the way

    async def wait(self) -> int:
        await self._exited.wait()
        return self.returncode

    async def communicate(self) -> Tuple[bytes, bytes]:
        """(stdout, stderr) once the node is gone; stdout is /dev/null."""
        await self.wait()
        try:
            with open(self.stderr_path, "rb") as handle:
                return b"", handle.read()
        except OSError:
            return b"", b""


class Lease:
    """One run's hold on the interpreter's server, on the run's loop.

    :meth:`start` takes the idle server from the slot, or execs one and
    waits for its ``ready``; :meth:`spawn` forks a node; :meth:`release`
    reaps the run's nodes, then puts the server back or dismisses it.
    ``nodes`` holds every node forked for the run (by os pid, each
    incarnation of a respawned node included); ``reader`` reads the
    server's stdout and ends at the run's ``reaped`` or at the server's
    death, which ``error`` then names.
    """

    def __init__(self) -> None:
        self.server: Optional[Server] = None
        self.nodes: Dict[int, NodeProc] = {}
        self.error: Optional[str] = None
        self.out: Optional[asyncio.StreamReader] = None
        self.reader: Optional[asyncio.Task] = None
        self._forking: Dict[int, Tuple[asyncio.Future, str]] = {}
        self._reaped = False

    async def start(self, timeout: float) -> None:
        """Take the idle server if it can serve this run, else exec a
        fresh one and wait up to ``timeout`` for its ``ready``; then read
        its stdout until the run ends."""
        global _idle
        idle, _idle = _idle, None
        if idle is not None and (idle.proc.poll() is not None
                                 or idle.key != _server_key()):
            idle.dismiss()
            idle = None
        self.server = idle or Server()
        loop = asyncio.get_running_loop()
        self.out = out = asyncio.StreamReader(limit=MAX_CONTROL_LINE)
        fd = self.server.proc.stdout.fileno()

        def pump() -> None:  # the server's stdout, as a stream on this loop
            data = os.read(fd, 1 << 16)
            if data:
                out.feed_data(data)
            else:
                loop.remove_reader(fd)
                out.feed_eof()

        loop.add_reader(fd, pump)
        if idle is None:
            try:
                message = await asyncio.wait_for(read_msg(out), timeout)
            except asyncio.TimeoutError:
                message = None
            if message is None or message.get("type") != "ready":
                raise ReproError(await self.server.death())
        self.reader = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        """File the ``spawned`` / ``exit`` lines under their handles,
        until the ``reaped`` that ends the run.  An EOF before it is a
        death — and takes every live node with it."""
        while True:
            message = await read_msg(self.out)
            if message is None:
                break
            if message["type"] == "spawned":
                spawned, stderr = self._forking.pop(message["node"])
                node = self.nodes[message["os_pid"]] = NodeProc(
                    message["os_pid"], stderr)
                if not spawned.done():  # not abandoned by a failing run
                    spawned.set_result(node)
            elif message["type"] == "exit":
                # The server never sends this before the ``spawned``
                # above, so the handle is always there to take it.
                self.nodes[message["os_pid"]].exited(message["rc"])
            elif message["type"] == "reaped":
                self._reaped = True
                return
        # Named before any handle reports its exit, so the run fails as
        # a server death and not as the first node it took along.
        self.error = await self.server.death()
        for spawned, _stderr in self._forking.values():
            spawned.set_exception(ReproError(self.error))
        self._forking.clear()
        for node in self.nodes.values():
            if node.returncode is None:
                node.kill()  # orphaned if the server was itself killed
                node.exited(-signal.SIGKILL)

    def spawn(self, pid: int, argv: List[str],
              stderr: str) -> "asyncio.Future[NodeProc]":
        """Have the server fork node ``pid`` running ``repro node
        *argv`` with its fd 2 on the file ``stderr``; the future of its
        handle, set once ``spawned`` is in."""
        spawned = asyncio.get_running_loop().create_future()
        self._forking[pid] = (spawned, stderr)
        try:
            self.server.send({"type": "spawn", "node": pid, "argv": argv,
                              "stderr": stderr})
        except OSError:
            pass  # the reader's EOF fails ``spawned`` with the named error
        return spawned

    async def release(self) -> None:
        """End the run: SIGKILL its nodes and have the server reap them
        all (a respawn in flight included); a server whose ``reaped``
        came back goes to the idle slot, any other is dismissed."""
        global _idle
        server, reader = self.server, self.reader
        if server is None:
            return  # the exec failed
        for node in self.nodes.values():
            node.kill()
        if reader is not None:
            if not reader.done():  # ready, and alive
                with contextlib.suppress(OSError):  # else gone: not reaped
                    server.send({"type": "reap"})
                    await asyncio.wait({reader}, timeout=REAP_TIMEOUT)
                reader.cancel()
            await asyncio.gather(reader, return_exceptions=True)
        asyncio.get_running_loop().remove_reader(server.proc.stdout.fileno())
        if self._reaped:
            _idle = server
        else:
            server.dismiss()


if __name__ == "__main__":
    sys.exit(main())
