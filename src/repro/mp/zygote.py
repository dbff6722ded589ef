"""The mp fabric's fork server: import once, fork n.

``python -m repro.mp.zygote`` is exec'd by the first mp run of an
interpreter and serves every later one (:mod:`repro.mp.orchestrator`
keeps it idle between runs).  It imports :mod:`repro.cli` and
:mod:`repro.mp.noderunner` and builds the CLI's parser (:func:`warm`:
the ~0.2 s every node used to pay for itself), freezes the heap, and
then turns each ``spawn`` line on stdin into a forked child that runs
``repro node`` — ``cli.main(["node", *argv])``.  The vocabulary, in the
newline-JSON framing of :mod:`repro.mp.control`:

orchestrator → zygote (stdin)
    ``spawn``    ``{node, argv, stderr}``: fork one node whose fd 2 is
                 the file ``stderr``
    ``reap``     SIGKILL and reap every live child: the end of a run

zygote → orchestrator (stdout)
    ``ready``    the import is done; spawns are now cheap
    ``spawned``  ``{node, os_pid}``: the child exists
    ``exit``     ``{os_pid, rc}``: the child was reaped (``rc`` is the
                 negated signal number for a signalled child, as
                 ``subprocess`` reports it); never sent before that
                 child's ``spawned``, and exactly once per child
    ``reaped``   answers ``reap`` after every child's ``exit``; nothing
                 follows it until the next request, so the next run
                 reads the pipe from a clean line boundary

The server is single-threaded and runs no asyncio loop, so ``os.fork``
is safe; it never opens a bundle, so each child still reads only its own
setup material.  Children are killed at every run's end (``reap``) and
on EOF on stdin — the orchestrator's interpreter dismissed the server
or died — after which the server exits 0: no node outlives the run that
forked it.  POSIX only.

Only its tests import this module; it is run with ``-m``.
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import sys
import traceback
from typing import Any, Dict, List, Set, Tuple

from .control import encode_msg


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
    imports of ``repro node`` (the CLI, the node runner, asyncio) and the
    CLI's parser.  Returns ``cli.main``."""
    from .. import cli
    from . import noderunner  # noqa: F401 - what ``repro node`` imports lazily

    cli._parser()
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
                    break  # dismissed, or the orchestrator is gone
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


if __name__ == "__main__":
    sys.exit(main())
