"""Shared test utilities.

``StubNetwork`` lets unit tests drive protocol modules as plain state
machines: sends are recorded instead of scheduled, and tests feed
messages in by hand.  ``make_member`` builds a single process (with real
modules) against a stub so module logic is tested in isolation from the
simulator; the integration suite exercises the real loop.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import pytest

from repro.params import ProtocolParams
from repro.sim.process import Process
from repro.sim.rng import SplitRng


class StubNetwork:
    """Network double: records sends, delivers only on demand."""

    def __init__(self, n: int, seed: int = 0):
        self.n = n
        self.rng = SplitRng(seed)
        self.processes: dict[int, Any] = {}
        self.sent: List[Tuple[int, int, Any]] = []  # (source, dest, payload)

    def register(self, process: Any) -> None:
        self.processes[process.pid] = process

    def send(self, source: int, dest: int, payload: Any) -> None:
        self.sent.append((source, dest, payload))

    def now(self) -> float:
        return 0.0

    def trace_note(self, pid: Optional[int], detail: Any) -> None:
        pass

    # -- test helpers ------------------------------------------------------

    def take_sent(self) -> List[Tuple[int, int, Any]]:
        """Return and clear the recorded sends."""
        out = self.sent
        self.sent = []
        return out

    def sent_to(self, dest: int) -> List[Any]:
        return [payload for _s, d, payload in self.sent if d == dest]

    def payloads(self) -> List[Any]:
        return [payload for _s, _d, payload in self.sent]


def make_member(
    n: int = 4,
    t: int = 1,
    pid: int = 0,
    seed: int = 0,
    stub: Optional[StubNetwork] = None,
) -> Tuple[Process, StubNetwork]:
    """A real Process over a StubNetwork, for state-machine unit tests."""
    stub = stub if stub is not None else StubNetwork(n, seed)
    params = ProtocolParams(n, t)
    process = Process(pid, stub, params, register=False)  # type: ignore[arg-type]
    return process, stub


@pytest.fixture
def stub4() -> StubNetwork:
    """A four-process stub network (n=4, t=1 — the smallest optimal system)."""
    return StubNetwork(4)


def deliver_module(process: Process, module_id: str, sender: int, inner: Any) -> None:
    """Feed one routed message straight into a process."""
    process.deliver(sender, (module_id, inner))
