"""Simulated crash-restart of a correct node (the ``sim`` fabric).

On the ``mp`` fabric a ``restart`` fault is a real SIGKILL followed by a
respawn that replays a durable WAL (:mod:`repro.recovery.wal`).  The
simulator runs the same lifecycle without processes or files: the node
logs its proposal and every delivery through a ``WalWriter`` into an
in-memory buffer, "crashes" by discarding its stack (memory loss), and
holds the traffic that arrives while it is down (delayed, not lost —
what ReliableLink retransmission recovers on the real fabrics).  It then
recovers as an mp respawn does: ``parse_wal`` verifies the log's bytes
(a damaged log raises ``WalError``), ``replay`` drives a fresh stack
through them, and the held backlog follows.

The simulator has no wall clock, so the fault's ``after``/``down``
parameters are counted in *deliveries*, as the ``crash`` fault's
``crash_after`` is: crash when ``after`` messages have been processed,
recover once ``down`` further messages have queued up while down.

Replay is bit-exact: before rebuilding, the node's private RNG streams
(named ``("process", pid, ...)``) are reset to their derived initial
states (:meth:`~repro.sim.rng.SplitRng.reset`), so the replayed
execution draws the same coin values the pre-crash execution drew.
Replayed sends go back to the network — at-least-once, as on mp — and
peers absorb the duplicates idempotently.
"""

from __future__ import annotations

import io
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..params import ProtocolParams
from ..sim.network import NetworkAPI
from ..sim.process import Process
from ..types import ProcessId
from .wal import WalWriter, parse_wal, replay

__all__ = ["RestartBehavior"]


class RestartBehavior:
    """A *correct* node that crashes once and comes back.

    Unlike the Byzantine behaviors it can wrap no adversarial logic:
    ``is_faulty`` is False, the node must decide, and the harness holds
    it to the same safety properties as any other correct node.

    Args:
        factory: builds an honest stack on a fresh (unregistered)
            :class:`~repro.sim.process.Process` and returns the module
            list — called once at boot and once per recovery.
        after: deliveries processed before the crash.
        down: deliveries buffered while down before recovering (>= 1).

    Its ``restart`` / ``recovery_replayed`` / ``recovery_complete``
    events go to the network's observer, if it has one.
    """

    kind = "restart"

    def __init__(
        self,
        pid: ProcessId,
        network: NetworkAPI,
        params: ProtocolParams,
        factory: Callable[[Process], List[Any]],
        after: int = 8,
        down: int = 1,
    ):
        if down < 1:
            raise ConfigError(f"restart 'down' must be >= 1 delivery, got {down!r}")
        self.pid = pid
        self.network = network
        self.params = params
        self.factory = factory
        self.after = int(after)
        self.down = int(down)
        self.inner: Optional[Process] = Process(pid, network, params, register=False)
        self.modules: List[Any] = factory(self.inner)
        #: The node's WAL bytes: its proposal and every delivery, each
        #: logged before the stack sees it.
        self.wal_bytes = io.BytesIO()
        self.wal = WalWriter.open(f"<sim wal p{pid}>", {"node": pid},
                                  self.wal_bytes)
        self.held: List[Tuple[ProcessId, Any]] = []
        self.restarts = 0
        self.replayed = 0
        self.crash_time: Optional[float] = None
        self.recovery_time: Optional[float] = None
        self._delivered = 0
        self._plan: Any = None

    @property
    def is_faulty(self) -> bool:
        return False

    @property
    def down_now(self) -> bool:
        return self.inner is None

    # -- harness surface -------------------------------------------------

    def propose(self, plan: Any, proposal: Any) -> None:
        """Feed the node's proposal, logged first so recovery replays it."""
        self._plan = plan
        self.wal.append_propose(proposal)
        plan.propose(self.modules, self.pid, proposal)

    def is_decided(self, plan: Any) -> bool:
        return self.inner is not None and plan.decided(self.modules)

    def is_halted(self, plan: Any) -> bool:
        return self.inner is not None and plan.halted(self.modules)

    # -- simulation interface --------------------------------------------

    def start(self) -> None:
        if self.inner is not None:
            self.inner.start()

    def deliver(self, sender: ProcessId, payload: Any) -> None:
        if self.inner is not None and self.restarts == 0 and self._delivered >= self.after:
            self._crash()
        if self.inner is None:
            self.held.append((sender, payload))
            if len(self.held) >= self.down:
                self._recover()
            return
        self.wal.append_deliver(sender, payload)
        self._delivered += 1
        self.inner.deliver(sender, payload)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unlink the running incarnation's stack (end of run)."""
        if self.inner is not None:
            self.inner.close()

    def _crash(self) -> None:
        self.crash_time = self.network.now()
        # The discarded incarnation is unlinked now, so memory loss frees
        # it by reference counting rather than leaving cyclic garbage.
        self.inner.close()
        self.inner = None
        self.modules = []

    def _recover(self) -> None:
        self.restarts += 1
        self._emit("restart", {"attempt": self.restarts,
                               "held": len(self.held)})
        # A damaged log is refused before a stack is built: the node
        # stays down, as an mp respawn refuses to boot.
        _header, records = parse_wal(self.wal.path, self.wal_bytes.getvalue())
        # Reset this pid's private streams so the replayed execution
        # draws the same randomness the pre-crash execution drew.
        self.network.rng.reset("process", self.pid)
        self.inner = Process(self.pid, self.network, self.params, register=False)
        self.modules = self.factory(self.inner)
        self.inner.start()
        self.replayed = replay(
            records, lambda value: self._plan.propose(self.modules, self.pid, value),
            self.inner.deliver,
        )["replayed"]
        self._emit("recovery_replayed", {"replayed": self.replayed})
        held, self.held = self.held, []
        for sender, payload in held:
            self.deliver(sender, payload)
        self.recovery_time = self.network.now() - self.crash_time
        self._emit("recovery_complete", {"recovery_time": self.recovery_time})

    def _emit(self, kind: str, detail: Dict[str, Any]) -> None:
        observer = self.network.observer
        if observer is not None:
            observer.emit(kind, node=self.pid, detail=detail)

    def __repr__(self) -> str:
        state = "down" if self.down_now else "up"
        return (f"<RestartBehavior p{self.pid} {state} "
                f"delivered={self._delivered} restarts={self.restarts}>")
