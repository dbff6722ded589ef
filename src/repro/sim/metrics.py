"""Message and progress accounting for simulation runs.

The benchmark harness reproduces the paper's complexity claims (O(n²)
messages per broadcast, O(n³) per consensus round) from these counters.
Counting happens in the network layer, so protocols cannot forget to
report, and Byzantine traffic is counted like any other traffic — the
paper's complexity statements are about total system load.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any


def payload_kind(payload: Any) -> str:
    """A short classification label for a message payload.

    Payloads are routed tuples ``(module_id, inner)``; the kind combines
    the module with the inner message's class name so per-primitive
    message counts (VALUE vs ECHO vs READY vs step messages) fall out of
    one counter.
    """
    if isinstance(payload, tuple) and len(payload) == 2 and isinstance(payload[0], str):
        module, inner = payload
        return f"{module}/{type(inner).__name__}"
    return type(payload).__name__


@dataclass
class Metrics:
    """Counters updated by the network on every send and delivery.

    Kinds are counted where the paper's complexity claims need them — at
    send; a delivery is counted per destination only.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    sent_by_kind: Counter = field(default_factory=Counter)
    sent_by_source: Counter = field(default_factory=Counter)
    delivered_by_dest: Counter = field(default_factory=Counter)

    def record_send(self, source: int, payload: Any, count: int = 1) -> None:
        """Count ``count`` sends of one payload (a broadcast's fan-out)."""
        self.sent += count
        self.sent_by_kind[payload_kind(payload)] += count
        self.sent_by_source[source] += count

    def record_delivery(self, dest: int, payload: Any) -> None:
        self.delivered += 1
        self.delivered_by_dest[dest] += 1

    def record_drop(self) -> None:
        self.dropped += 1

    def snapshot(self) -> dict:
        """A plain-dict copy suitable for embedding in a RunResult."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "sent_by_kind": dict(self.sent_by_kind),
        }

    def reset(self) -> None:
        self.sent = self.delivered = self.dropped = 0
        self.sent_by_kind.clear()
        self.sent_by_source.clear()
        self.delivered_by_dest.clear()
