"""Netem: deterministic adverse-network emulation for the runtime fabrics.

The discrete-event simulator owns adversarial *scheduling*; this package
owns adversarial *links* for the real runtime: per-link delay
distributions, drop probability, duplication, reordering, and scripted
partition/heal timelines, all seeded and reproducible, plus the
sequence-number/ack retransmission layer that keeps correct peers
eventually-delivering under loss.

Pieces:

* :mod:`~repro.netem.models` — the validated config values
  (:class:`LinkModel`, :class:`Partition`, :class:`NetemConfig`) that
  scenarios' ``link``/``partitions`` fields parse into.
* :mod:`~repro.netem.policy` — :class:`LinkPolicy`, the seeded per-link
  verdict source both ``LocalHub`` and ``TcpTransport`` consult.
* :mod:`~repro.netem.clock` — :class:`TickClock` (deterministic virtual
  time for the ``local`` fabric) and :class:`WallClock` (``tcp``).
* :mod:`~repro.netem.reliable` — :class:`ReliableLink`, the
  retransmission transport wrapper.

See ``docs/netem.md`` for the model and its guarantees.
"""

from .._lazy import lazy_exports
from .models import LinkModel, NetemConfig, Partition, partition_to_spec
from .policy import Delivery, LinkCounters, LinkPolicy

# The clocks, the link frames and the retransmission layer serve the
# runtime fabrics only, so only they load them (on first use).
__getattr__, __dir__ = lazy_exports(globals(), {
    ".clock": ("Clock", "TickClock", "WallClock"),
    ".frames": ("LinkAck", "LinkFrame"),
    ".reliable": ("ReliableLink",),
})

__all__ = [
    "Clock",
    "Delivery",
    "LinkAck",
    "LinkCounters",
    "LinkFrame",
    "LinkModel",
    "LinkPolicy",
    "NetemConfig",
    "Partition",
    "ReliableLink",
    "TickClock",
    "WallClock",
    "partition_to_spec",
]
