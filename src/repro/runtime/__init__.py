"""Concurrent runtime: the paper's protocols on real transports.

The simulator (:mod:`repro.sim`) executes protocol stacks one delivery
at a time under a scheduler it controls — ideal for adversarial
exploration and exact reproducibility, useless for serving traffic.
This package executes the *same unmodified* protocol modules
(:class:`~repro.core.consensus.BrachaConsensus`, the broadcast layer,
the baselines, ACS) concurrently:

* :class:`~repro.runtime.transport.Transport` — per-node async message
  endpoint.  :class:`~repro.runtime.transport.LocalHub` provides
  in-process ``asyncio`` queue transports;
  :class:`~repro.runtime.tcp.TcpTransport` speaks length-prefixed
  binary frames over TCP with :mod:`repro.net.auth` MAC authentication.
* :class:`~repro.runtime.node.Node` — adapts the sim-facing
  ``deliver(sender, payload)`` / ``start()`` protocol interface onto an
  async inbox, so modules remain synchronous state machines.
* :class:`~repro.runtime.cluster.Cluster` — takes a
  :class:`~repro.scenario.Scenario`, spawns its ``n`` nodes (optionally
  with Byzantine behaviors), runs one or many consensus instances to
  decision, and reads every node out into the same
  :class:`~repro.outcome.NodeReport` the simulator fills;
  :func:`repro.scenario.run` on a ``local`` / ``tcp`` scenario is the
  one-shot path through it.

See ``docs/runtime.md`` for the design and its current limits.
"""

from .._lazy import lazy_exports

# Nothing loads until a name is read: the WAL imports the value format
# (``repro.runtime.binarycodec``) without the fabrics, and the fabrics
# import the WAL.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".cluster": ("Cluster",),
    ".codec": ("CodecError", "WireBatch", "register_message"),
    ".node": ("Node", "NodeNetwork"),
    ".tcp": ("TcpTransport",),
    ".transport": ("LocalHub", "Transport", "TransportClosed"),
})

__all__ = [
    "Cluster",
    "CodecError",
    "LocalHub",
    "Node",
    "NodeNetwork",
    "TcpTransport",
    "Transport",
    "TransportClosed",
    "WireBatch",
    "register_message",
]
