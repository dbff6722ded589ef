"""The multi-process fabric: one OS process per node, dealt setup.

Four pieces (see docs/deployment.md):

* :mod:`repro.mp.bundle` — the ``repro dealer`` bootstrap: per-node
  JSON bundles (pairwise MAC keys, coin seeds, dealer shares) plus a
  shared run manifest (addresses, scenario hash);
* :mod:`repro.mp.noderunner` — what ``repro node`` runs: one
  :class:`~repro.runtime.node.Node` over
  :class:`~repro.runtime.tcp.TcpTransport` per process;
* :mod:`repro.mp.orchestrator` — makes ``fabric: "mp"`` a first-class
  :class:`~repro.scenario.Scenario` value: has the node processes
  forked, barriers them, SIGKILLs the ones a ``kill`` fault condemns,
  and assembles the same verified :class:`~repro.types.RunResult` the
  other fabrics return;
* :mod:`repro.mp.zygote` — the fork server (``python -m
  repro.mp.zygote``) the first mp run of an interpreter execs and every
  later one reuses: imports the node code once, forks one node per
  request, reaps them all at each run's end.  Run with ``-m`` only;
  nothing imports it, this package included.
"""

from .bundle import (
    BundleKeyRing,
    NodeBundle,
    RunManifest,
    SHARE_HORIZON,
    deal,
    load_bundle,
    load_manifest,
    scenario_hash,
)
from .orchestrator import MpOrchestrator, run_mp_sync

__all__ = [
    "BundleKeyRing",
    "MpOrchestrator",
    "NodeBundle",
    "RunManifest",
    "SHARE_HORIZON",
    "deal",
    "load_bundle",
    "load_manifest",
    "run_mp_sync",
    "scenario_hash",
]
