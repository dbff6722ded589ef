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
* :mod:`repro.mp.zygote` — the fork server, both ends of its pipe: the
  server (``python -m repro.mp.zygote``) imports the node code once and
  forks one node per request; the client end, which the orchestrator
  imports, execs it on an interpreter's first mp run, keeps it idle
  between runs and has it reap every run's nodes at the run's end.
"""

from .._lazy import lazy_exports
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

# Loaded on first use, so ``python -m repro.mp.zygote`` runs once.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".orchestrator": ("MpOrchestrator", "run_mp_sync"),
})

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
