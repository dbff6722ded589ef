"""The benchmark's vocabulary: six workloads, eight end-to-end metrics.

Every later performance claim names a metric and a workload from this
file.  A workload is a fixed ``Scenario`` shape run over a list of
seeds; a metric carries its unit, which direction is worse, and the
bound by which it may worsen before ``--compare`` calls it a regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

#: Common to every workload (ISSUE 11): Bracha, split proposals
#: (``proposals=None`` is ``pid % 2``), the default local coin.
COMMON: Mapping[str, Any] = {
    "protocol": "bracha",
    "stop": "decided",
    "timeout": 120.0,
}

#: Counters that must repeat bit-for-bit per seed on the ``exact``
#: workloads (one seeded scheduler or a virtual clock drives them).
EXACT_COUNTERS = ("steps", "messages_sent", "frames_sent", "wal_records")
EXACT_PREFIX = "netem_"


@dataclass(frozen=True)
class Workload:
    """One named load shape.

    ``seeds_per_round`` is the seed-list length of the full report;
    ``wall_clocked`` says whether ``meta["decision_latency"]`` holds
    per-node wall-clock samples (the sim fabric has one virtual clock
    and yields none); ``exact`` says whether the run's counters repeat
    exactly for a fixed seed.
    """

    name: str
    why: str
    spec: Mapping[str, Any]
    seeds_per_round: int
    wall_clocked: bool
    exact: bool

    @property
    def instances(self) -> int:
        return int(self.spec["instances"])

    @property
    def fabric(self) -> str:
        return str(self.spec["fabric"])

    @property
    def n(self) -> int:
        return int(self.spec["n"])

    def fields(self, seed: int) -> Dict[str, Any]:
        """The ``Scenario`` fields of the run with this seed."""
        out = {**COMMON, **self.spec, "name": self.name, "seed": seed}
        if self.fabric == "mp":
            # Fixed node ports below the kernel's ephemeral range, a fresh
            # set per seed.  With ``base_port: 0`` the orchestrator
            # reserves free ports and closes them before the nodes bind;
            # about one run in 700 here lost one to another socket in
            # between and failed with EADDRINUSE (README, findings).
            out["base_port"] = MP_PORT_FLOOR + self.n * (seed % MP_PORT_SETS)
        return out

    def scenario(self, seed: int) -> Any:
        from repro.scenario import Scenario

        return Scenario(**self.fields(seed))


#: mp node ports: ``MP_PORT_FLOOR + n * (seed % MP_PORT_SETS) + pid``,
#: all below 32768 (``ip_local_port_range`` starts there).
MP_PORT_FLOOR, MP_PORT_SETS = 20000, 2500

_LOSSY_LINK = {
    "loss": 0.1, "delay": 0.003, "jitter": 0.002,
    "duplicate": 0.05, "reorder": 0.1,
}

WORKLOADS = (
    Workload(
        "sim-bracha-n7x8",
        "core+sim only (no codec, MAC or socket): where the scheduler's "
        "PendingSet scan and engine-step changes show",
        {"fabric": "sim", "n": 7, "instances": 8, "batching": "flush"},
        seeds_per_round=2, wall_clocked=False, exact=True,
    ),
    Workload(
        "sim-observed-n7x8",
        "same run with observe ring + span profiler on the hot path: an "
        "observability change shows here and must not move sim-bracha-n7x8",
        {"fabric": "sim", "n": 7, "instances": 8, "batching": "flush",
         "observe": "ring", "profile": "on"},
        seeds_per_round=2, wall_clocked=False, exact=True,
    ),
    Workload(
        "tcp-flush-n7x8",
        "tcp with ~8-message batched frames: binarycodec pack/unpack "
        "dominates and per-frame costs are small, so the codec's workload",
        {"fabric": "tcp", "n": 7, "instances": 8, "batching": "flush",
         "codec": "binary"},
        seeds_per_round=3, wall_clocked=True, exact=False,
    ),
    Workload(
        "tcp-perframe-n7x8",
        "identical traffic unbatched: MAC, framing, _transmit and stream "
        "reads run 8x more often; catches batching that delays frames",
        {"fabric": "tcp", "n": 7, "instances": 8, "batching": "off",
         "codec": "binary"},
        seeds_per_round=3, wall_clocked=True, exact=False,
    ),
    Workload(
        "local-lossy-wal-n4x4",
        "the only workload with a fault and an adverse link: netem policy, "
        "ReliableLink, retransmit wheel and the WAL do work; counters exact",
        {"fabric": "local", "n": 4, "instances": 4, "batching": "flush",
         "codec": "binary", "recovery": "wal", "faults": {3: "silent"},
         "link": _LOSSY_LINK},
        seeds_per_round=16, wall_clocked=True, exact=True,
    ),
    Workload(
        "mp-bracha-n4x4",
        "one OS process per node, setup-bound: mp spawn/deal/barrier cost "
        "shows in setup_s here and nowhere else",
        {"fabric": "mp", "n": 4, "instances": 4, "batching": "flush",
         "codec": "binary"},
        seeds_per_round=5, wall_clocked=True, exact=False,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric: unit, direction, and regression bound.

    ``bound`` is a share of the baseline value; ``bounds`` overrides it
    per workload (the exact-count rows).  ``absolute`` marks a bound
    that is a difference, not a share (``failed_share``).
    """

    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: float
    bounds: Mapping[str, float] = field(default_factory=dict)
    absolute: bool = False

    def bound_for(self, workload: str) -> float:
        return self.bounds.get(workload, self.bound)


_EXACT_MSGS = {
    "sim-bracha-n7x8": 0.0, "sim-observed-n7x8": 0.0,
    "local-lossy-wal-n4x4": 0.0,
}

METRICS = (
    Metric("decisions_per_s", "1/s", "higher", 0.10),
    Metric("decide_p50_ms", "ms", "lower", 0.10),
    Metric("decide_p90_ms", "ms", "lower", 0.20),
    Metric("msgs_per_decision", "count", "lower", 0.03, _EXACT_MSGS),
    Metric("frames_per_decision", "count", "lower", 0.05,
           {"local-lossy-wal-n4x4": 0.0}),
    Metric("setup_s", "s", "lower", 0.10),
    Metric("peak_alloc_mb", "MiB", "lower", 0.05),
    Metric("failed_share", "share", "lower", 0.0, absolute=True),
)

METRIC_BY_NAME: Dict[str, Metric] = {m.name: m for m in METRICS}
