"""The named scenario catalog.

Curated, executable configurations covering the repository's protocol,
adversary, and fabric space.  Each entry is a plain
:class:`~repro.scenario.spec.Scenario` value: run one with ``repro run
--name <entry>`` or :func:`repro.scenario.run`, serialize it with
``to_dict()``, or use it as the base of a
:class:`~repro.scenario.grid.ScenarioGrid`.

The catalog doubles as the compatibility matrix: one entry per protocol
(``unanimous-fast-path``, ``benor-split``, ``crash-majority``,
``mmr14-dealer``, ``acs-batch``) is fabric-agnostic and is executed on
``sim``, ``local``, and ``tcp`` by the parity tests, while the
CI workflow executes every entry so the catalog can never rot.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import ConfigError
from .spec import Scenario

CATALOG: Dict[str, Scenario] = {}


def _entry(scenario: Scenario) -> Scenario:
    if not scenario.name:
        raise ConfigError("catalog scenarios must be named")
    if scenario.name in CATALOG:
        raise ConfigError(f"duplicate catalog name {scenario.name!r}")
    CATALOG[scenario.name] = scenario
    return scenario


# -- one fabric-agnostic entry per protocol ---------------------------------

_entry(Scenario(
    name="unanimous-fast-path",
    description="Bracha, n=4, unanimous 1-proposals: decides in one round "
                "on any fabric (strong validity pins the outcome).",
    protocol="bracha", n=4, proposals=1, seed=1,
))

_entry(Scenario(
    name="benor-split",
    description="Ben-Or baseline, n=4, split proposals: coin flips break "
                "the symmetry; agreement/validity checked either way.",
    protocol="benor", n=4, proposals=(0, 1, 0, 1), seed=5,
))

_entry(Scenario(
    name="crash-majority",
    description="Crash-fault Ben-Or at n=5, t=2 (t < n/2, a regime Byzantine "
                "protocols cannot touch): one node silent from the start, "
                "one crashing mid-run.",
    protocol="benor-crash", n=5, t=2, proposals=(1, 1, 0, 0, 1),
    faults={3: "silent", 4: {"kind": "crash", "crash_after": 25}}, seed=7,
))

_entry(Scenario(
    name="mmr14-dealer",
    description="MMR-14 ABA with the dealer common coin its termination "
                "argument requires, split proposals.",
    protocol="mmr14", n=4, coin="dealer", proposals=(0, 1, 0, 1), seed=3,
))

_entry(Scenario(
    name="acs-batch",
    description="Asynchronous common subset, n=4: every node proposes a "
                "request payload; all correct nodes output the same >= n-t "
                "subset.",
    protocol="acs", n=4, seed=2,
))

# -- adversary gallery (simulator-scheduled) --------------------------------

_entry(Scenario(
    name="two-faced-equivocator",
    description="n=7, t=2 with a two-faced Byzantine process running two "
                "complete honest stacks; reliable broadcast defeats the "
                "equivocation.",
    protocol="bracha", n=7, faults={6: "two_faced"}, seed=11,
))

_entry(Scenario(
    name="split-brain-scheduler",
    description="Near-partition scheduling (cross-group traffic held back) "
                "combined with a two-faced process — the classic attack on "
                "unvalidated agreement.",
    protocol="bracha", n=4, faults={3: "two_faced"},
    scheduler="split", scheduler_args={"group_a": (0, 1)}, seed=13,
))

_entry(Scenario(
    name="shares-coin",
    description="Bracha over the distributed Rabin-style share coin "
                "(dealer-free at runtime): threshold reconstruction on the "
                "critical path.",
    protocol="bracha", n=4, coin="shares", seed=17,
))

_entry(Scenario(
    name="fuzzer-storm",
    description="n=7, t=2 with two protocol-fuzzing Byzantine processes "
                "spraying malformed frames; validation shrugs it off.",
    protocol="bracha", n=7, faults={5: "fuzzer", 6: "fuzzer"}, seed=19,
))

_entry(Scenario(
    name="victim-delay-liveness",
    description="Liveness stress: the scheduler starves node 0's inbound "
                "traffic for hundreds of deliveries; eventual delivery "
                "still forces a decision.",
    protocol="bracha", n=4,
    scheduler="victim", scheduler_args={"victims": (0,)}, seed=31,
))

_entry(Scenario(
    name="squat-originator",
    description="n=4: node 3 INITs node 0's predictable consensus broadcast "
                "names under its own pid with the opposite bit, then READYs "
                "them as node 0's.  Broadcast state keyed by (instance, "
                "originator) keeps node 0's own broadcasts live and the "
                "squatter's value out; keyed by name alone, no seed "
                "decides.",
    protocol="bracha", n=4, proposals=1, faults={3: "squat"}, seed=73,
))

_entry(Scenario(
    name="scripted-schedule",
    description="A delivery order as data: n=4 with a two-faced process; "
                "the first 32 deliveries are pending-set ranks (the digits "
                "of pi, 0 = oldest), the rest oldest first.",
    protocol="bracha", n=4, faults={3: "two_faced"}, seed=79,
    scheduler="script", scheduler_args={"ranks": (
        3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3,
        2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5,
    )},
))

# -- runtime-fabric entries -------------------------------------------------

_entry(Scenario(
    name="tcp-loopback",
    description="Four nodes over authenticated TCP on localhost: "
                "length-prefixed binary frames, pairwise HMACs, real sockets.",
    protocol="bracha", n=4, proposals=1, fabric="tcp", seed=23,
))

_entry(Scenario(
    name="multi-instance-pipeline",
    description="Four parallel Bracha instances per node sharing one "
                "reliable-broadcast layer — the batching shape scaling "
                "work builds on.",
    protocol="bracha", n=4, instances=4, proposals=1, fabric="local", seed=29,
))

_entry(Scenario(
    name="batched-pipeline",
    description="The multi-instance pipeline with the batched message "
                "path: every message queued per destination rides one "
                "wire frame (one codec pass, one MAC on tcp).  Captures "
                "the structured event stream in the in-memory ring sink.",
    protocol="bracha", n=4, instances=4, proposals=1, fabric="local",
    batching="flush", observe="ring", seed=29,
))

# -- adverse-network entries (netem on the runtime fabrics) ------------------

_entry(Scenario(
    name="lossy-tcp-retransmit",
    description="Real sockets, hostile link: 15% of frames dropped on "
                "every TCP link; the seq/ack retransmission layer still "
                "delivers between correct peers and consensus completes.",
    protocol="bracha", n=4, proposals=1, fabric="tcp", seed=37,
    link={"loss": 0.15, "delay": 0.001, "jitter": 0.002},
))

_entry(Scenario(
    name="adverse-local-mix",
    description="The full netem gallery on the deterministic local "
                "fabric: loss, delay+jitter, duplication, and reordering "
                "at once — bit-identical for a fixed seed.",
    protocol="benor", n=4, fabric="local", seed=41,
    link={"loss": 0.1, "delay": 0.003, "jitter": 0.002,
          "duplicate": 0.05, "reorder": 0.1},
))

_entry(Scenario(
    name="batched-tcp-lossy",
    description="Batching and adversity combined: four Bracha instances "
                "over real sockets with 10% frame loss — batched frames "
                "are the retransmission unit, so the seq/ack layer "
                "resends whole batches until consensus completes.",
    protocol="bracha", n=4, instances=4, proposals=1, fabric="tcp", seed=47,
    batching="flush", link={"loss": 0.1, "delay": 0.001},
))

_entry(Scenario(
    name="batched-binary-tcp",
    description="The wire path end to end: four Bracha instances over "
                "real sockets — struct-packed binary frames, HMAC over "
                "raw bytes, zero-copy receive — coalesced by the "
                "batching pipeline (one packed body per broadcast).",
    protocol="bracha", n=4, instances=4, proposals=1, fabric="tcp", seed=83,
    batching="flush",
))

# -- multi-process entries (one OS process per node) -------------------------

_entry(Scenario(
    name="mp-smoke",
    description="Four nodes, four OS processes: the dealer materialises "
                "trusted setup into per-node bundles, the orchestrator "
                "spawns one `repro node` per pid over authenticated TCP, "
                "and the run returns the same verified result every other "
                "fabric does.",
    protocol="bracha", n=4, proposals=1, fabric="mp", seed=53,
))

_entry(Scenario(
    name="mp-crash",
    description="Real crash-fault injection: node 3's OS process is "
                "SIGKILLed at the start barrier and the surviving n-1 "
                "correct processes still decide (t=1 tolerance made "
                "literal).",
    protocol="bracha", n=4, proposals=1, fabric="mp", seed=59,
    faults={3: {"kind": "kill", "after": 0.0}},
))

_entry(Scenario(
    name="mp-lossy",
    description="Multi-process nodes behind a deterministic adverse "
                "network: 10% frame loss on every directed link, the "
                "seq/ack layer retransmitting across real process "
                "boundaries until consensus completes.",
    protocol="bracha", n=4, proposals=1, fabric="mp", seed=61,
    link={"loss": 0.1, "rto": 0.05},
))

_entry(Scenario(
    name="mp-restart",
    description="Crash *recovery* made literal: node 3's OS process is "
                "SIGKILLed 0.1s into the run, respawned 0.5s later from "
                "its write-ahead log, replays its way back to the exact "
                "pre-crash state, and still decides — while ReliableLink "
                "retransmission re-delivers everything it missed.",
    protocol="bracha", n=4, proposals=1, fabric="mp", seed=67,
    faults={3: {"kind": "restart", "after": 0.1, "down": 0.5}},
    recovery="wal", observe="ring",
    link={"retransmit": True, "rto": 0.1, "delay": 0.05,
          "max_retries": 200},
))

_entry(Scenario(
    name="recovery-local",
    description="The durable WAL exercised on the deterministic local "
                "fabric: every node logs its proposal and deliveries to "
                "benchmarks/out/recovery-local/ as run artifacts — replay "
                "any of them through a fresh stack to reconstruct that "
                "node's exact final state.",
    protocol="bracha", n=4, proposals=1, fabric="local", seed=71,
    recovery="wal:benchmarks/out/recovery-local",
))

_entry(Scenario(
    name="partition-heal",
    description="Scripted split-brain on a real transport: {0,1}|{2,3} "
                "severed for the first 0.25s of modeled time, then healed; "
                "retransmission re-delivers what the partition ate.  "
                "Writes the structured event stream to a JSONL trace "
                "readable by `repro report`.",
    protocol="bracha", n=4, proposals=1, fabric="local", seed=43,
    partitions=[{"start": 0.0, "stop": 0.25, "groups": [[0, 1], [2, 3]]}],
    # The run checks that the trace's directory exists when it opens the
    # sink; benchmarks/out/.gitkeep is committed so it does in a fresh
    # checkout.  Routing the trace there keeps run artifacts out of the
    # repo root and under the single directory CI already uploads.
    observe="jsonl:benchmarks/out/partition-heal-trace.jsonl",
))


def catalog_names() -> List[str]:
    """Catalog entry names, in registration order."""
    return list(CATALOG)


def get_scenario(name: str) -> Scenario:
    """Look up a catalog entry; unknown names raise ConfigError."""
    try:
        return CATALOG[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; run `repro catalog` to list "
            f"the {len(CATALOG)} available scenarios"
        ) from None


__all__ = ["CATALOG", "catalog_names", "get_scenario"]
