"""The replay invariant, held bit-exactly at every WAL prefix.

Recovery's correctness argument is that the engines are deterministic
functions of their logged inputs: replaying a node's WAL through a
fresh, unmodified stack must land in *exactly* the state the original
incremental execution was in after the same inputs — same outbound
messages in the same order, same decided flags, same decisions — and
that must hold at **every prefix**, because a crash can land anywhere.

For each protocol: run the real local-fabric cluster with WAL logging
on, take node 0's log, then compare a fresh-stack replay of each
prefix against an incrementally driven reference stack, snapshot for
snapshot.  The final replayed state must also reproduce the decision
the cluster run actually reported — tying the property to the log of a
real run, not a synthetic one.
"""

import os

import pytest

from repro.recovery.wal import (
    WalError, read_wal, replay, validate_header, wal_filename,
)
from repro.runtime import binarycodec
from repro.runtime.node import NodeNetwork
from repro.scenario import Scenario, run
from repro.sim.process import Process
from repro.stacks import ProtocolPlan

SCENARIOS = {
    "bracha": Scenario(protocol="bracha", n=4, proposals=1, seed=13),
    "benor": Scenario(protocol="benor", n=4, proposals=1, seed=13),
    "benor-crash": Scenario(protocol="benor-crash", n=5, t=2, proposals=1,
                            seed=13),
    "mmr14": Scenario(protocol="mmr14", n=4, coin="dealer", proposals=1,
                      seed=13),
    "acs": Scenario(protocol="acs", n=4, seed=13),
}


class _Harness:
    """One fresh node-0 stack on a private runtime network."""

    def __init__(self, scenario):
        params = scenario.params
        self.net = NodeNetwork(0, params, seed=scenario.seed)
        self.plan = ProtocolPlan(
            scenario.protocol, params, scenario.coin_name,
            scenario.seed, scenario.instances,
        )
        self.process = Process(0, self.net, params)
        self.modules = self.plan.build(self.process)
        self.process.start()

    def apply(self, record):
        replay(
            [record],
            propose=lambda v: self.plan.propose(self.modules, 0, v),
            deliver=self.process.deliver,
        )

    def snapshot(self):
        """Canonical digest of everything the stack has *done* so far."""
        sends = [(dest, binarycodec.dumps(payload))
                 for dest, payload in self.net.outbox]
        decided = self.plan.decided(self.modules)
        values = [
            binarycodec.dumps(
                getattr(m, "decision", None) if hasattr(m, "decision")
                else getattr(m, "outputs", None))
            for m in self.modules
        ]
        return (tuple(sends), decided, tuple(values))


def _prefixes(count):
    """Every prefix for short logs; an even sample (ends included) after."""
    if count <= 30:
        return list(range(count + 1))
    stride = count // 15
    sampled = set(range(0, count + 1, stride))
    sampled.update((0, 1, count - 1, count))
    return sorted(sampled)


@pytest.mark.parametrize("protocol", sorted(SCENARIOS))
def test_every_wal_prefix_replays_bit_identically(protocol, tmp_path):
    scenario = SCENARIOS[protocol].replace(
        fabric="local", recovery=f"wal:{tmp_path}")
    result = run(scenario)
    assert not result.violations

    header, records = read_wal(str(tmp_path / wal_filename(0)))
    assert header["node"] == 0
    assert header["protocol"] == protocol
    assert records, "the run logged nothing"

    # Reference: one stack driven incrementally, snapshotted per record.
    reference = _Harness(scenario)
    snapshots = [reference.snapshot()]
    for record in records:
        reference.apply(record)
        snapshots.append(reference.snapshot())

    # The property: a from-scratch replay of records[:k] matches the
    # reference's k-th snapshot, for every (sampled) k.
    for k in _prefixes(len(records)):
        fresh = _Harness(scenario)
        for record in records[:k]:
            fresh.apply(record)
        assert fresh.snapshot() == snapshots[k], (
            f"{protocol}: replaying {k}/{len(records)} records diverged"
        )

    # And the full replay reproduces the run's actual outcome.
    assert reference.plan.decided(reference.modules)
    if protocol != "acs":
        decisions = {m.decision for m in reference.modules}
        assert decisions == result.decided_values


# -- the on-disk format across commits ----------------------------------------

#: Node 0's log of ``SCENARIOS[protocol]`` on the ``local`` fabric, as
#: written by the commit that introduced WAL version 2 (both runs decided
#: 1 there): what says a log written before a change still replays after
#: it.  The ``.jsonl`` files are the same runs' version 1 logs, written by
#: commit 69cb50e; this library refuses them.
PARENT_WALS = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("protocol", ["benor", "bracha"])
def test_a_wal_written_at_the_parent_commit_replays_to_the_same_decision(protocol):
    header, records = read_wal(os.path.join(
        PARENT_WALS, f"parent-{protocol}-n4-seed13-wal-0.log"))
    validate_header(header, run_id="local-13", node=0, seed=13,
                    protocol=protocol, instances=1)
    assert records[0]["kind"] == "propose"
    assert {r["kind"] for r in records[1:]} == {"deliver"}

    harness = _Harness(SCENARIOS[protocol])
    for record in records:
        harness.apply(record)
    assert harness.plan.decided(harness.modules)
    assert {m.decision for m in harness.modules} == {1}


@pytest.mark.parametrize("protocol", ["benor", "bracha"])
def test_a_version_1_wal_is_refused_by_its_version(protocol):
    with pytest.raises(WalError, match="version 1"):
        read_wal(os.path.join(
            PARENT_WALS, f"parent-{protocol}-n4-seed13-wal-0.jsonl"))
