"""Cluster driver tests: configuration guards, apps, metrics shape."""

import os
import tempfile

import pytest

import repro.runtime.node as node_module
from repro.adversary.behaviors import ByzantineBehavior
from repro.errors import ConfigError, LivenessFailure
from repro.obs import Observer, RingSink
from repro.params import for_system
from repro.recovery.wal import wal_filename
from repro.runtime import Cluster
from repro.runtime.codec import Stamped, WireBatch
from repro.runtime.node import Node, NodeNetwork
from repro.scenario import Scenario, get_scenario, run
from repro.types import StepValue


def test_acs_over_local_transport():
    result = run(Scenario(protocol="acs", fabric="local", seed=3))
    (pids,) = result.decided_values
    assert len(pids) >= 3, "common subset has at least n-t elements"
    assert len(result.decisions) == 4


def test_many_instances_share_one_broadcast_layer():
    result = run(Scenario(
        protocol="bracha", instances=4, proposals=[0, 1, 1, 0],
        fabric="local", seed=4,
    ))
    per_node = result.meta["instance_decisions"]
    assert len(per_node) == 4
    # Agreement per instance: all nodes hold the same decision vector.
    vectors = {tuple(v) for v in per_node.values()}
    assert len(vectors) == 1
    assert all(bit in (0, 1) for vector in vectors for bit in vector)


def test_metrics_are_sim_compatible():
    result = run(Scenario(proposals=1, fabric="local", seed=5))
    # The same fields the simulator's RunResult carries, usable by the
    # same analysis/table code.
    assert result.messages_sent > 0
    assert result.messages_delivered > 0
    assert result.rounds >= 1
    assert set(result.meta["decision_rounds"]) == {0, 1, 2, 3}
    kinds = result.meta["messages_by_kind"]
    assert any(kind.startswith("rbc/") for kind in kinds)


def test_dealer_coin_and_two_faced_fault():
    result = run(Scenario(
        n=7, protocol="bracha", coin="dealer", fabric="local", seed=6,
        faults={2: "two_faced"},
    ))
    assert len(result.decided_values) == 1
    assert sorted(result.decisions) == [0, 1, 3, 4, 5, 6]


def test_unknown_transport_and_protocol_are_rejected():
    # A cluster runs 'local' and 'tcp' only — the mirror of SimRun's
    # check.  An unknown fabric never gets that far, nor do an unknown
    # protocol, two mmr14 instances or an over-budget fault table:
    # Scenario rejects them (tests/scenario/test_spec.py).
    for fabric in ("sim", "mp"):
        with pytest.raises(ConfigError, match="'local' and 'tcp' fabrics only"):
            Cluster(Scenario(fabric=fabric))
    with pytest.raises(ConfigError, match="unknown fabric 'carrier-pigeon'"):
        Cluster(Scenario(fabric="carrier-pigeon"))
    with pytest.raises(ConfigError, match="share-based coin"):
        Cluster(Scenario(fabric="local", protocol="acs", coin="shares"))


def test_timeout_surfaces_as_liveness_failure():
    # All-silent "correct" nodes can never decide; with an aggressive
    # timeout the driver must fail loudly rather than hang.
    with pytest.raises(LivenessFailure):
        run(Scenario(
            t=1, proposals=1, seed=8, fabric="local",
            faults={0: "silent", 1: "silent"}, allow_excess_faults=True,
            timeout=0.3,
        ), check=True)


def test_stop_halted_drains_decide_amplification():
    result = run(Scenario(proposals=0, seed=9, fabric="local", stop="halted"))
    assert result.halted == {0, 1, 2, 3}


#: Authenticated, decodable, and not a routed ``(module_id, body)`` pair.
UNROUTABLE = (5, "x", ("rbc", StepValue(1), "extra"))


class UnroutableSender(ByzantineBehavior):
    """Opens by sending every correct node each unroutable payload."""

    def start(self) -> None:
        for dest in range(self.params.n):
            if dest != self.pid:
                for payload in UNROUTABLE:
                    self.send(dest, payload)


@pytest.mark.parametrize("batching", ["off", "flush"])  # alone / in a WireBatch
@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_an_unroutable_payload_is_dropped_and_counted_not_a_receiver_crash(
        monkeypatch, transport, batching):
    # At commit 2dbad32 the first such frame raised SimulationError out of
    # Process.deliver and Node.run recorded it as a crash of the receiver.
    monkeypatch.setattr(
        node_module, "build_plan_behavior",
        lambda pid, spec, network, params, plan, proposals:
            UnroutableSender(pid, network, params),
    )
    result = run(Scenario(
        instances=2, proposals=1, seed=11, fabric=transport,
        batching=batching, faults={3: "silent"},
    ))
    assert sorted(result.decisions) == [0, 1, 2]
    assert result.decided_values == {1}
    assert result.metrics.counter("frames_rejected") == 3 * len(UNROUTABLE)


def test_node_drops_an_unroutable_message_before_wal_observer_and_target():
    class Recorder:
        def __init__(self):
            self.got = []

        def deliver(self, sender, message):
            self.got.append((sender, message))

        append_deliver = deliver

    class Endpoint:
        pid = 0

    network = NodeNetwork(0, for_system(4, 1))
    network.observer = Observer(RingSink())
    target, wal = Recorder(), Recorder()
    node = Node(0, network, Endpoint(), target)
    node.wal = wal
    routed = ("rbc", StepValue(1))
    node._deliver(3, WireBatch(UNROUTABLE[:2] + (routed,) + UNROUTABLE[2:]))
    node._deliver(3, Stamped("3:1", 7))
    node._deliver(3, ())
    assert target.got == wal.got == [(3, routed)]
    assert [e.kind for e in network.observer.events()] == ["deliver"]
    assert (node.messages_delivered, node.unroutable) == (1, 5)


class TestWalDirLifetime:
    """``recovery: "wal"`` logs into a temp dir the cluster creates and
    removes; ``wal:DIR`` files belong to the caller and stay."""

    def test_cluster_made_wal_dir_is_removed_on_shutdown(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        result = run(get_scenario("recovery-local"), recovery="wal")
        assert result.metrics.counter("wal_records") > 0
        assert result.meta["recovery"]["dir"].startswith(str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_named_wal_dir_keeps_its_files(self, tmp_path):
        logs = tmp_path / "logs"
        run(get_scenario("recovery-local"), recovery=f"wal:{logs}")
        assert sorted(os.listdir(logs)) == sorted(wal_filename(p) for p in range(4))
