"""What the networks tally, pinned: per kind, per node, on every fabric.

A network keeps, per pid, a ``kind -> count`` table of sends and a
delivery count, and a :class:`~repro.outcome.NodeReport` carries them as
they stand; ``messages_sent``, ``meta["messages_by_kind"]`` and the
``messages_sent`` counter are all sums over the same reports.

``KINDS`` is the system-wide ``meta["messages_by_kind"]`` of every row of
``test_fixed_seed_golden.py``, generated at commit 3962444 — when the
simulator still counted kinds in one system-wide ``Counter`` beside the
per-source totals — by running ``scenario_for(row)`` for each row and
printing the sorted table.  The summed per-node tables must equal it.
"""

import pytest

from repro.scenario import Scenario, get_scenario, run
from repro.scenario import runner as runner_module

from .test_fixed_seed_golden import GOLDEN, scenario_for

#: row -> {kind: messages sent system-wide}
KINDS = {
    "unanimous-fast-path": {"bracha/DecideMsg": 16, "rbc/RbcMessage": 496},
    "benor-split": {
        "benor/BenOrDecide": 16, "benor/PVote": 96, "benor/RVote": 112,
    },
    "crash-majority": {
        "benor-crash/BenOrDecide": 20, "benor-crash/PVote": 50,
        "benor-crash/RVote": 60,
    },
    "mmr14-dealer": {
        "bv/BvValue": 56, "mmr14/AuxMsg": 48, "mmr14/MmrDecide": 16,
    },
    "acs-batch": {
        "acs0-aba0/DecideMsg": 16, "acs0-aba1/DecideMsg": 16,
        "acs0-aba2/DecideMsg": 16, "acs0-aba3/DecideMsg": 16,
        "rbc/RbcMessage": 2084,
    },
    "two-faced-equivocator": {"bracha/DecideMsg": 49, "rbc/RbcMessage": 4431},
    "split-brain-scheduler": {"bracha/DecideMsg": 16, "rbc/RbcMessage": 904},
    "shares-coin": {
        "bracha/DecideMsg": 16, "coin/CoinShareMsg": 16, "rbc/RbcMessage": 456,
    },
    "fuzzer-storm": {
        "bracha/DecideMsg": 35, "bracha/str": 1, "no-such-module/float": 147,
        "no-such-module/str": 12, "rbc/RbcMessage": 1545,
    },
    "victim-delay-liveness": {"bracha/DecideMsg": 16, "rbc/RbcMessage": 504},
    "tcp-loopback": {"bracha/DecideMsg": 16, "rbc/RbcMessage": 468},
    "multi-instance-pipeline": {
        "bracha-0/DecideMsg": 16, "bracha-1/DecideMsg": 16,
        "bracha-2/DecideMsg": 16, "bracha-3/DecideMsg": 16,
        "rbc/RbcMessage": 2112,
    },
    "batched-pipeline": {
        "bracha-0/DecideMsg": 16, "bracha-1/DecideMsg": 16,
        "bracha-2/DecideMsg": 16, "bracha-3/DecideMsg": 16,
        "rbc/RbcMessage": 2112,
    },
    "batched-binary-tcp": {
        "bracha-0/DecideMsg": 16, "bracha-1/DecideMsg": 16,
        "bracha-2/DecideMsg": 16, "bracha-3/DecideMsg": 16,
        "rbc/RbcMessage": 2144,
    },
    "mp-smoke": {"bracha/DecideMsg": 16, "rbc/RbcMessage": 476},
    "scheduler-delay": {"bracha/DecideMsg": 16, "rbc/RbcMessage": 888},
    "scheduler-delay-n7x2": {
        "bracha-0/DecideMsg": 49, "bracha-1/DecideMsg": 49,
        "rbc/RbcMessage": 9688,
    },
    "scheduler-fifo": {"bracha/DecideMsg": 16, "rbc/RbcMessage": 448},
    "scheduler-round-robin": {"bracha/DecideMsg": 16, "rbc/RbcMessage": 448},
    "scheduler-partition": {"bracha/DecideMsg": 16, "rbc/RbcMessage": 880},
    "scheduler-partition-quiet-heal": {
        "bracha/DecideMsg": 16, "rbc/RbcMessage": 460,
    },
    "scheduler-split": {"bracha/DecideMsg": 16, "rbc/RbcMessage": 472},
    "scheduler-victim": {"bracha/DecideMsg": 16, "rbc/RbcMessage": 936},
    "sim-bracha-n7x8-seed1001": {
        "bracha-0/DecideMsg": 49, "bracha-1/DecideMsg": 49,
        "bracha-2/DecideMsg": 49, "bracha-3/DecideMsg": 49,
        "bracha-4/DecideMsg": 49, "bracha-5/DecideMsg": 49,
        "bracha-6/DecideMsg": 49, "bracha-7/DecideMsg": 49,
        "rbc/RbcMessage": 31738,
    },
}


def test_every_golden_row_has_a_kind_table():
    assert set(KINDS) == set(GOLDEN)


@pytest.mark.parametrize("row", sorted(KINDS))
def test_summed_per_node_tables_equal_the_system_wide_count(row):
    result = run(scenario_for(row))
    assert result.meta["messages_by_kind"] == KINDS[row]
    assert sum(KINDS[row].values()) == GOLDEN[row][1] == result.messages_sent


def sim_reports(scenario, monkeypatch):
    """Run on the simulator; return the result and its reports by pid."""
    captured = {}
    build = runner_module.build_result

    def recording_build(reports, **kwargs):
        captured.update((report.pid, report) for report in reports)
        return build(reports, **kwargs)

    monkeypatch.setattr(runner_module, "build_result", recording_build)
    return run(scenario), captured


def test_each_sim_report_carries_its_own_kind_table(monkeypatch):
    result, reports = sim_reports(
        scenario_for("sim-bracha-n7x8-seed1001"), monkeypatch)
    assert sorted(reports) == list(range(7))
    for report in reports.values():
        assert report.sent == sum(report.sent_by_kind.values()) > 0
        assert report.delivered == report.activations > 0
        # Every node ran all eight instances over one shared rbc module.
        assert set(report.sent_by_kind) == set(
            KINDS["sim-bracha-n7x8-seed1001"])
    assert sum(r.sent for r in reports.values()) == result.messages_sent
    assert sum(r.delivered for r in reports.values()) == result.steps


def test_a_silent_node_has_an_empty_table(monkeypatch):
    _, reports = sim_reports(scenario_for("crash-majority"), monkeypatch)
    silent = reports[3]
    assert not silent.correct
    assert silent.sent == 0 and silent.sent_by_kind == {}
    assert reports[4].sent > 0  # the mid-run crasher did speak first


def test_byzantine_traffic_is_counted_under_its_own_pid(monkeypatch):
    result, reports = sim_reports(
        scenario_for("two-faced-equivocator"), monkeypatch)
    two_faced = reports[6]
    assert not two_faced.correct
    assert two_faced.sent == sum(two_faced.sent_by_kind.values()) > 0
    assert "rbc/RbcMessage" in two_faced.sent_by_kind
    assert sum(r.sent for r in reports.values()) == result.messages_sent == 4480


def assert_counters_agree(result):
    by_kind = sum(result.meta["messages_by_kind"].values())
    assert by_kind == result.messages_sent > 0
    assert result.metrics.counter("messages_sent") == result.messages_sent


@pytest.mark.parametrize("fabric", ["sim", "local", "tcp", "mp"])
def test_kinds_sent_and_the_counter_agree_on_every_fabric(fabric):
    assert_counters_agree(run(get_scenario("unanimous-fast-path"), fabric=fabric))


def test_counters_agree_when_a_restart_node_never_recovers():
    """Node 0 goes down for good after six deliveries and files no
    report.  The system-wide kind table used to include its 12 sends
    (608) while ``messages_sent`` summed the reports that arrived (596).
    """
    result = run(
        Scenario(protocol="bracha", n=4, seed=3,
                 faults={0: {"kind": "restart", "after": 6, "down": 100000}}),
        check=False,
    )
    assert any("never recovered: [0]" in v for v in result.violations)
    assert_counters_agree(result)
    assert result.messages_sent == 596
