"""Self-test of the end-to-end benchmark.

Run by path — tier-1 ``testpaths`` stays ``tests``::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py -q

The arithmetic tests are instant; ``test_names_*`` run a one-round
report and two one-second driver invocations (about a minute together).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run as bench  # noqa: E402
import stats  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import BY_NAME, METRIC_BY_NAME, WORKLOADS, Workload  # noqa: E402


@pytest.fixture(scope="module")
def contract():
    return bench.contract()


# -- arithmetic ---------------------------------------------------------------


def test_percentile_on_synthetic_samples():
    samples = list(range(1, 102))  # 1..101: rank q lands exactly on q+1
    assert stats.percentile(samples, 50) == 51
    assert stats.percentile(samples, 90) == 91
    assert stats.percentile([10.0, 20.0], 50) == 15.0  # linear in between
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_per_seed_median_and_throughput():
    # Seed 1 has one slow outlier round; the median ignores it.
    walls = {1: [1.0, 1.0, 9.0], 2: [2.0, 3.0, 2.0]}
    assert stats.per_seed_median(walls) == {1: 1.0, 2: 2.0}
    # 8 instances per run, two seeds: 16 decisions over 1.0 + 2.0 seconds.
    assert stats.decisions_per_s(8, walls) == pytest.approx(16 / 3.0)


def test_spread_is_interquartile_share_of_median():
    assert stats.spread([5.0]) == 0.0
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert stats.spread(values) == pytest.approx((13.5 - 10.5) / 12.0)


def test_span_self_time_subtracts_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 5.0, "end": 9.0},
        {"id": 3, "parent": 2, "start": 6.0, "end": 7.0},
    ]
    assert stats.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_records_parent_workload_and_seed():
    tracer = Tracer()
    with tracer.span("workload", "w", 7):
        with tracer.span("layer.core", "w", 7):
            pass
    root, child = tracer.spans
    assert root["parent"] is None and child["parent"] == root["id"]
    assert (child["workload"], child["seed"]) == ("w", 7)
    own_root, _own_child = stats.self_times(tracer.spans)
    assert own_root == pytest.approx(
        (root["end"] - root["start"]) - (child["end"] - child["start"]))


def test_verdict_ok_regressed_unresolved():
    base = {"value": 100.0, "spread": 0.02}
    assert stats.verdict("higher", 0.10, base, {"value": 95.0, "spread": 0.02}) == "ok"
    assert stats.verdict("higher", 0.10, base, {"value": 80.0, "spread": 0.02}) == "regressed"
    # Spread wider than the bound, or a noisy set: cannot tell.
    assert stats.verdict("higher", 0.10, base, {"value": 80.0, "spread": 0.3}) == "unresolved"
    assert stats.verdict("higher", 0.10, base, {"value": 80.0, "spread": 0.0},
                         noisy=True) == "unresolved"
    # Exact rows: any worsening regresses, an improvement is ok.
    exact = {"value": 3738.0, "spread": 0.0}
    assert stats.verdict("lower", 0.0, exact, {"value": 3739.0, "spread": 0.0},
                         noisy=True) == "regressed"
    assert stats.verdict("lower", 0.0, exact, {"value": 3700.0, "spread": 0.0}) == "ok"
    # failed_share's bound is absolute, and its baseline is 0.
    zero = {"value": 0.0, "spread": 0.0}
    assert stats.verdict("lower", 0.0, zero, {"value": 0.1, "spread": 0.0},
                         absolute=True) == "regressed"


# -- the correctness gate -------------------------------------------------------


def test_failed_run_raises_failed_share():
    # Two of four nodes silent: the correct pair can never reach a
    # quorum, so the run times out — a genuine liveness failure.
    stuck = Workload(
        "stuck", "cannot decide",
        {"fabric": "local", "n": 4, "instances": 1, "batching": "flush",
         "faults": {2: "silent", 3: "silent"}, "allow_excess_faults": True,
         "timeout": 0.3},
        seeds_per_round=1, wall_clocked=True, exact=False,
    )
    tally = harness.Tally(stuck)
    run = harness.execute(stuck, 1)
    assert run.failure is not None and "LivenessFailure" in run.failure
    tally.add(run)
    cells = tally.summary({"totals": [0.2]}, None)
    assert cells["failed_share"]["value"] == 1.0
    assert "decisions_per_s" not in cells  # a failed run has no timing


def test_exact_count_mismatch_counts_as_failed():
    workload = BY_NAME["sim-bracha-n7x8"]
    tally = harness.Tally(workload)
    tally.add(harness.Run(1, 1.0, counts={"steps": 10, "messages_sent": 20}))
    tally.add(harness.Run(1, 1.0, counts={"steps": 10, "messages_sent": 20}))
    assert tally.failed == 0
    tally.add(harness.Run(1, 1.0, counts={"steps": 11, "messages_sent": 20}))
    assert tally.failed == 1 and tally.attempted == 3
    assert len(tally.runs[1]) == 2


# -- names and units --------------------------------------------------------------


def test_contract_names_match_the_vocabulary(contract):
    assert contract["paths"] == ["benchmarks/e2e"]
    # The driver's list is a subset (four, so that each can run 27 s), in
    # the vocabulary's order and with its reasons.
    listed = [(w["name"], w["why"]) for w in contract["workloads"]]
    assert listed == [(w.name, w.why) for w in WORKLOADS
                      if w.name in dict(listed)]
    assert 2 <= len(listed) <= len(WORKLOADS)
    for metric in contract["end_to_end"]:
        known = METRIC_BY_NAME[metric["name"]]
        assert metric["better"] == known.better
        assert 0 < metric["bound"] <= 0.25
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in contract["end_to_end"])


def test_names_appear_in_the_full_report(contract, tmp_path, capsys):
    results = bench.full_report(
        1000, rounds=1, results_path=str(tmp_path / "r.json"),
        trace_path=str(tmp_path / "t.jsonl"), layer_seconds=0.5)
    printed = capsys.readouterr().out
    rows = results["workloads"]
    assert list(rows) == [w.name for w in WORKLOADS]
    assert {w["name"] for w in contract["workloads"]} <= set(rows)
    for name, row in rows.items():
        assert name in printed
        assert row["failed"] == 0, row["failures"]
        assert row["metrics"]["failed_share"]["value"] == 0.0
    for metric in contract["end_to_end"]:
        cells = [row["metrics"][metric["name"]] for row in rows.values()
                 if metric["name"] in row["metrics"]]
        assert cells, metric["name"]
        assert all(cell["unit"] == metric["unit"] for cell in cells)
        assert f"{metric['name']:<22}" in printed
    layer_names = {n for row in rows.values() for n in row["layers"]}
    for metric in contract["per_layer"]:
        if metric["name"] in METRIC_BY_NAME or metric["name"].startswith("host."):
            continue  # printed with the end-to-end rows / the host line
        assert metric["name"] in layer_names, metric["name"]
        assert bench.unit_of(metric["name"]) == metric["unit"], metric["name"]
    assert "host.calib_ms" in printed
    # Layers that do no work on a workload have no metrics there.
    for name, row in rows.items():
        if name != "local-lossy-wal-n4x4":
            assert not any(n.startswith(("netem.", "wal.")) for n in row["layers"])
    spans = [json.loads(line) for line in open(tmp_path / "t.jsonl")]
    assert {s["workload"] for s in spans} == set(rows)
    assert all({"name", "start", "end", "parent", "seed", "self"} <= set(s)
               for s in spans)


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_output_is_the_contract(contract, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", contract["workloads"][-1]["name"], "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=harness.REPO,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = contract["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert isinstance(cell["value"], float)
