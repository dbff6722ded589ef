"""A runtime run stops at its result: the teardown order.

``Cluster.shutdown`` stops every node's pump before it closes any WAL,
link or clock (``Node.close``), so the result ``Cluster.run`` built is
the run's last word — the trace counts what the result counts, and no
node runs on against a closed WAL.
"""

import asyncio
import os

import pytest

from repro.obs import build_observer
from repro.recovery.wal import read_wal, wal_filename
from repro.runtime import Cluster
from repro.scenario import Scenario

_LOSSY = {"loss": 0.1, "delay": 0.003, "jitter": 0.002,
          "duplicate": 0.05, "reorder": 0.1}


def _observed_run(fabric):
    """An observed run: its result, every node's ``messages_delivered``
    before and after shutdown, and the trace's event kinds."""
    scenario = Scenario(fabric=fabric, n=7, instances=4, batching="flush",
                        seed=5, observe="ring")
    observer = build_observer(scenario.observe)

    async def execute():
        cluster = Cluster(scenario, observer)
        try:
            result = await cluster.run()
            before = {pid: node.messages_delivered
                      for pid, node in cluster.nodes.items()}
        finally:
            await cluster.shutdown()
        after = {pid: node.messages_delivered
                 for pid, node in cluster.nodes.items()}
        return result, before, after

    result, before, after = asyncio.run(execute())
    observer.close()
    kinds = [event.kind for event in observer.events()]
    return result, before, after, kinds


@pytest.mark.parametrize("fabric", ["tcp", "local"])
def test_a_runtime_trace_counts_what_its_result_counts(fabric):
    result, before, after, kinds = _observed_run(fabric)
    assert kinds.count("send") == result.messages_sent
    assert kinds.count("deliver") == result.messages_delivered
    assert before == after


def test_a_wal_is_never_closed_under_a_running_node(tmp_path):
    for seed in (1000, 1001, 1002):
        logs = tmp_path / str(seed)
        scenario = Scenario(
            fabric="local", n=4, instances=4, batching="flush",
            recovery=f"wal:{logs}", faults={3: "silent"}, link=_LOSSY,
            seed=seed,
        )

        async def execute():
            cluster = Cluster(scenario)
            try:
                result = await cluster.run()
            finally:
                await cluster.shutdown()
            return cluster, result

        cluster, result = asyncio.run(execute())
        crashed = {pid: node.crashed for pid, node in cluster.nodes.items()
                   if node.crashed is not None}
        assert crashed == {}, f"seed {seed}"
        logged = 0
        for pid in (0, 1, 2):  # node 3 is silent and keeps no log
            _header, records = read_wal(os.path.join(logs, wal_filename(pid)))
            logged += 1 + len(records)  # the header is a record too
        assert logged == result.metrics.counter("wal_records"), f"seed {seed}"
