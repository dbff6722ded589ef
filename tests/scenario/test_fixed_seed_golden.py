"""Golden fixed-seed table: the simulator's choice order, pinned.

Every row is one seeded ``sim`` run whose ``steps``, ``messages_sent``
and per-pid decision ``(value, round)`` are recorded here.  A change to
the simulator's data structures (``PendingSet``, a scheduler's event
list) must leave every row untouched: the schedulers draw the same
random numbers and map them to the same envelopes, or a row moves.

Rows: every catalog entry that validates on the ``sim`` fabric at its
catalogued seed, one row per scheduler (so each ``choose`` order is
pinned, including the pre- and post-heal halves of ``partition``), and
one run of the benchmark's ``sim-bracha-n7x8`` shape.

The table was generated at commit 24e18ad (before the rank-select
``PendingSet``) with ``PYTHONPATH=src python
tests/scenario/test_fixed_seed_golden.py``, which prints it.
"""

import pytest

from repro.scenario import Scenario, get_scenario, run

CATALOG_ON_SIM = (
    "unanimous-fast-path", "benor-split", "crash-majority", "mmr14-dealer",
    "acs-batch", "two-faced-equivocator", "split-brain-scheduler",
    "shares-coin", "fuzzer-storm", "victim-delay-liveness", "tcp-loopback",
    "multi-instance-pipeline", "batched-pipeline", "batched-binary-tcp",
    "mp-smoke",
)

_SPLIT4 = dict(protocol="bracha", n=4, proposals=(0, 1, 0, 1), seed=5)

SCHEDULER_ROWS = {
    "scheduler-delay": dict(_SPLIT4, scheduler="delay"),
    "scheduler-delay-n7x2": dict(
        protocol="bracha", n=7, instances=2, seed=9, scheduler="delay",
        scheduler_args={"mean_delay": 2.0},
    ),
    "scheduler-fifo": dict(_SPLIT4, scheduler="fifo"),
    "scheduler-round-robin": dict(_SPLIT4, scheduler="round-robin"),
    "scheduler-partition": dict(
        _SPLIT4, scheduler="partition",
        scheduler_args={"group_a": (0, 1), "heal_after": 10},
    ),
    "scheduler-partition-quiet-heal": dict(_SPLIT4, scheduler="partition"),
    "scheduler-split": dict(_SPLIT4, scheduler="split"),
    "scheduler-victim": dict(
        _SPLIT4, scheduler="victim",
        scheduler_args={"victims": (1,), "holdback": 50},
    ),
    "sim-bracha-n7x8-seed1001": dict(
        protocol="bracha", fabric="sim", n=7, instances=8, batching="flush",
        seed=1001,
    ),
}


def scenario_for(row: str) -> Scenario:
    if row in SCHEDULER_ROWS:
        return Scenario(name=row, **SCHEDULER_ROWS[row])
    return get_scenario(row).replace(fabric="sim", observe="off")


def fingerprint(row: str) -> tuple:
    result = run(scenario_for(row))
    decisions = {
        pid: (d.value, d.round) for pid, d in sorted(result.decisions.items())
    }
    return result.steps, result.messages_sent, decisions


#: row -> (steps, messages_sent, {pid: (decided value, decision round)})
GOLDEN = {
    "unanimous-fast-path": (455, 512, {
        0: (1, 1), 1: (1, 1), 2: (1, 1), 3: (1, 1),
    }),
    "benor-split": (203, 224, {
        0: (1, 6), 1: (1, 6), 2: (1, 6), 3: (1, 6),
    }),
    "crash-majority": (98, 130, {
        0: (1, 2), 1: (1, 2), 2: (1, 2),
    }),
    "mmr14-dealer": (88, 120, {
        0: (1, 1), 1: (1, 2), 2: (1, 1), 3: (1, 2),
    }),
    "acs-batch": (1959, 2148, {
        0: ((0, 1, 2, 3), 0), 1: ((0, 1, 2, 3), 0), 2: ((0, 1, 2, 3), 0),
        3: ((0, 1, 2, 3), 0),
    }),
    "two-faced-equivocator": (4199, 4480, {
        0: (1, 2), 1: (1, 2), 2: (1, 2), 3: (1, 2), 4: (1, 2), 5: (1, 2),
    }),
    "split-brain-scheduler": (882, 920, {
        0: (1, 2), 1: (1, 2), 2: (1, 2),
    }),
    "shares-coin": (427, 488, {
        0: (0, 1), 1: (0, 1), 2: (0, 1), 3: (0, 1),
    }),
    "fuzzer-storm": (1643, 1740, {
        0: (0, 1), 1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 1),
    }),
    "victim-delay-liveness": (438, 520, {
        0: (0, 1), 1: (0, 1), 2: (0, 1), 3: (0, 1),
    }),
    "tcp-loopback": (433, 484, {
        0: (1, 1), 1: (1, 1), 2: (1, 1), 3: (1, 1),
    }),
    "multi-instance-pipeline": (1978, 2176, {
        0: (1, 1), 1: (1, 1), 2: (1, 1), 3: (1, 1),
    }),
    "batched-pipeline": (1978, 2176, {
        0: (1, 1), 1: (1, 1), 2: (1, 1), 3: (1, 1),
    }),
    "batched-binary-tcp": (2024, 2208, {
        0: (1, 1), 1: (1, 1), 2: (1, 1), 3: (1, 1),
    }),
    "mp-smoke": (432, 492, {
        0: (1, 1), 1: (1, 1), 2: (1, 1), 3: (1, 1),
    }),
    "scheduler-delay": (845, 904, {
        0: (1, 2), 1: (1, 2), 2: (1, 2), 3: (1, 2),
    }),
    "scheduler-delay-n7x2": (9552, 9786, {
        0: (0, 1), 1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 1), 5: (0, 1),
        6: (0, 1),
    }),
    "scheduler-fifo": (417, 464, {
        0: (1, 1), 1: (1, 1), 2: (1, 1), 3: (1, 1),
    }),
    "scheduler-round-robin": (412, 464, {
        0: (0, 1), 1: (0, 1), 2: (0, 1), 3: (0, 1),
    }),
    "scheduler-partition": (842, 896, {
        0: (1, 2), 1: (1, 2), 2: (1, 2), 3: (1, 2),
    }),
    "scheduler-partition-quiet-heal": (433, 476, {
        0: (1, 1), 1: (1, 1), 2: (1, 1), 3: (1, 1),
    }),
    "scheduler-split": (450, 488, {
        0: (0, 1), 1: (0, 1), 2: (0, 1), 3: (0, 1),
    }),
    "scheduler-victim": (898, 952, {
        0: (1, 2), 1: (1, 2), 2: (1, 2), 3: (1, 2),
    }),
    "sim-bracha-n7x8-seed1001": (31918, 32130, {
        0: (1, 2), 1: (1, 2), 2: (1, 2), 3: (1, 2), 4: (1, 2), 5: (1, 2),
        6: (1, 2),
    }),
}


def test_table_covers_every_row():
    assert set(GOLDEN) == set(CATALOG_ON_SIM) | set(SCHEDULER_ROWS)


@pytest.mark.parametrize("row", sorted(GOLDEN))
def test_fixed_seed_run_is_unchanged(row):
    assert fingerprint(row) == GOLDEN[row]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in (*CATALOG_ON_SIM, *SCHEDULER_ROWS):
        print(f"    {name!r}: {fingerprint(name)!r},")
    print("}")
