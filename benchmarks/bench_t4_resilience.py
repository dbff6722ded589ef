"""T4 — The resilience boundary: t < n/3 is tight.

Paper claim: ⌊(n−1)/3⌋ is optimal — no asynchronous protocol tolerates
n/3 Byzantine processes.  Regenerates two sides of the boundary at n=10:

* t ≤ 3 injected faults: all trials decide, zero violations;
* 4 colluding two-faced faults (> n/3): the correct processes number
  n−4 = 6 = step quorum−1 … with thresholds sized for t=3 the adversary
  owns every quorum margin, and agreement/validity/liveness failures
  appear (each trial is classified).
"""

from conftest import run_once

from repro.analysis.tables import format_table
from repro.scenario import Scenario, run

TRIALS = 8
N = 10


def classify(result):
    if any("decided" in v and "never" in v for v in result.violations):
        return "stall"
    if result.violations:
        return "safety"
    if len(result.decided_values) > 1:
        return "disagreement"
    return "ok"


def test_t4_resilience_boundary(benchmark, table_sink, bench_sink):
    def experiment():
        rows = []
        for injected in (0, 1, 2, 3, 4):
            outcomes = {"ok": 0, "stall": 0, "safety": 0, "disagreement": 0}
            for seed in range(TRIALS):
                faults = {
                    N - 1 - i: "two_faced" if i % 2 == 0 else "silent"
                    for i in range(injected)
                }
                result = run(Scenario(
                    n=N, proposals=[pid % 2 for pid in range(N)],
                    faults=faults, seed=seed * 7 + injected,
                    allow_excess_faults=True,
                    max_steps=1_500_000,
                ), check=False)
                outcomes[classify(result)] += 1
            rows.append([
                injected, f"{'<' if injected <= 3 else '>='} n/3",
                TRIALS, outcomes["ok"], outcomes["stall"],
                outcomes["safety"] + outcomes["disagreement"],
            ])
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "t4_resilience_boundary",
        format_table(
            ["faults injected", "regime", "trials", "ok", "stalls", "safety/validity"],
            rows,
            title="T4. Resilience boundary at n=10 (t=3 optimal): "
                  "clean below n/3, failures at 4 faults",
        ),
    )
    below = [row for row in rows if row[0] <= 3]
    at_boundary = [row for row in rows if row[0] == 4]
    assert all(row[3] == TRIALS for row in below), "within the bound: all ok"
    assert all(row[3] < TRIALS for row in at_boundary), (
        "beyond the bound the adversary must win at least sometimes"
    )
    bench_sink(
        "t4_resilience_boundary",
        {
            "ok_within_bound": sum(row[3] for row in below),
            "failures_beyond_bound": sum(
                TRIALS - row[3] for row in at_boundary
            ),
        },
        meta={"n": N, "trials": TRIALS},
    )
