"""T2 — Consensus correctness at optimal resilience t = ⌊(n−1)/3⌋.

Paper claim (the main theorem): the protocol solves Byzantine consensus
for t < n/3 — agreement, strong validity, integrity always; termination
with probability 1.  Regenerates: a correctness matrix over n with
maximum faults injected, unanimous and split inputs.
"""

from conftest import run_once

from repro.analysis.stats import summarize
from repro.analysis.tables import format_table
from repro.params import max_faults
from repro.scenario import Scenario, run

TRIALS = 8


def test_t2_consensus_matrix(benchmark, table_sink, bench_sink):
    configs = [
        (4, "unanimous", {}),
        (4, "split", {}),
        (4, "split", {3: "two_faced"}),
        (7, "unanimous", {}),
        (7, "split", {}),
        (7, "split", {5: "silent", 6: "two_faced"}),
        (10, "split", {}),
        (10, "split", {7: "silent", 8: "two_faced", 9: "fuzzer"}),
        (13, "split", {}),
    ]

    def experiment():
        rows = []
        for n, inputs, faults in configs:
            proposals = 1 if inputs == "unanimous" else [pid % 2 for pid in range(n)]
            rounds = []
            messages = []
            for seed in range(TRIALS):
                result = run(Scenario(
                    n=n, proposals=proposals, faults=faults,
                    seed=seed * 101 + n, max_steps=4_000_000,
                ))
                rounds.append(result.decision_round())
                messages.append(result.messages_sent)
            fault_label = "+".join(sorted(set(
                spec if isinstance(spec, str) else spec["kind"]
                for spec in faults.values()
            ))) or "none"
            rows.append([
                n, max_faults(n), inputs, fault_label, TRIALS,
                summarize(rounds).mean, max(rounds),
                summarize(messages).mean,
            ])
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "t2_consensus_matrix",
        format_table(
            ["n", "t", "inputs", "faults", "trials", "mean rounds",
             "max rounds", "mean msgs"],
            rows,
            title="T2. Consensus at optimal resilience: 0 violations by "
                  "construction (checked runner); decision rounds and cost",
        ),
    )
    unanimous = [row for row in rows if row[2] == "unanimous" and row[3] == "none"]
    assert all(row[5] == 1.0 for row in unanimous), "unanimity decides in round 1"
    assert all(row[6] <= 30 for row in rows), "no runaway round counts"
    bench_sink(
        "t2_consensus_matrix",
        {
            "configs": len(rows),
            "max_rounds_observed": max(row[6] for row in rows),
            "unanimous_mean_rounds": unanimous[0][5],
        },
        meta={"trials": TRIALS},
    )
