"""T3 — Message complexity: O(n³) per consensus round.

Paper claim: each round runs n reliable broadcasts per step (3 steps),
each costing O(n²) — so messages *per round* scale as n³.  Regenerates:
per-round message cost vs n with the fitted exponent.

(The later MMR-14 line in F3 shows the descendants cutting this to n²;
Bracha's n³ is the price of full per-sender broadcast validation.)
"""

from conftest import run_once

from repro.analysis.stats import fit_power_law, summarize
from repro.analysis.tables import format_table
from repro.scenario import Scenario, run

TRIALS = 5


def test_t3_messages_per_round(benchmark, table_sink, bench_sink):
    sizes = [4, 7, 10, 13]

    def experiment():
        rows = []
        for n in sizes:
            per_round = []
            for seed in range(TRIALS):
                result = run(Scenario(
                    n=n, proposals=[pid % 2 for pid in range(n)],
                    seed=seed * 13 + n, max_steps=4_000_000,
                ))
                # Count only consensus-layer RBC traffic; decide/coin
                # messages are O(n²) and excluded from the model.
                rbc_messages = result.meta["messages_by_kind"].get("rbc/RbcMessage", 0)
                per_round.append(rbc_messages / max(1, result.rounds))
            rows.append([n, summarize(per_round).mean, 3 * n * (n + 2 * n * n)])
        return rows

    rows = run_once(benchmark, experiment)
    ns = [row[0] for row in rows]
    measured = [row[1] for row in rows]
    exponent, _c = fit_power_law(ns, measured)
    table_sink(
        "t3_messages_per_round",
        format_table(
            ["n", "RBC msgs/round (measured)", "3n(n+2n^2) (model ceiling)"],
            rows,
            title=f"T3. Per-round message cost (fitted exponent {exponent:.3f}, theory 3)",
        ),
    )
    assert 2.6 < exponent < 3.3
    # measured stays below the ceiling (not every instance completes all waves)
    assert all(row[1] <= row[2] for row in rows)
    bench_sink(
        "t3_messages_per_round",
        {"fitted_exponent": round(exponent, 3),
         "msgs_per_round_n13": round(rows[-1][1], 1)},
        meta={"sizes": sizes, "trials": TRIALS},
    )
