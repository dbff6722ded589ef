"""F1 — Expected rounds: local coin vs common coin.

Paper claims:
* unanimous inputs decide in one round, coin irrelevant;
* with split inputs and local coins, convergence needs all coin-flipping
  processes to land together — expected rounds grow with n;
* with a common coin (Rabin), each round ends unanimous with
  probability ≥ 1/2, so expected rounds are O(1) *independent of n*.

Regenerates: the rounds-to-decide distribution (the paper's figure as a
text histogram) and a mean-rounds table over n.
"""

from conftest import run_once

from repro.analysis.stats import histogram, summarize
from repro.analysis.tables import format_table
from repro.scenario import Scenario, repeat

TRIALS = 30


def spark(hist, width=30):
    total = sum(hist.values())
    return " ".join(
        f"{r}:{'#' * max(1, round(width * c / total))}" for r, c in sorted(hist.items())
    )


def test_f1_round_distribution(benchmark, table_sink, bench_sink):
    sizes = [4, 7, 10]

    def experiment():
        rows = []
        histograms = {}
        for coin in ("local", "dealer"):
            for n in sizes:
                results = repeat(Scenario(
                    n=n, proposals=[pid % 2 for pid in range(n)],
                    coin=coin, seed=1234 + n, max_steps=5_000_000,
                ), TRIALS)
                rounds = [r.decision_round() for r in results]
                summary = summarize(rounds)
                rows.append([
                    coin, n, TRIALS, summary.mean, summary.p90, summary.maximum,
                ])
                histograms[(coin, n)] = histogram(rounds)
        return rows, histograms

    rows, histograms = run_once(benchmark, experiment)
    lines = [
        format_table(
            ["coin", "n", "trials", "mean rounds", "p90", "max"],
            rows,
            title="F1a. Rounds to decide, split inputs",
        ),
        "",
        "F1b. Distribution (round:count bars)",
    ]
    for (coin, n), hist in histograms.items():
        lines.append(f"  {coin:>6} n={n:<3} {spark(hist)}")
    table_sink("f1_round_distribution", "\n".join(lines))

    local = {row[1]: row[3] for row in rows if row[0] == "local"}
    common = {row[1]: row[3] for row in rows if row[0] == "dealer"}
    # Common coin stays flat: the largest n is no worse than ~2x the smallest.
    assert common[10] <= common[4] * 2 + 1
    # Local coin at n=10 must not beat common coin at n=10 materially.
    assert local[10] >= common[10] - 0.5
    bench_sink(
        "f1_round_distribution",
        {
            "common_mean_rounds_n10": round(common[10], 2),
            "local_mean_rounds_n10": round(local[10], 2),
        },
        meta={"sizes": sizes, "trials": TRIALS},
    )


def test_f1_unanimous_one_round(benchmark, table_sink):
    def experiment():
        rows = []
        for coin in ("local", "dealer"):
            for n in (4, 7, 10):
                results = repeat(Scenario(
                    n=n, proposals=1, coin=coin, seed=99 + n,
                ), 10)
                rows.append([coin, n, max(r.decision_round() for r in results)])
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "f1_unanimous",
        format_table(
            ["coin", "n", "max decision round (10 trials)"],
            rows,
            title="F1c. Unanimous inputs decide in round 1, coin-independent",
        ),
    )
    assert all(row[2] == 1 for row in rows)
