"""F4 — Application throughput: the asynchronous common subset.

The "basis of modern async BFT" claim made measurable: n parallel Bracha
agreements + n reliable broadcasts implement ACS (HoneyBadger's core),
committing at least n−t proposals per epoch.  Regenerates: per-epoch
commit counts, message cost, and replicated-log throughput.
"""

from conftest import run_once

from repro.analysis.stats import summarize
from repro.analysis.tables import format_table
from repro.app import AcsInstance, ReplicatedLog
from repro.core.broadcast import BroadcastLayer
from repro.core.coin import LocalCoin
from repro.params import for_system
from repro.sim.process import Process
from repro.sim.runner import Simulation
from repro.adversary.behaviors import SilentBehavior

TRIALS = 4


def run_acs_epoch(n, seed, silent=()):
    sim = Simulation(seed=seed)
    params = for_system(n)
    instances = {}
    for pid in range(n):
        if pid in silent:
            sim.network.register(SilentBehavior(pid, sim.network, params))
            continue
        process = Process(pid, sim.network, params)
        rbc = process.add_module(BroadcastLayer())
        instances[pid] = AcsInstance(
            process, rbc, coin_factory=lambda j: LocalCoin(salt=("f4", j))
        )
    sim.start()
    for pid, acs in instances.items():
        acs.propose(("tx", pid))
    sim.run(until=lambda: all(a.done for a in instances.values()),
            max_steps=6_000_000)
    outputs = {a.output.proposals for a in instances.values()}
    assert len(outputs) == 1, "ACS agreement violated"
    committed = len(outputs.pop())
    return committed, sim.network.sent, sim.steps


def test_f4_acs_commit_counts(benchmark, table_sink, bench_sink):
    configs = [(4, 0), (4, 1), (7, 0), (7, 2)]

    def experiment():
        rows = []
        for n, n_silent in configs:
            committed, messages = [], []
            for seed in range(TRIALS):
                silent = tuple(range(n - n_silent, n))
                c, m, _s = run_acs_epoch(n, seed * 23 + n, silent)
                committed.append(c)
                messages.append(m)
            rows.append([
                n, n_silent, TRIALS,
                summarize(committed).minimum, summarize(committed).mean,
                summarize(messages).mean,
            ])
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "f4_acs_commits",
        format_table(
            ["n", "silent", "trials", "min committed", "mean committed", "mean msgs"],
            rows,
            title="F4a. ACS: proposals committed per epoch (≥ n−t guaranteed)",
        ),
    )
    for row in rows:
        n, n_silent = row[0], row[1]
        t = (n - 1) // 3
        assert row[3] >= n - t, f"ACS must commit at least n−t at n={n}"
    bench_sink(
        "f4_acs",
        {
            "min_committed_n7_silent2": next(
                row[3] for row in rows if row[0] == 7 and row[1] == 2
            ),
            "mean_msgs_n4": round(
                next(row[5] for row in rows if (row[0], row[1]) == (4, 0)), 1
            ),
        },
        meta={"trials": TRIALS},
    )


def test_f4_replicated_log_throughput(benchmark, table_sink):
    def experiment():
        rows = []
        for n, batch in ((4, 2), (4, 6)):
            sim = Simulation(seed=n * 100 + batch)
            params = for_system(n)
            logs = []
            for pid in range(n):
                process = Process(pid, sim.network, params)
                rbc = process.add_module(BroadcastLayer())
                log = ReplicatedLog(
                    process, rbc,
                    coin_factory_for_epoch=lambda e, j: LocalCoin(salt=("f4l", e, j)),
                    batch_size=batch,
                )
                for i in range(batch * 2):
                    log.submit((pid, i))
                logs.append(log)
            sim.start()
            for log in logs:
                log.start(max_epochs=2)
            sim.run(until=lambda: all(l.epochs_committed >= 2 for l in logs),
                    max_steps=8_000_000)
            commands = [l.committed_commands() for l in logs]
            assert all(c == commands[0] for c in commands), "log divergence"
            rows.append([
                n, batch, 2, len(commands[0]), sim.network.sent,
                len(commands[0]) / max(1, sim.network.sent) * 1000,
            ])
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "f4_replicated_log",
        format_table(
            ["n", "batch", "epochs", "commands committed", "messages",
             "commands per 1k msgs"],
            rows,
            title="F4b. Replicated log: batching amortizes the agreement cost",
        ),
    )
    assert rows[1][3] > rows[0][3], "larger batches commit more commands"
    assert rows[1][5] > rows[0][5], "throughput per message improves with batching"
