#!/usr/bin/env python3
"""A replicated log over repeated asynchronous common subsets.

Four replicas (one of them crash-prone if requested) each submit a
stream of commands; epochs of the ACS construction — n reliable
broadcasts + n parallel Bracha agreements — commit identical batches on
every replica, in the same order.  This is HoneyBadgerBFT's core loop
running on the 1984 protocol it descends from.

    python examples/replicated_log.py [epochs] [--crash]
"""

import sys

from repro.app import ReplicatedLog
from repro.core.broadcast import BroadcastLayer
from repro.core.coin import LocalCoin
from repro.params import for_system
from repro.sim.process import Process
from repro.sim.runner import Simulation
from repro.adversary.behaviors import SilentBehavior


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    epochs = int(args[0]) if args else 2
    crash = "--crash" in sys.argv

    n = 4
    params = for_system(n)
    sim = Simulation(seed=2024)
    logs = []
    for pid in range(n):
        if crash and pid == n - 1:
            sim.network.register(SilentBehavior(pid, sim.network, params))
            print(f"p{pid}: crashed from the start")
            continue
        process = Process(pid, sim.network, params)
        rbc = process.add_module(BroadcastLayer())
        log = ReplicatedLog(
            process, rbc,
            coin_factory_for_epoch=lambda e, j: LocalCoin(salt=("log", e, j)),
            batch_size=3,
        )
        for i in range(3 * epochs):
            log.submit(f"set x{pid}.{i}")
        logs.append(log)

    sim.start()
    for log in logs:
        log.start(max_epochs=epochs)
    sim.run(
        until=lambda: all(l.epochs_committed >= epochs for l in logs),
        max_steps=10_000_000,
    )

    print(f"\ncommitted {epochs} epochs with {sim.network.sent} messages "
          f"in {sim.steps} delivery steps\n")

    reference = logs[0].committed_commands()
    for replica_index, log in enumerate(logs):
        agree = "identical" if log.committed_commands() == reference else "DIVERGED"
        print(f"replica {replica_index}: {len(log.log)} entries, {agree}")

    print("\nthe log, as every replica sees it:")
    for entry in logs[0].log:
        print(f"  epoch {entry.epoch}  p{entry.proposer}[{entry.index}]  "
              f"{entry.command}")

    assert all(l.committed_commands() == reference for l in logs)
    print("\nall replicas agree on the complete history.")


if __name__ == "__main__":
    main()
