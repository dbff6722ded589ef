"""M1 — Multi-process fabric: boot, decide, and crash-survival cost.

The mp fabric's claim: the same protocol stacks decide with one real OS
process per node — dealer bootstrap, one fork server, authenticated
TCP between processes — at a wall-clock cost dominated by that one
interpreter boot, not by the protocol.  Regenerates: end-to-end wall time per
mp decision (the whole lifecycle: deal, spawn, barrier, decide,
collect) against the in-process tcp fabric on the same scenario, plus
the cost of a run that loses one process to SIGKILL mid-flight.

The fork server lives for the interpreter, so only the first mp run in
a process pays its ~0.2 s boot: ``mp_ms`` is that cold run (this file's
first mp run is its process's first), ``mp_warm_ms`` the mean of the
runs that reuse the server.  Run with ``--smoke`` for the CI-sized
subset.
"""

import time

from conftest import run_once

from repro.analysis.tables import format_table
from repro.scenario import Scenario, run


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return (time.perf_counter() - start) * 1000.0, result


def test_m1_multiprocess(benchmark, table_sink, bench_sink, smoke):
    trials = 1 if smoke else 3

    def experiment():
        rows = []
        timings = {}
        base = Scenario(protocol="bracha", n=4, proposals=1, timeout=60.0)
        mp = base.replace(fabric="mp")
        configs = [
            ("tcp", "in-process tcp", base.replace(fabric="tcp"), trials),
            ("mp", "mp (4 processes), cold", mp, 1),
            ("mp_warm", "mp, fork server reused", mp, trials),
            ("mp_kill", "mp, one SIGKILLed", mp.replace(
                faults={3: {"kind": "kill", "after": 0.0}},
            ), trials),
        ]
        for key, label, scenario, runs in configs:
            total_ms = 0.0
            decisions = 0
            messages = 0
            for trial in range(runs):
                ms, result = _timed(
                    lambda: run(scenario, seed=700 + trial)
                )
                assert result.decided_values == {1}
                total_ms += ms
                decisions = len(result.decisions)
                messages += result.messages_sent
            timings[key] = round(total_ms / runs, 2)
            rows.append([
                label, timings[key], decisions, messages // runs,
            ])
        return rows, timings

    rows, timings = run_once(benchmark, experiment)
    table_sink(
        "m1_multiprocess",
        format_table(
            ["configuration", "ms/run", "decisions", "messages"],
            rows,
            title="M1. One Bracha decision, in-process tcp vs one OS "
                  f"process per node (n=4, "
                  f"{'smoke' if smoke else 'full'} mode)",
        ),
    )
    # The kill run loses a node, not the run: three survivors decide and
    # the lifecycle cost stays in the same regime as the full-strength
    # run (the SIGKILL must not stall the orchestrator until timeout).
    assert rows[3][2] == 3
    assert timings["mp_kill"] < timings["mp"] * 5.0
    bench_sink(
        "m1_multiprocess",
        {
            "tcp_ms": timings["tcp"],
            "mp_ms": timings["mp"],
            "mp_warm_ms": timings["mp_warm"],
            "mp_kill_ms": timings["mp_kill"],
            "mp_spawn_overhead_ms": round(timings["mp"] - timings["tcp"], 2),
        },
        meta={"trials": trials, "n": 4},
    )
