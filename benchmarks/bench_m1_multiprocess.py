"""M1 — Multi-process fabric: boot, decide, and crash-survival cost.

The mp fabric's claim: the same protocol stacks decide with one real OS
process per node — dealer bootstrap, one fork server, authenticated
TCP between processes — at a wall-clock cost dominated by that one
interpreter boot, not by the protocol.  Regenerates: end-to-end wall time per
mp decision (the whole lifecycle: deal, spawn, barrier, decide,
collect) against the in-process tcp fabric on the same scenario, plus
the cost of a run that loses one process to SIGKILL mid-flight.

Run with ``--smoke`` for the CI-sized subset; mp runs pay ~0.25 s of
zygote boot each, so trials stay small in both modes.
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
        configs = [
            ("tcp", "in-process tcp", base.replace(fabric="tcp")),
            ("mp", "mp (4 processes)", base.replace(fabric="mp")),
            ("mp_kill", "mp, one SIGKILLed", base.replace(
                fabric="mp", faults={3: {"kind": "kill", "after": 0.0}},
            )),
        ]
        for key, label, scenario in configs:
            total_ms = 0.0
            decisions = 0
            messages = 0
            for trial in range(trials):
                ms, result = _timed(
                    lambda: run(scenario, seed=700 + trial)
                )
                assert result.decided_values == {1}
                total_ms += ms
                decisions = len(result.decisions)
                messages += result.messages_sent
            timings[key] = round(total_ms / trials, 2)
            rows.append([
                label, timings[key], decisions, messages // trials,
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
    assert rows[2][2] == 3
    assert timings["mp_kill"] < timings["mp"] * 5.0
    bench_sink(
        "m1_multiprocess",
        {
            "tcp_ms": timings["tcp"],
            "mp_ms": timings["mp"],
            "mp_kill_ms": timings["mp_kill"],
            "mp_spawn_overhead_ms": round(timings["mp"] - timings["tcp"], 2),
        },
        meta={"trials": trials, "n": 4},
    )
