"""M2 — Crash recovery: WAL logging overhead and restart-to-decision cost.

The recovery subsystem's claim: a node's write-ahead log plus the
deterministic sans-I/O engines make a SIGKILLed process reconstructible
— respawn it with ``--recover``, replay the log, and it rejoins the run
and decides.  Regenerates: the wall-clock cost of a full mp run that
loses one process mid-flight and recovers it from its WAL (kill at
0.1s, respawn 0.5s later), against the same run without the fault, plus
the per-run cost of WAL logging itself on the deterministic local
fabric.

Run with ``--smoke`` for the CI-sized subset; the mp restart run pays
the kill-window (0.5s down) plus a respawn on top of process spawning,
so trials stay small in both modes.
"""

import tempfile
import time

from conftest import run_once

from repro.analysis.tables import format_table
from repro.scenario import Scenario, run


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return (time.perf_counter() - start) * 1000.0, result


def test_m2_recovery(benchmark, table_sink, bench_sink, smoke):
    trials = 1 if smoke else 3

    def experiment():
        rows = []
        timings = {}
        recovery_stats = {"restarts": 0, "replayed": 0, "recovery_s": 0.0}
        base = Scenario(protocol="bracha", n=4, proposals=1, timeout=60.0)
        restart_link = {"retransmit": True, "rto": 0.1, "delay": 0.05,
                        "max_retries": 200}
        with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as wal:
            configs = [
                ("local_plain", "local, no WAL",
                 base.replace(fabric="local")),
                ("local_wal", "local + WAL per node",
                 base.replace(fabric="local", recovery=f"wal:{wal}")),
                ("mp", "mp (4 processes)",
                 base.replace(fabric="mp", recovery="wal",
                              link=restart_link)),
                ("mp_restart", "mp, one SIGKILLed + WAL-recovered",
                 base.replace(
                     fabric="mp", recovery="wal", link=restart_link,
                     faults={3: {"kind": "restart",
                                 "after": 0.1, "down": 0.5}},
                 )),
            ]
            # Both local configurations once, untimed, before either is
            # timed: the first carries the process's one-time warm-up,
            # which would otherwise read as a negative WAL overhead.
            for _key, _label, scenario in configs[:2]:
                run(scenario, seed=899)
            for key, label, scenario in configs:
                total_ms = 0.0
                decisions = 0
                for trial in range(trials):
                    ms, result = _timed(
                        lambda: run(scenario, seed=900 + trial)
                    )
                    assert result.decided_values == {1}
                    total_ms += ms
                    decisions = len(result.decisions)
                    if key == "mp_restart":
                        counters = result.metrics.counters
                        recovery_stats["restarts"] = counters.get(
                            "restarts", 0)
                        recovery_stats["replayed"] = counters.get(
                            "recovery_replayed", 0)
                        recovery_stats["recovery_s"] = round(
                            result.metrics.gauges.get("recovery_time", 0.0),
                            3)
                timings[key] = round(total_ms / trials, 2)
                rows.append([label, timings[key], decisions])
        return rows, timings, recovery_stats

    rows, timings, recovery = run_once(benchmark, experiment)
    table_sink(
        "m2_recovery",
        format_table(
            ["configuration", "ms/run", "decisions"],
            rows,
            title="M2. One Bracha decision with crash recovery: WAL "
                  f"logging cost and SIGKILL+replay cost (n=4, "
                  f"{'smoke' if smoke else 'full'} mode)",
        ),
    )
    # The restarted node recovers and decides: all four nodes report,
    # exactly one restart happened, and the WAL replayed something.
    assert rows[3][2] == 4
    assert recovery["restarts"] == 1
    assert recovery["replayed"] > 0
    assert recovery["recovery_s"] > 0.0
    # The kill window (0.5s down + backoff + respawn) dominates the
    # restart run's overhead; it must stay in the same regime as a
    # clean mp run, not degenerate toward the scenario timeout.
    assert timings["mp_restart"] < timings["mp"] * 6.0 + 5000.0
    bench_sink(
        "m2_recovery",
        {
            "local_plain_ms": timings["local_plain"],
            "local_wal_ms": timings["local_wal"],
            "mp_ms": timings["mp"],
            "mp_restart_ms": timings["mp_restart"],
            "wal_overhead_ms": round(
                timings["local_wal"] - timings["local_plain"], 2),
            "restarts": recovery["restarts"],
            "replayed_records": recovery["replayed"],
            "recovery_s": recovery["recovery_s"],
        },
        meta={"trials": trials, "n": 4,
              "kill_after_s": 0.1, "down_s": 0.5},
    )
