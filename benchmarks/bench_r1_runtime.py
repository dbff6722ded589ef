"""R1 — Runtime fabrics: simulator vs asyncio-local vs TCP throughput.

The runtime subsystem's claim: the same protocol stacks run unmodified
over real concurrent transports, and the in-process asyncio fabric is
fast enough to use as a development loop.  Regenerates: wall time and
message cost per decision for each fabric across system sizes, plus the
batching effect of running many consensus instances over one shared
broadcast layer (the shape ACS and later batching work rely on).  Beside
them it counts the ``repro`` modules a fresh ``import repro.scenario``
loads: the simulator's cold start, as a number that repeats exactly —
and the line count of ``src/repro/**/*.py`` (``src_lines``), so that
the package's growth is a gated number too.

Both experiments are expressed as declarative scenarios: one
:class:`repro.scenario.Scenario` per configuration, with the fabric as
just another field — the benchmark measures exactly what ``repro run``
would execute.  Times are reference milliseconds, as in
``bench_o1_tracing.py``: each trial's wall time divided by (the host
calibration taken just before it ÷ the e2e harness's reference
calibration), so a host running slow for a while does not read as a
slow fabric.

Run with ``--smoke`` for the CI-sized subset.
"""

import os
import pathlib
import statistics
import subprocess
import sys
import time

from conftest import run_once

import repro
from repro.analysis.tables import format_table
from repro.scenario import Scenario, run

# The e2e harness's host probe, so every gate shares one reference speed.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "e2e"))
from harness import REF_CALIB_MS, calibrate  # noqa: E402

_COLD_IMPORT = (
    "import sys, repro.scenario; "
    "print(sum(name.split('.')[0] == 'repro' for name in sys.modules))"
)


def _timed(fn):
    """``fn()``'s wall time in reference ms, and its result."""
    host_x = calibrate() / REF_CALIB_MS
    start = time.perf_counter()
    result = fn()
    return (time.perf_counter() - start) * 1000.0 / host_x, result


def _cold_import_modules():
    """The ``repro`` modules ``import repro.scenario`` loads in a fresh
    interpreter (this one has imported far more)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return int(done.stdout)


def _src_lines():
    """Lines in ``src/repro/**/*.py`` (what ``wc -l`` counts)."""
    root = pathlib.Path(repro.__file__).parent
    return sum(path.read_bytes().count(b"\n") for path in root.rglob("*.py"))


def test_r1_fabric_comparison(benchmark, table_sink, bench_sink, smoke):
    sizes = [4] if smoke else [4, 7, 10]
    # The n = 4 rows feed floors.json, and one trial of a ~5 ms run is
    # host noise: each row is the median of its trials.
    trials = 5 if smoke else 3
    fabric_labels = {"sim": "simulator", "local": "asyncio", "tcp": "tcp"}

    def experiment():
        # One untimed run per fabric first: a process's first run of a
        # fabric pays its lazy imports (asyncio, the runtime), which is
        # no part of what a decision costs.
        warm_up = Scenario(protocol="bracha", n=sizes[0], proposals=1, seed=1)
        for fabric in fabric_labels:
            run(warm_up, fabric=fabric)
        rows = []
        for n in sizes:
            scenario = Scenario(protocol="bracha", n=n, proposals=1)
            for fabric, label in fabric_labels.items():
                samples = []
                messages = 0
                for trial in range(trials):
                    seed = 100 * n + trial
                    ms, result = _timed(
                        lambda: run(scenario, fabric=fabric, seed=seed)
                    )
                    assert result.decided_values == {1}
                    samples.append(ms)
                    messages += result.messages_sent
                rows.append(
                    [n, label, round(statistics.median(samples), 2),
                     messages // trials]
                )
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "r1_fabric_comparison",
        format_table(
            ["n", "fabric", "median ref ms/decision", "messages"],
            rows,
            title="R1a. One unanimous Bracha decision per fabric "
                  f"({'smoke' if smoke else 'full'} mode)",
        ),
    )
    # Every fabric must complete; relative speed is reported, not asserted
    # (CI machines vary), except that the simulator result must exist for
    # every size the runtime ran.
    fabrics_per_n = {n: {row[1] for row in rows if row[0] == n} for n in sizes}
    assert all(
        fabrics == {"simulator", "asyncio", "tcp"}
        for fabrics in fabrics_per_n.values()
    )
    by_fabric = {row[1]: row for row in rows if row[0] == 4}
    bench_sink(
        "r1_fabric_comparison",
        {
            "sim_ms": by_fabric["simulator"][2],
            "local_ms": by_fabric["asyncio"][2],
            "tcp_ms": by_fabric["tcp"][2],
            "messages_n4": by_fabric["simulator"][3],
            "sim_cold_import_modules": _cold_import_modules(),
            "src_lines": _src_lines(),
        },
        meta={"sizes": sizes, "trials": trials,
              "times": f"reference ms (calibration / {REF_CALIB_MS} ms)"},
    )


def test_r1_instance_batching(benchmark, table_sink, bench_sink, smoke):
    batches = [1, 4] if smoke else [1, 2, 4, 8, 16]
    n = 4

    def experiment():
        rows = []
        for instances in batches:
            scenario = Scenario(
                protocol="bracha", n=n, proposals=1, seed=7,
                fabric="local", instances=instances, timeout=120.0,
            )
            ms, result = _timed(lambda: run(scenario))
            rows.append([
                instances,
                round(ms, 2),
                round(ms / instances, 2),
                result.messages_sent,
                round(result.messages_sent / instances),
            ])
            assert result.decided_values == {1}
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "r1_instance_batching",
        format_table(
            ["instances", "ref ms total", "ref ms/instance", "messages",
             "msgs/instance"],
            rows,
            title="R1b. Parallel Bracha instances over one shared RBC layer "
                  "(asyncio-local, n=4)",
        ),
    )
    # Batching must amortize: per-instance wall time should not grow
    # linearly with the batch — allow generous slack for CI noise.
    per_instance = {row[0]: row[2] for row in rows}
    largest = max(batches)
    assert per_instance[largest] < per_instance[1] * 2.0
    msgs_per_instance = {row[0]: row[4] for row in rows}
    bench_sink(
        "r1_instance_batching",
        {
            "x1_ms": per_instance[1],
            "x4_ms": per_instance[4],
            "x4_msgs_per_instance": msgs_per_instance[4],
        },
        meta={"batches": batches, "n": n,
              "times": f"reference ms (calibration / {REF_CALIB_MS} ms)"},
    )
