"""Running one workload and turning its runs into end-to-end metrics.

Everything here measures from outside: a run is one call of the public
``repro.scenario.run`` with ``check=True``, gated by
:func:`correctness_failure`, and a workload's metrics are computed from
its runs by the estimators in :mod:`stats`.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import stats
from workloads import EXACT_COUNTERS, EXACT_PREFIX, METRIC_BY_NAME, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT_DIR = os.path.join(REPO, "benchmarks", "out")

MIB = float(1 << 20)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """What the benchmark keeps of one ``scenario.run`` call."""

    seed: int
    wall_s: float
    failure: Optional[str] = None
    #: Propose→decide wall latency per correct node (wall-clocked
    #: workloads only; the sim fabric has one virtual clock).
    latencies_ms: List[float] = field(default_factory=list)
    #: Run wall minus the last node's decision latency: bring-up,
    #: tear-down and result verification.  0 on sim by definition.
    setup_s: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    #: Host slowness around this run (calibration ÷ reference, see
    #: :class:`HostProbe`); every reported time is divided by it.
    host_x: float = 1.0

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s / self.host_x

    @property
    def ref_setup_s(self) -> float:
        return self.setup_s / self.host_x

    @property
    def ref_latencies_ms(self) -> List[float]:
        return [ms / self.host_x for ms in self.latencies_ms]


def correctness_failure(workload: Workload, result: Any) -> Optional[str]:
    """Why a returned result is still wrong, or ``None`` when it is right."""
    if result.violations:
        return f"violations: {result.violations}"
    correct = workload.n - len(workload.spec.get("faults", ()))
    if len(result.decisions) != correct:
        return (f"{len(result.decisions)} of {correct} correct nodes decided")
    if len(result.decided_values) != 1:
        return f"correct nodes disagree: {sorted(result.decided_values)}"
    decided = result.metrics.counter("module_decisions")
    if decided != correct * workload.instances:
        return (f"{decided} instance decisions, expected "
                f"{correct * workload.instances}")
    rows = list(result.meta.get("instance_decisions", {}).values())
    if any(row != rows[0] or None in row for row in rows):
        return f"per-instance values differ across correct nodes: {rows}"
    return None


def _counts(result: Any) -> Dict[str, int]:
    counters = dict(result.metrics.counters)
    counters["steps"] = result.steps
    counters["messages_sent"] = result.messages_sent
    counters["messages_delivered"] = result.messages_delivered
    obs = result.meta.get("obs")
    if obs:
        counters["obs_events"] = int(obs["events"])
    spans = sum(
        int(summary["count"])
        for name, summary in result.metrics.histograms.items()
        if name.startswith("span_")
    )
    if spans:
        counters["spans"] = spans
    return counters


def execute(workload: Workload, seed: int,
            probe: Optional["HostProbe"] = None) -> Run:
    """One gated run, bracketed by host-speed probes when ``probe`` is
    given.  Any exception is a failed run, not a crash of the benchmark:
    this is the boundary that must keep counting."""
    before = probe() if probe is not None else REF_CALIB_MS
    out = _execute(workload, seed)
    after = probe() if probe is not None else REF_CALIB_MS
    out.host_x = (before + after) / 2 / REF_CALIB_MS
    return out


def _execute(workload: Workload, seed: int) -> Run:
    from repro.scenario import run

    scenario = workload.scenario(seed)
    start = time.perf_counter()
    try:
        result = run(scenario, check=True)
    except Exception as exc:  # noqa: BLE001 - counted in failed_share
        return Run(seed, time.perf_counter() - start,
                   failure=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    out = Run(seed, wall, failure=correctness_failure(workload, result),
              counts=_counts(result))
    if workload.wall_clocked:
        latencies = list(result.meta.get("decision_latency", {}).values())
        if latencies:
            out.latencies_ms = [s * 1e3 for s in latencies]
            out.setup_s = wall - max(latencies)
    return out


def exact_signature(run: Run) -> Dict[str, int]:
    return {
        name: value for name, value in run.counts.items()
        if name in EXACT_COUNTERS or name.startswith(EXACT_PREFIX)
    }


# ---------------------------------------------------------------------------
# A workload's runs
# ---------------------------------------------------------------------------


class Tally:
    """All runs of one workload, by seed, in round order."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.runs: Dict[int, List[Run]] = {}
        self.warm: Dict[int, Run] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, run: Run, timed: bool = True) -> None:
        """Record a run.  A failed one counts and is kept out of the
        timings; an untimed (warm-up) one counts and anchors the
        exact-count check, and its time is dropped."""
        self.attempted += 1
        if run.failure is None and self.workload.exact:
            earlier = self.warm.get(run.seed) or next(
                iter(self.runs.get(run.seed, ())), None)
            if earlier and exact_signature(earlier) != exact_signature(run):
                run.failure = (
                    f"counters differ between runs of one seed: "
                    f"{exact_signature(earlier)} != {exact_signature(run)}"
                )
        if run.failure is not None:
            self.failures.append(f"seed {run.seed}: {run.failure}")
        elif timed:
            self.runs.setdefault(run.seed, []).append(run)
        else:
            self.warm[run.seed] = run

    @property
    def failed(self) -> int:
        return len(self.failures)

    def first(self) -> Run:
        return next(iter(self.runs.values()))[0]

    def per_decision(self, counter: str) -> float:
        """Mean over seeds of the per-seed median count, per instance."""
        per_seed = [
            statistics.median(r.counts.get(counter, 0) for r in runs)
            for runs in self.runs.values()
        ]
        return sum(per_seed) / len(per_seed) / self.workload.instances

    def _rounds(self) -> List[List[Run]]:
        """Complete rounds only: round r holds run r of every seed."""
        depth = min(len(runs) for runs in self.runs.values())
        return [[runs[r] for runs in self.runs.values()] for r in range(depth)]

    def summary(self, cold: Dict[str, Any],
                peak_mb: Optional[float]) -> Dict[str, Dict[str, Any]]:
        """The end-to-end metrics that apply, as ``{value, unit, spread,
        samples}`` cells; a metric that does not apply is absent."""
        cells: Dict[str, Dict[str, Any]] = {}

        def cell(name: str, value: float,
                 per_round: List[float], samples: int) -> None:
            cells[name] = {"value": value,
                           "unit": METRIC_BY_NAME[name].unit,
                           "spread": stats.spread(per_round),
                           "samples": samples}

        workload = self.workload
        failed_share = self.failed / self.attempted if self.attempted else 1.0
        cell("failed_share", failed_share, [], self.attempted)
        if not self.runs:
            return cells
        rounds = self._rounds()
        instances = workload.instances
        walls = {s: [r.ref_wall_s for r in runs]
                 for s, runs in self.runs.items()}
        cell("decisions_per_s", stats.decisions_per_s(instances, walls),
             [instances * len(rnd) / sum(r.ref_wall_s for r in rnd)
              for rnd in rounds],
             sum(len(w) for w in walls.values()))

        pooled = [ms for runs in self.runs.values() for r in runs
                  for ms in r.ref_latencies_ms]
        if pooled:
            by_round = [[ms for r in rnd for ms in r.ref_latencies_ms]
                        for rnd in rounds]
            for name, q in (("decide_p50_ms", 50), ("decide_p90_ms", 90)):
                cell(name, stats.percentile(pooled, q),
                     [stats.percentile(b, q) for b in by_round], len(pooled))

        for name, counter in (("msgs_per_decision", "messages_sent"),
                              ("frames_per_decision", "frames_sent")):
            if counter in self.first().counts:  # the sim fabric has no frames
                cell(name, self.per_decision(counter),
                     [sum(r.counts[counter] for r in rnd) / len(rnd) / instances
                      for rnd in rounds], len(self.runs))

        run_setups = [r.ref_setup_s for runs in self.runs.values()
                      for r in runs]
        totals = cold["totals"]
        cell("setup_s",
             statistics.median(totals) + statistics.median(run_setups),
             # Round r pairs with cold repeat r: both vary run to run.
             [totals[r % len(totals)]
              + statistics.median(run.ref_setup_s for run in rnd)
              for r, rnd in enumerate(rounds)], len(run_setups))
        if peak_mb is not None:
            cell("peak_alloc_mb", peak_mb, [], 1)
        return cells


# ---------------------------------------------------------------------------
# Set-up, memory, host
# ---------------------------------------------------------------------------

_COLD_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import repro.scenario
t1 = time.perf_counter()
repro.scenario.Scenario(**json.loads(sys.argv[1]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
"""


def _spec_json(workload: Workload, seed: int) -> str:
    """The workload's ``Scenario`` fields as JSON for a child interpreter."""
    spec = workload.fields(seed)
    if "faults" in spec:  # JSON keys are strings; Scenario takes them back
        spec["faults"] = {str(pid): kind for pid, kind in spec["faults"].items()}
    return json.dumps(spec)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + os.pathsep + existing if existing else SRC
    return env


def cold_setup(workload: Workload, seed: int, probe: "HostProbe",
               repeats: int = 5) -> Dict[str, Any]:
    """Cold ``import repro.scenario`` and ``Scenario`` construction in
    ``repeats`` fresh interpreters, in reference seconds — the part of
    set-up every user of the library pays once per process.  Returns the
    medians and each repeat's total (for the spread of ``setup_s``)."""
    samples = []
    for _ in range(repeats):
        before = probe()
        done = subprocess.run(
            [sys.executable, "-c", _COLD_PROBE, _spec_json(workload, seed)],
            env=child_env(), capture_output=True, text=True, timeout=60,
            check=True,
        )
        host_x = (before + probe()) / 2 / REF_CALIB_MS
        samples.append({key: value / host_x
                        for key, value in json.loads(done.stdout).items()})
    return {
        "import_s": statistics.median(s["import_s"] for s in samples),
        "build_s": statistics.median(s["build_s"] for s in samples),
        "totals": [s["import_s"] + s["build_s"] for s in samples],
    }


_PEAK_PROBE = """
import json, resource, sys, tracemalloc
from repro.scenario import Scenario, run
scenario = Scenario(**json.loads(sys.argv[1]))
tracemalloc.start()
run(scenario, check=True)
print(json.dumps({
    "peak": tracemalloc.get_traced_memory()[1],
    "child_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
}))
"""


def peak_alloc_mb(workload: Workload, seed: int) -> Optional[float]:
    """``tracemalloc`` peak over one run, plus n times the largest child's
    resident set (non-zero only on mp, whose node processes hold the
    protocol state); ``None`` when the run failed.

    The run gets a fresh interpreter: children are spawned by vfork, so a
    child's ``ru_maxrss`` starts at its *parent's* size, and this
    process has held every earlier workload's results."""
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, _spec_json(workload, seed)],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        return None
    seen = json.loads(done.stdout)
    return seen["peak"] / MIB + workload.n * seen["child_kib"] / 1024.0


#: The calibration loop's time on the quiet 2.1 GHz Xeon the seed
#: numbers were taken on.  Reported times are wall seconds divided by
#: (calibration around the run ÷ this): "reference seconds".
REF_CALIB_MS = 30.0


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop: the host's speed now.

    Three passes, the fastest counted three times: a short interruption
    must not read as a slow host, a slow spell slows all three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best * 3e3


class HostProbe:
    """Calibrates on call, at most once per ``min_gap_s`` (short runs
    share a reading rather than pay 30 ms each), and keeps every sample.

    This shared box runs 30-80% slower for tens of seconds at a time
    (neighbours on the same core; ``steal`` stays 0), which no estimator
    inside one 10 s measurement can average away.  Dividing each run's
    time by the calibration taken around it cuts the spread between
    same-code measurements from 10-18% to 5-7%.
    """

    def __init__(self, min_gap_s: float = 0.25):
        self.min_gap_s = min_gap_s
        self.samples: List[float] = []
        self._taken_at = float("-inf")

    def __call__(self) -> float:
        if time.perf_counter() - self._taken_at >= self.min_gap_s:
            self.samples.append(calibrate())
            self._taken_at = time.perf_counter()
        return self.samples[-1]


def calib_spread(samples: List[float]) -> float:
    """(max − min) ÷ median: above 0.10 the set is flagged ``noisy``."""
    if len(samples) < 2:
        return 0.0
    return (max(samples) - min(samples)) / statistics.median(samples)


@contextmanager
def scratch_tmpdir() -> Iterator[str]:
    """Point ``TMPDIR`` at a benchmark-owned directory for the duration,
    report how many entries the runs left behind, and remove it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="e2e-tmp-", dir=OUT_DIR)
    saved_env, saved_dir = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = path
    try:
        yield path
    finally:
        left = os.listdir(path)
        print(f"temp hygiene: {len(left)} entries left in TMPDIR by the runs"
              + (f" (e.g. {left[0]})" if left else ""))
        tempfile.tempdir = saved_dir
        if saved_env is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = saved_env
        shutil.rmtree(path, ignore_errors=True)
