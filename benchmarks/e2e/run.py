"""The repository's end-to-end benchmark with a per-layer budget.

Three ways in, one harness:

* ``PYTHONPATH=src python benchmarks/e2e/run.py [--seed 1000] [--quick]``
  — the full report: R rounds over six workloads, then a traced pass;
  prints every metric by name with its unit and writes
  ``benchmarks/out/e2e-results.json`` and ``e2e-trace.jsonl``.
* ``run.py --compare A.json B.json`` — each metric's bound applied per
  workload row: ``ok`` / ``regressed`` / ``unresolved``.
* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` — one
  workload for S seconds, one JSON object as the last line of stdout
  (the contract ``BENCHMARK.json`` describes).

See ``README.md`` beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import harness
import layers
import stats
from harness import REPO, SRC
from spans import Tracer
from workloads import BY_NAME, METRICS, WORKLOADS, Workload

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"error: {SRC}/repro not found — run from a checkout of the "
             "repository; the benchmark measures that program from outside")
sys.path.insert(0, SRC)

RESULTS = os.path.join(harness.OUT_DIR, "e2e-results.json")
TRACE = os.path.join(harness.OUT_DIR, "e2e-trace.jsonl")
ROUNDS, QUICK_ROUNDS = 5, 2
NOISY_CALIB_SPREAD = 0.10


def unit_of(name: str) -> str:
    """The unit a per-layer metric's name implies."""
    if "_us" in name:
        return "us"
    if "ms_per_decision" in name or name.endswith("_ms"):
        return "ms"
    if "bytes" in name:
        return "B"
    if name.endswith("_share") or name.endswith("_spread"):
        return "share"
    if name.endswith("_x"):
        return "x"
    return "count"


# ---------------------------------------------------------------------------
# The traced pass
# ---------------------------------------------------------------------------


def traced_pass(workload: Workload, seed: int, tally: harness.Tally,
                cold: Dict[str, Any], tracer: Tracer,
                seconds: float) -> Tuple[Dict[str, float], Optional[float]]:
    """The workload's first seed once under a root span and once under
    ``tracemalloc``, then every active layer's driver as child spans.

    Returns (per-layer metrics, peak_alloc_mb).  ``seconds`` is split
    evenly over the layer drivers.
    """
    first = len(tracer.spans)
    names = layers.active_layers(workload)
    with tracer.span("workload", workload.name, seed):
        with tracer.span("e2e.run", workload.name, seed):
            traced = harness.execute(workload, seed)
        if traced.failure is not None:
            tally.add(traced)
        with tracer.span("e2e.tracemalloc", workload.name, seed):
            peak = harness.peak_alloc_mb(workload, seed)
        if peak is None:
            tally.add(harness.Run(seed, 0.0, failure="tracemalloc run failed"))
        ctx = layers.Context(workload, seed, tally, seconds / len(names), tracer)
        metrics = layers.measure(ctx, cold)
    untraced = statistics.median(r.wall_s for r in tally.runs[seed])
    metrics["trace.overhead_x"] = traced.wall_s / untraced
    metrics["trace.spans"] = float(len(tracer.spans) - first)
    return metrics, peak


# ---------------------------------------------------------------------------
# The full report
# ---------------------------------------------------------------------------


def full_report(seed: int, rounds: int, results_path: str = RESULTS,
                trace_path: str = TRACE,
                layer_seconds: float = 6.0) -> Dict[str, Any]:
    """R rounds round-robin over the workloads (so slow drift of the host
    lands on all alike), then the traced pass; returns the results."""
    workloads = WORKLOADS
    tracer = Tracer()
    probe = harness.HostProbe()
    tallies = {w.name: harness.Tally(w) for w in workloads}
    calib: List[float] = []  # per round: the median of its probe samples
    started = time.perf_counter()
    with harness.scratch_tmpdir():
        cold = {w.name: harness.cold_setup(w, seed, probe) for w in workloads}
        for w in workloads:  # one untimed warm-up run per workload
            tallies[w.name].add(harness.execute(w, seed), timed=False)
        for r in range(rounds):
            mark = len(probe.samples)
            for w in workloads:
                for s in range(seed, seed + w.seeds_per_round):
                    tallies[w.name].add(harness.execute(w, s, probe))
            calib.append(statistics.median(probe.samples[mark:]))
            print(f"round {r + 1}/{rounds} done "
                  f"({time.perf_counter() - started:.0f}s)", flush=True)
        out: Dict[str, Any] = {}
        for w in workloads:
            tally = tallies[w.name]
            layer_metrics: Dict[str, float] = {}
            peak = None
            if seed in tally.runs:
                layer_metrics, peak = traced_pass(
                    w, seed, tally, cold[w.name], tracer, layer_seconds)
            out[w.name] = {
                "metrics": tally.summary(cold[w.name], peak),
                "layers": layer_metrics,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "failures": tally.failures,
                "rounds": rounds,
                "seeds": w.seeds_per_round,
            }
    plain = out["sim-bracha-n7x8"]["metrics"].get("decisions_per_s")
    observed = out["sim-observed-n7x8"]
    if plain and "decisions_per_s" in observed["metrics"]:
        observed["layers"]["obs.overhead_x"] = (
            plain["value"] / observed["metrics"]["decisions_per_s"]["value"])
    spread = harness.calib_spread(calib)
    results = {
        "seed": seed,
        "rounds": rounds,
        "host": {"calib_ms": statistics.median(calib), "calib_spread": spread,
                 "noisy": spread > NOISY_CALIB_SPREAD, "cpus": os.cpu_count()},
        "elapsed_s": time.perf_counter() - started,
        "workloads": out,
    }
    print_report(results)
    os.makedirs(os.path.dirname(results_path), exist_ok=True)
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    tracer.write(trace_path)
    print(f"wrote {os.path.relpath(results_path, REPO)} and "
          f"{os.path.relpath(trace_path, REPO)} ({len(tracer.spans)} spans)")
    return results


def print_report(results: Dict[str, Any]) -> None:
    host = results["host"]
    print(f"\ne2e benchmark: seed {results['seed']}, {results['rounds']} rounds, "
          f"{results['elapsed_s']:.0f}s, {host['cpus']} cpus")
    print(f"  host.calib_ms {host['calib_ms']:.3f} ms   host.calib_spread "
          f"{host['calib_spread']:.3f} share"
          + ("   ** noisy: comparisons read unresolved **"
             if host["noisy"] else ""))
    for name, row in results["workloads"].items():
        print(f"\n== {name}: {row['seeds']} seeds x {row['rounds']} rounds, "
              f"{row['attempted']} runs attempted, {row['failed']} failed")
        for failure in row["failures"]:
            print(f"   FAILED {failure}")
        for metric in METRICS:
            cell = row["metrics"].get(metric.name)
            if cell is None:
                continue
            note = ""
            if metric.name == "decide_p90_ms" and cell["samples"] < 100:
                note = "  (under 100 samples: fewer than 10 beyond p90)"
            print(f"  {metric.name:<22}{cell['value']:>14.4f} {cell['unit']:<6}"
                  f" spread {cell['spread'] * 100:5.1f}%"
                  f"  bound {metric.bound_for(name) * 100:4.1f}%"
                  f"  n={cell['samples']}{note}")
        for layer_name, value in row["layers"].items():
            print(f"    {layer_name:<32}{value:>14.4f} {unit_of(layer_name)}")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Print one verdict per (metric, workload) row; 1 if any regressed."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    noisy = a["host"]["noisy"] or b["host"]["noisy"]
    if noisy:
        print("one set is flagged noisy: rows beyond their bound read unresolved")
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':<22}{'metric':<22}{'A':>12}{'B':>12}"
          f"{'worse':>9}{'bound':>8}  verdict")
    for name, row_a in a["workloads"].items():
        row_b = b["workloads"].get(name)
        if row_b is None:
            continue
        for metric in METRICS:
            cell_a = row_a["metrics"].get(metric.name)
            cell_b = row_b["metrics"].get(metric.name)
            if cell_a is None or cell_b is None:
                continue
            bound = metric.bound_for(name)
            result = stats.verdict(metric.better, bound, cell_a, cell_b,
                                   noisy=noisy, absolute=metric.absolute)
            counts[result] += 1
            worse = stats.worsening(metric.better, cell_a["value"],
                                    cell_b["value"], metric.absolute)
            print(f"{name:<22}{metric.name:<22}{cell_a['value']:>12.4f}"
                  f"{cell_b['value']:>12.4f}{worse * 100:>8.1f}%"
                  f"{bound * 100:>7.1f}%  {result}")
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 0


# ---------------------------------------------------------------------------
# One workload for the driver (BENCHMARK.json contract)
# ---------------------------------------------------------------------------


def contract() -> Dict[str, Any]:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def timed_runs(workload: Workload, seed: int, seconds: float,
               tally: harness.Tally, probe: harness.HostProbe) -> None:
    """Warm up once, then run seeds ``seed, seed+1, …`` back to back for
    ``seconds``.  Distinct seeds, not rounds over a few: across driver
    invocations the seed changes, so a workload whose work per decision
    depends on the seed is steadier measured over many of them.  The
    first timed run repeats the warm-up's seed, which is where the
    exact-count check bites."""
    tally.add(harness.execute(workload, seed), timed=False)
    deadline = time.perf_counter() + seconds
    offset = 0
    while offset == 0 or time.perf_counter() < deadline:
        tally.add(harness.execute(workload, seed + offset, probe))
        offset += 1


def driver_e2e(workload: Workload, seed: int, seconds: float,
               tally: harness.Tally, probe: harness.HostProbe,
               cold: Dict[str, Any]) -> Dict[str, float]:
    timed_runs(workload, seed, seconds, tally, probe)
    values = {name: cell["value"]
              for name, cell in tally.summary(cold, None).items()}
    if tally.runs:
        # Each seed ran once, so the report's per-seed medians would sum
        # to a mean.  The median run time over the whole measurement is
        # steadier: one of the host's slow spells, or a seed that needs
        # extra rounds, moves a mean and not a median.
        run_s = statistics.median(
            r.ref_wall_s for runs in tally.runs.values() for r in runs)
        values["decisions_per_s"] = workload.instances / run_s
        if not workload.wall_clocked:
            # The contract wants every metric on every workload, and a
            # sim run's only wall-clock propose→decide sample is the run
            # itself: its wall stands in here (the full report leaves
            # the row out).
            values["decide_p50_ms"] = run_s * 1e3
    return values


def driver_layers(workload: Workload, seed: int, seconds: float,
                  tally: harness.Tally, probe: harness.HostProbe,
                  cold: Dict[str, Any]) -> Dict[str, float]:
    timed_runs(workload, seed, seconds / 3, tally, probe)
    if seed not in tally.runs:
        return {}
    values, peak = traced_pass(workload, seed, tally, cold, Tracer(),
                               seconds * 2 / 3)
    values["host.calib_ms"] = statistics.median(probe.samples)
    if peak is not None:
        values["peak_alloc_mb"] = peak
    return values


def driver_run(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    """One workload for ``seconds``; the contract's JSON object last."""
    listed = contract()["per_layer" if trace else "end_to_end"]
    tally = harness.Tally(workload)
    probe = harness.HostProbe()
    with harness.scratch_tmpdir():
        cold = harness.cold_setup(workload, seed, probe)
        measure = driver_layers if trace else driver_e2e
        values = measure(workload, seed, seconds, tally, probe, cold)
    for failure in tally.failures:
        print(f"FAILED {failure}")
    if trace and values:
        # A layer idle on this workload has no share of its budget: 0.
        values = {m["name"]: values.get(m["name"], 0.0) for m in listed}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    print(json.dumps({
        "correct": tally.failed == 0 and len(metrics) == len(listed),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_ROUNDS} rounds instead of {ROUNDS}")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return driver_run(BY_NAME[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    full_report(args.seed, QUICK_ROUNDS if args.quick else ROUNDS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
