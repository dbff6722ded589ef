"""Command-line interface: run protocol experiments without writing code.

A run is spelled once, as a :class:`~repro.scenario.Scenario`: ``run``
is the only subcommand that executes a protocol, and every scenario
field is reachable from it through ``--set FIELD=VALUE``, which goes
through the same validation as a scenario file.  The CLI, the library,
and the test suite therefore run the exact same code paths.

Subcommands:

* ``run`` — execute scenario JSON files and/or named catalog entries on
  whatever fabric each declares; ``--set FIELD=VALUE`` (repeatable)
  overrides any scenario field, and with no file or name the overrides
  apply to the default scenario.  ``VALUE`` is parsed as JSON when it
  parses and taken as a bare string otherwise.
* ``catalog`` — list the named scenario catalog.
* ``dealer`` — materialise a scenario's trusted setup (MAC keys, coin
  shares) into per-node bundle files plus a run manifest.
* ``node`` — run one consensus node as one OS process from a dealt
  bundle (the ``mp`` fabric's per-process entry point).
* ``report`` — the one trace reader: from a JSONL trace produced by
  ``observe: jsonl`` it prints send→deliver correlation, event totals,
  decision latency, per-round timing, the phase breakdown,
  per-decision critical paths and the queue-vs-processing split.

Examples::

    python -m repro run examples/scenarios/split_brain.json
    python -m repro run --name two-faced-equivocator --set fabric=tcp
    python -m repro run --set n=7 --set seed=3 \\
        --set 'faults={"5": "two_faced", "6": "silent"}'
    python -m repro run --set protocol=mmr14 --set coin=dealer
    python -m repro run --set fabric=tcp --set n=4 --set t=1
    python -m repro run --set fabric=tcp \\
        --set 'link={"loss": 0.15, "delay": 0.002}'
    python -m repro run --name batched-pipeline --set profile=on
    python -m repro run --name partition-heal && \\
        python -m repro report benchmarks/out/partition-heal-trace.jsonl
    python -m repro catalog

One reliable-broadcast instance, repeated-run statistics and the
scripted Ben-Or attack are library functions with runnable front ends:
``benchmarks/bench_t1_broadcast.py``, ``examples/parameter_sweep.py``
and ``examples/liveness_attack.py``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Dict, List, Optional

from . import __version__
from .errors import ConfigError, ReproError
from .obs import load_events
from .obs.profile import SPAN_PREFIX, render_profile
from .scenario import CATALOG, Scenario, get_scenario, load_scenario
from .scenario import run as run_scenario

# Each verb imports what only it needs (the trace reader, the table
# renderer, the mp dealer and node, asyncio) where it runs, so a ``run``
# on the simulator loads the simulator and nothing else.

# ---------------------------------------------------------------------------
# Result printing
# ---------------------------------------------------------------------------


def _print_result(scenario: Scenario, result: Any) -> None:
    params = scenario.params
    print(f"scenario  : {scenario.name or '<inline>'} "
          f"(fabric: {scenario.fabric}, seed: {scenario.seed})")
    print(f"system    : {params.describe()}")
    print(f"protocol  : {scenario.protocol} (coin: {scenario.coin_name}, "
          f"instances: {scenario.instances})")
    print(f"faults    : {scenario.faults_dict() or 'none'}")
    if scenario.scheduler != "random":
        print(f"scheduler : {scenario.scheduler} {scenario.scheduler_args_dict()}")
    if scenario.link or scenario.partitions:
        conditions = scenario.link_dict()
        if scenario.partitions:
            conditions["partitions"] = len(scenario.partitions)
        print(f"netem     : {conditions}")
    if scenario.protocol == "acs":
        sample = next(iter(result.decisions.values()), None)
        subset = sorted(sample.value) if sample is not None else "-"
        print(f"output    : {len(result.decisions)} nodes agreed on subset {subset}")
    else:
        print(f"decision  : {sorted(result.decided_values)}")
        print(f"rounds    : {result.rounds} (decided in {result.decision_round()})")
    print(f"messages  : {result.messages_sent} sent, "
          f"{result.messages_delivered} delivered")
    snapshot = result.metrics
    if snapshot is not None and snapshot.counter("frames_sent"):
        print(f"frames    : {snapshot.counter('frames_sent')} wire frames, "
              f"{snapshot.gauges.get('messages_per_frame', 0.0):.2f} "
              f"messages/frame "
              f"(batching: {result.meta.get('batching', 'off')})")
    if snapshot is not None and snapshot.counter("frames_rejected"):
        print(f"rejected  : {snapshot.counter('frames_rejected')} "
              f"unauthenticated, undecodable or unroutable frames")
    recovery = result.meta.get("recovery")
    if recovery or result.meta.get("restarted"):
        snapshot = result.metrics
        restarts = snapshot.counter("restarts") if snapshot else 0
        mode = (f"{recovery['mode']} ({recovery['dir']})" if recovery
                else "in-memory replay")
        line = f"recovery  : {mode}"
        if restarts:
            rt = (snapshot.gauges.get("recovery_time") or 0.0)
            unit = "vt" if scenario.fabric == "sim" else "s"
            line += (f"; {restarts} restart(s), "
                     f"{snapshot.counter('recovery_replayed')} records "
                     f"replayed, recovered in {rt:.2f}{unit}")
        print(line)
    if result.meta.get("scratch_dir"):
        print(f"scratch   : kept at {result.meta['scratch_dir']}")
    netem = result.meta.get("netem")
    if netem:
        print(f"link      : {netem['dropped']} dropped, {netem['delayed']} delayed, "
              f"{netem['duplicated']} duplicated, "
              f"{netem['retransmitted']} retransmitted "
              f"({netem['abandoned']} abandoned)")
    if scenario.fabric == "sim":
        print(f"steps     : {result.steps}")
        for pid, round_ in sorted(result.meta.get("decision_rounds", {}).items()):
            print(f"  p{pid} decided in round {round_}")
    else:
        print(f"wall time : {result.virtual_time * 1000:.1f} ms")
        for pid, latency in sorted(result.meta.get("decision_latency", {}).items()):
            print(f"  p{pid} decided after {latency * 1000:.1f} ms")
    if result.metrics is not None:
        # Counters/gauges duplicate the lines above; the histograms
        # (decision-latency quantiles) are the snapshot-only view.
        # Simulator latencies are virtual-time units, not seconds —
        # except span_* profile timings, which are always wall-clock
        # seconds and get their own table below.
        scale, unit = (1.0, "vt") if scenario.fabric == "sim" else (1000.0, "ms")
        latencies = sorted(
            (name, h) for name, h in result.metrics.histograms.items()
            if not name.startswith(SPAN_PREFIX)
        )
        if latencies:
            print("latency   :")
            for name, h in latencies:
                print(f"  {name}: n={int(h.get('count', 0))} "
                      f"p50={h.get('p50', 0.0) * scale:.2f}{unit} "
                      f"p95={h.get('p95', 0.0) * scale:.2f}{unit} "
                      f"p99={h.get('p99', 0.0) * scale:.2f}{unit} "
                      f"max={h.get('max', 0.0) * scale:.2f}{unit}")
    if scenario.profile != "off":
        print(render_profile(result.metrics))
    obs = result.meta.get("obs")
    if obs:
        where = obs.get("path") or f"{obs.get('retained', 0)} retained in memory"
        print(f"observe   : {obs['events']} events ({obs['sink']}: {where})")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _check_summary(result: Any) -> str:
    """One-line metrics readout for ``run --check`` — the typed snapshot
    (decisions, frames, retransmits), not a raw meta dict repr."""
    snapshot = result.metrics
    if snapshot is None:
        return f"decisions={len(result.decisions)}"
    parts = [f"decisions={snapshot.counter('decisions')}"]
    frames = snapshot.counter("frames_sent")
    if frames:
        parts.append(f"frames={frames}")
    retransmits = snapshot.counter("netem_retransmitted")
    if retransmits:
        parts.append(f"retransmits={retransmits}")
    latency = snapshot.histogram("decision_latency")
    if latency.get("count"):
        parts.append(f"p99={latency.get('p99', 0.0) * 1000:.1f}ms")
    return " ".join(parts)


def _parse_set(entries: Optional[List[str]]) -> Dict[str, Any]:
    """``--set FIELD=VALUE`` entries as scenario-field overrides.

    ``VALUE`` is JSON when it parses (``seed=7``, ``proposals=[0,1,1,0]``,
    ``faults={"5":"two_faced"}``, ``t=null``) and the bare string
    otherwise (``fabric=tcp``, ``observe=jsonl:t.jsonl``).
    """
    overrides: Dict[str, Any] = {}
    for entry in entries or ():
        field, sep, text = entry.partition("=")
        if not sep or not field:
            raise ConfigError(f"bad --set {entry!r}; use FIELD=VALUE")
        try:
            overrides[field] = json.loads(text)
        except ValueError:
            overrides[field] = text
    return overrides


def _load_scenarios(args: argparse.Namespace, **forced: Any) -> List[Scenario]:
    """The scenarios a command line names — ``--name`` entries, then
    files, or the default scenario when only ``--set`` is given — with
    the ``--set`` overrides (then ``forced``) applied.

    :meth:`Scenario.replace` validates, so an unknown field or a bad
    value fails here, before anything runs, and what is printed echoes
    the effective values.
    """
    overrides = {**_parse_set(args.set), **forced}
    scenarios = [get_scenario(name) for name in args.name or ()]
    scenarios += [load_scenario(path) for path in args.scenario]
    if not scenarios:
        if not args.set:
            raise ReproError(
                "no scenario given: pass scenario file(s), --name and/or --set"
            )
        scenarios = [Scenario()]
    return [scenario.replace(**overrides) for scenario in scenarios]


def cmd_run(args: argparse.Namespace) -> int:
    failed = 0
    for scenario in _load_scenarios(args):
        label = scenario.name or "<inline>"
        try:
            result = run_scenario(scenario, keep_scratch=args.keep_scratch)
        except ReproError as exc:
            if not args.check:
                raise
            failed += 1
            print(f"FAIL  {label}: {exc}")
            continue
        if args.check:
            print(f"ok    {label} [{scenario.fabric}] seed={scenario.seed} "
                  f"{_check_summary(result)}")
        else:
            _print_result(scenario, result)
            print()
    return 1 if failed else 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.names:
        for name in CATALOG:
            print(name)
        return 0
    from .analysis.tables import format_table

    rows = [
        [name, s.protocol, s.fabric,
         f"n={s.n}" + (f" t={s.t}" if s.t is not None else ""),
         s.description]
        for name, s in CATALOG.items()
    ]
    print(format_table(
        ["name", "protocol", "fabric", "system", "description"], rows,
        title=f"scenario catalog ({len(CATALOG)} entries) — "
              "repro run --name <name>",
    ))
    return 0


def cmd_dealer(args: argparse.Namespace) -> int:
    from .mp.bundle import deal, load_manifest

    scenarios = _load_scenarios(args, fabric="mp")
    if len(scenarios) != 1:
        raise ReproError(
            f"a dealer run sets up one scenario, got {len(scenarios)}"
        )
    (scenario,) = scenarios
    if scenario.base_port <= 0:
        # Port 0 is for nodes an orchestrator readdresses; these are
        # started by hand, so every peer's port must be in the manifest.
        raise ReproError("dealing for standalone nodes needs a positive "
                         "base_port (--set base_port=7000)")
    manifest_path, bundles = deal(scenario, args.out)
    manifest = load_manifest(manifest_path)
    print(f"run       : {manifest.run_id}")
    print(f"scenario  : {scenario.name or '<inline>'} "
          f"(n={scenario.n}, coin: {scenario.coin_name}, "
          f"seed: {scenario.seed})")
    print(f"manifest  : {manifest_path}")
    for pid in sorted(bundles):
        host, port = manifest.addresses[pid]
        print(f"  node {pid} : {bundles[pid]}  ({host}:{port})")
    print("start each node with: repro node --manifest "
          f"{manifest_path} --bundle <its bundle>")
    return 0


def cmd_node(args: argparse.Namespace) -> int:
    from .mp import noderunner

    import asyncio

    if args.wal is not None and args.recover is not None:
        raise ReproError("--wal and --recover are mutually exclusive")
    return asyncio.run(noderunner.run_node(
        args.manifest, args.bundle, control=args.control, linger=args.linger,
        wal=args.wal, recover=args.recover, attempt=args.attempt,
    ))


def cmd_report(args: argparse.Namespace) -> int:
    from .obs.report import render_report

    print(render_report(load_events(args.file), limit=args.limit))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bracha's asynchronous Byzantine consensus (PODC 1984) — experiments",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", nargs="*", metavar="FILE",
                       help="scenario JSON file(s)")
        p.add_argument("--name", action="append", metavar="NAME",
                       help="catalog scenario name (repeatable; see "
                            "`repro catalog`)")
        p.add_argument("--set", action="append", metavar="FIELD=VALUE",
                       help="override a scenario field (repeatable), e.g. "
                            "--set fabric=tcp --set seed=7 --set "
                            "'faults={\"3\": \"silent\"}'; VALUE is JSON "
                            "when it parses, else a bare string; with no "
                            "FILE or --name the default scenario is the "
                            "base (fields: docs/scenarios.md)")

    run_p = sub.add_parser(
        "run",
        help="execute declarative scenarios (JSON files, catalog names, "
             "and/or --set overrides)",
    )
    scenario_args(run_p)
    run_p.add_argument("--check", action="store_true",
                       help="terse ok/FAIL per scenario; exit 1 on any failure")
    run_p.add_argument("--keep-scratch", action="store_true",
                       help="mp fabric: keep the run's scratch directory "
                            "(bundles, WALs, stderr context) for debugging")
    run_p.set_defaults(func=cmd_run)

    catalog_p = sub.add_parser("catalog", help="list the named scenario catalog")
    catalog_p.add_argument("--names", action="store_true",
                           help="print bare names only (for scripting)")
    catalog_p.set_defaults(func=cmd_catalog)

    dealer = sub.add_parser(
        "dealer",
        help="materialise a scenario's trusted setup into per-node bundles",
    )
    scenario_args(dealer)
    dealer.add_argument("--out", required=True, metavar="DIR",
                        help="output directory for manifest + bundles "
                             "(the scenario's base_port must be positive: "
                             "--set base_port=7000)")
    dealer.set_defaults(func=cmd_dealer)

    node = sub.add_parser(
        "node",
        help="run one consensus node (one OS process) from a dealt bundle",
    )
    node.add_argument("--manifest", required=True, help="manifest.json path")
    node.add_argument("--bundle", required=True, help="node-<pid>.json path")
    node.add_argument("--control", default=None, metavar="HOST:PORT",
                      help="orchestrator control endpoint (omit to run "
                           "standalone)")
    node.add_argument("--linger", type=float, default=5.0,
                      help="standalone: seconds to keep serving peers after "
                           "deciding")
    node.add_argument("--wal", default=None, metavar="FILE",
                      help="write a crash-recovery WAL to FILE")
    node.add_argument("--recover", default=None, metavar="FILE",
                      help="boot by replaying the WAL at FILE (refuses a "
                           "damaged or mismatched log), then keep appending")
    node.add_argument("--attempt", type=int, default=0,
                      help="restart attempt number (with --recover); selects "
                           "the link-layer sequence epoch")
    node.set_defaults(func=cmd_node)

    report = sub.add_parser(
        "report",
        help="read a JSONL trace: correlation, decision latency, per-round "
             "and phase windows, critical paths, queue vs processing",
    )
    report.add_argument("file", metavar="FILE",
                        help="JSONL trace written by observe=jsonl[:PATH]")
    report.add_argument("--limit", type=int, default=40,
                        help="max rows per round, phase and critical-path "
                             "table (at least 1)")
    report.set_defaults(func=cmd_report)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The interpreter's one ``repro`` parser, built on first use: a
    node forked from the mp zygote inherits it ready-made."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
