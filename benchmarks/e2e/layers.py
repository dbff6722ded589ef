"""Per-layer drivers: each layer's public functions, timed from outside.

A driver measures one layer's per-operation cost on inputs shaped like
the workload's own traffic (real routed messages captured from the core
driver, frames of the workload's measured messages-per-frame), and
:func:`budget` multiplies each cost by the workload's own operation
count per decision.  Layers are the modules; a layer that does no work
on a workload has no metrics there.
"""

from __future__ import annotations

import asyncio
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from harness import Tally, child_env
from spans import Tracer
from workloads import Workload

Payload = Tuple[str, Any]


def median_us(fn: Callable[[], Any], ops: int, budget_s: float,
              min_calls: int = 3) -> float:
    """Median microseconds per operation over as many calls of ``fn``
    (each doing ``ops`` operations) as fit in ``budget_s``."""
    samples: List[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_calls or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6 / ops


@dataclass
class Context:
    """What every driver gets: the workload, its seed, its own runs'
    counts, a time slice, and the tracer to record its span into."""

    workload: Workload
    seed: int
    tally: Tally
    slice_s: float
    tracer: Tracer
    #: Routed protocol messages in send order, and pid 0's inbox, both
    #: captured by the core driver for the wire and WAL drivers.
    sent: List[Payload] = field(default_factory=list)
    inbox0: List[Tuple[int, Payload]] = field(default_factory=list)

    def frames(self, count: int = 64) -> List[Any]:
        """``count`` wire payloads shaped like the workload's frames: the
        captured messages chunked to its measured messages-per-frame."""
        from repro.runtime.codec import WireBatch

        k = (self.tally.per_decision("wire_messages_sent")
             / self.tally.per_decision("frames_sent"))
        out, taken = [], 0
        for i in range(count):
            upto = max(taken + 1, math.floor((i + 1) * k))
            chunk = [self.sent[j % len(self.sent)] for j in range(taken, upto)]
            out.append(chunk[0] if len(chunk) == 1 else WireBatch(tuple(chunk)))
            taken = upto
        return out


# ---------------------------------------------------------------------------
# core: the sans-I/O engines on the benchmark's own FIFO network
# ---------------------------------------------------------------------------


class _FifoNet:
    """The smallest ``NetworkAPI``: sends queue, the driver delivers."""

    def __init__(self, seed: int):
        from repro.sim.rng import SplitRng

        self.rng = SplitRng(seed)
        self.processes: Dict[int, Any] = {}
        self.queue: Deque[Tuple[int, int, Payload]] = deque()

    def register(self, process: Any) -> None:
        self.processes[process.pid] = process

    def send(self, source: int, dest: int, payload: Payload) -> None:
        self.queue.append((source, dest, payload))

    def now(self) -> float:
        return 0.0

    def trace_note(self, pid: Optional[int], detail: Any) -> None:
        pass


def _host_stacks(ctx: Context) -> Tuple[_FifoNet, Any, Dict[int, List[Any]], Dict[int, Any]]:
    """The workload's correct stacks from ``ProtocolPlan.build`` on a
    fresh FIFO net.  A silent node sends nothing, so it is simply absent."""
    from repro.sim.process import Process
    from repro.stacks import ProtocolPlan

    scenario = ctx.workload.scenario(ctx.seed)
    plan = ProtocolPlan(scenario.protocol, scenario.params, scenario.coin_name,
                        scenario.seed, scenario.instances)
    net = _FifoNet(scenario.seed)
    faulty = scenario.faults_dict()
    stacks = {
        pid: plan.build(Process(pid, net, scenario.params))
        for pid in range(scenario.n) if pid not in faulty
    }
    return net, plan, stacks, plan.default_proposals(scenario.proposals)


def _core_run(ctx: Context, capture: bool = False) -> Tuple[int, float]:
    """Run the stacks to decision in FIFO order; (deliveries, seconds)."""
    net, plan, stacks, proposals = _host_stacks(ctx)
    decided = [0]

    def on_decide(_effect: Any) -> None:
        decided[0] += 1

    for process in net.processes.values():
        process.on_decide = on_decide
        process.start()
    for pid, modules in stacks.items():
        plan.propose(modules, pid, proposals[pid])
    target = len(stacks) * ctx.workload.instances
    queue, processes = net.queue, net.processes
    steps = 0
    start = time.perf_counter()
    while queue and decided[0] < target:
        source, dest, payload = queue.popleft()
        process = processes.get(dest)
        if process is None:
            continue
        if capture:
            ctx.sent.append(payload)
            if dest == 0:
                ctx.inbox0.append((source, payload))
        process.deliver(source, payload)
        steps += 1
    elapsed = time.perf_counter() - start
    if decided[0] < target:
        raise RuntimeError("core driver: stacks did not decide in FIFO order")
    return steps, elapsed


def core(ctx: Context) -> Dict[str, float]:
    _core_run(ctx, capture=True)
    samples: List[float] = []
    deadline = time.perf_counter() + ctx.slice_s
    while len(samples) < 3 or time.perf_counter() < deadline:
        steps, elapsed = _core_run(ctx)
        samples.append(elapsed / steps)
    return {
        "core.step_us": statistics.median(samples) * 1e6,
        "core.steps_per_decision": ctx.tally.per_decision("messages_delivered"),
    }


# ---------------------------------------------------------------------------
# wire layers: codec, auth, tcp
# ---------------------------------------------------------------------------


def codec(ctx: Context) -> Dict[str, float]:
    from repro.runtime import binarycodec

    frames = ctx.frames()
    bodies = [binarycodec.dumps(frame) for frame in frames]
    if [binarycodec.loads(body) for body in bodies] != frames:
        raise RuntimeError("codec driver: binary round trip changed a frame")
    half = ctx.slice_s / 2
    return {
        "codec.encode_us_per_frame": median_us(
            lambda: [binarycodec.dumps(f) for f in frames], len(frames), half),
        "codec.decode_us_per_frame": median_us(
            lambda: [binarycodec.loads(b) for b in bodies], len(bodies), half),
        "codec.bytes_per_frame": sum(map(len, bodies)) / len(bodies),
        "codec.msgs_per_frame": (ctx.tally.per_decision("wire_messages_sent")
                                 / ctx.tally.per_decision("frames_sent")),
        "codec.frames_per_decision": ctx.tally.per_decision("frames_sent"),
    }


def _keyring(n: int) -> Any:
    from repro.net.auth import KeyRing

    return KeyRing(n, master_secret=b"e2e-bench")


def auth(ctx: Context) -> Dict[str, float]:
    from repro.runtime import binarycodec

    ring = _keyring(2)
    sender, receiver = ring.authenticator(0), ring.authenticator(1)
    bodies = [binarycodec.dumps(frame) for frame in ctx.frames()]
    tags = [sender.tag_bytes(1, body) for body in bodies]
    if not all(receiver.verify_bytes(0, b, t) for b, t in zip(bodies, tags)):
        raise RuntimeError("auth driver: a genuine tag failed to verify")
    half = ctx.slice_s / 2
    return {
        "auth.tag_us_per_frame": median_us(
            lambda: [sender.tag_bytes(1, b) for b in bodies], len(bodies), half),
        "auth.verify_us_per_frame": median_us(
            lambda: [receiver.verify_bytes(0, b, t)
                     for b, t in zip(bodies, tags)], len(bodies), half),
    }


async def _stream(frames: List[Any], total: int, slice_s: float) -> Tuple[float, int]:
    """Stream ``total`` frames at a time between two transports until the
    slice is spent; (median seconds per frame, frames rejected)."""
    from repro.runtime.tcp import TcpTransport

    ring = _keyring(2)
    a = TcpTransport(0, 2, ring, wire="binary")
    b = TcpTransport(1, 2, ring, wire="binary")
    try:
        await a.start()
        await b.start()
        peers = {0: a.address, 1: b.address}
        a.set_peers(peers)
        b.set_peers(peers)
        await a.connect()

        async def pump() -> None:
            for i in range(total):
                await a.send(1, frames[i % len(frames)])

        async def drain() -> None:
            for _ in range(total):
                await b.recv()

        samples: List[float] = []
        deadline = time.perf_counter() + slice_s
        while len(samples) < 3 or time.perf_counter() < deadline:
            start = time.perf_counter()
            await asyncio.gather(pump(), drain())
            samples.append((time.perf_counter() - start) / total)
        return statistics.median(samples), b.rejected
    finally:
        await a.close()
        await b.close()


def tcp(ctx: Context, wire: Dict[str, float]) -> Dict[str, float]:
    """``wire`` holds the codec and auth costs already measured: the
    transport's self time is the stream cost minus those."""
    from repro.runtime.tcp import encode_binary_frame

    frames = ctx.frames()
    sender = _keyring(2).authenticator(0)
    encode_us = median_us(
        lambda: [encode_binary_frame(sender, 1, f) for f in frames],
        len(frames), ctx.slice_s / 4)
    per_frame_s, rejected = asyncio.run(_stream(frames, 2000, ctx.slice_s))
    stream_us = per_frame_s * 1e6
    inner = sum(wire[name] for name in (
        "codec.encode_us_per_frame", "codec.decode_us_per_frame",
        "auth.tag_us_per_frame", "auth.verify_us_per_frame"))
    return {
        "tcp.frame_encode_us": encode_us,
        "tcp.send_recv_us_per_frame": stream_us,
        "tcp.self_us_per_frame": stream_us - inner,
        "tcp.frames_per_decision": ctx.tally.per_decision("frames_sent"),
        "tcp.frames_rejected": float(
            rejected + ctx.tally.first().counts.get("frames_rejected", 0)),
    }


# ---------------------------------------------------------------------------
# netem: link policy and the retransmission layer on virtual time
# ---------------------------------------------------------------------------


class _NullTransport:
    """A transport that acks every link frame it is handed and has one
    inbound frame queued per frame sent — nothing else happens below."""

    pid = 0

    def __init__(self) -> None:
        self.inbox: Deque[Tuple[int, Any]] = deque()

    async def send(self, dest: int, payload: Any) -> None:
        from repro.netem import LinkAck, LinkFrame

        if isinstance(payload, LinkFrame):
            self.inbox.append((dest, LinkAck(payload.seq)))
            self.inbox.append((dest, payload))

    async def recv(self) -> Tuple[int, Any]:
        from repro.runtime.transport import TransportClosed

        if not self.inbox:
            raise TransportClosed("null transport drained")
        return self.inbox.popleft()

    async def close(self) -> None:
        pass


async def _link_round(frames: List[Any]) -> None:
    """Send every frame over a fresh ReliableLink, then take in the acks
    and the peer's copies (ack sent, dedup window updated)."""
    from repro.netem import ReliableLink, TickClock
    from repro.runtime.transport import TransportClosed

    link = ReliableLink(_NullTransport(), TickClock())
    for frame in frames:
        await link.send(1, frame)
    received = 0
    try:
        while True:
            await link.recv()
            received += 1
    except TransportClosed:
        pass
    if received != len(frames) or link.outstanding:
        raise RuntimeError("netem driver: link lost or kept a frame")


def netem(ctx: Context) -> Dict[str, float]:
    from repro.netem import LinkPolicy

    scenario = ctx.workload.scenario(ctx.seed)
    policy = LinkPolicy(scenario.n, scenario.netem_config(), seed=ctx.seed)
    links = [(s, d) for s in range(scenario.n) for d in range(scenario.n)
             if s != d]
    frames = ctx.frames(1024)  # enough to dwarf one event loop's creation
    half = ctx.slice_s / 2
    offered = ctx.tally.per_decision("netem_frames")
    dropped = ctx.tally.per_decision("netem_dropped")
    return {
        "netem.plan_us": median_us(
            lambda: [policy.plan(s, d, 0.0) for s, d in links],
            len(links), half),
        "netem.link_us_per_frame": median_us(
            lambda: asyncio.run(_link_round(frames)), len(frames), half),
        "netem.retransmits_per_decision":
            ctx.tally.per_decision("netem_retransmitted"),
        "netem.delivered_share": (offered - dropped) / offered,
        "netem.frames_per_decision": offered,
    }


# ---------------------------------------------------------------------------
# wal: append-before-deliver and replay
# ---------------------------------------------------------------------------


def wal(ctx: Context) -> Dict[str, float]:
    from repro.recovery.wal import WalWriter, read_wal, replay

    header = {"run_id": "e2e", "node": 0, "seed": ctx.seed,
              "protocol": "bracha", "instances": ctx.workload.instances}
    proposal = _host_stacks(ctx)[3][0]
    records = len(ctx.inbox0) + 1
    half = ctx.slice_s / 2
    with tempfile.TemporaryDirectory(prefix="e2e-wal-") as directory:
        path = os.path.join(directory, "wal-0.jsonl")

        def append_all() -> None:
            writer = WalWriter.open(path, header)
            try:
                writer.append_propose(proposal)
                for sender, payload in ctx.inbox0:
                    writer.append_deliver(sender, payload)
            finally:
                writer.close()

        def replay_all() -> None:
            net, plan, stacks, _proposals = _host_stacks(ctx)
            _header, logged = read_wal(path)
            done = replay(
                logged,
                propose=lambda bit: plan.propose(stacks[0], 0, bit),
                deliver=net.processes[0].deliver,
            )
            if done["replayed"] != records:
                raise RuntimeError("wal driver: replay skipped records")

        return {
            "wal.append_us": median_us(append_all, records, half),
            "wal.replay_us_per_record": median_us(replay_all, records, half),
            "wal.records_per_decision": ctx.tally.per_decision("wal_records"),
            # + 1: the header line is in the file too
            "wal.bytes_per_record": os.path.getsize(path) / (records + 1),
        }


# ---------------------------------------------------------------------------
# obs: observer emit and profiler span
# ---------------------------------------------------------------------------


def obs(ctx: Context) -> Dict[str, float]:
    from repro.obs import MetricsRegistry, Observer
    from repro.obs.profile import SpanProfiler
    from repro.obs.sinks import RingSink

    messages = ctx.sent[:2000]
    observer = Observer(RingSink(capacity=len(messages)))
    profiler = SpanProfiler(MetricsRegistry())

    def emit_all() -> None:
        for payload in messages:
            observer.message("deliver", 0, payload, time=0.0, mid="0:1")

    def span_all() -> None:
        for _ in range(2000):
            profiler.stop("bench", profiler.start())

    half = ctx.slice_s / 2
    return {
        "obs.emit_us": median_us(emit_all, len(messages), half),
        "obs.span_us": median_us(span_all, 2000, half),
        "obs.events_per_decision": ctx.tally.per_decision("obs_events"),
        "obs.spans_per_decision": ctx.tally.per_decision("spans"),
    }


# ---------------------------------------------------------------------------
# mp: dealer, bundle validation, interpreter boot
# ---------------------------------------------------------------------------


def mp(ctx: Context) -> Dict[str, float]:
    from repro.mp.bundle import deal, load_bundle, load_manifest

    scenario = ctx.workload.scenario(ctx.seed)
    addresses = {pid: ("127.0.0.1", 40000 + pid) for pid in range(scenario.n)}
    third = ctx.slice_s / 3
    with tempfile.TemporaryDirectory(prefix="e2e-mp-") as directory:
        manifest_path, bundles = deal(scenario, directory, addresses=addresses)

        def validate() -> None:
            load_bundle(bundles[0]).validate(load_manifest(manifest_path))

        def boot() -> None:
            subprocess.run([sys.executable, "-m", "repro", "--version"],
                           env=child_env(), stdout=subprocess.DEVNULL,
                           check=True, timeout=60)

        out = {
            "mp.deal_ms": median_us(
                lambda: deal(scenario, directory, addresses=addresses),
                1, third) / 1e3,
            "mp.bundle_validate_ms": median_us(validate, 1, third) / 1e3,
            "mp.node_boot_ms": median_us(boot, 1, third) / 1e3,
        }
    run_setup_ms = statistics.median(
        r.setup_s for runs in ctx.tally.runs.values() for r in runs) * 1e3
    out["mp.setup_residual_ms"] = run_setup_ms - sum(out.values())
    return out


# ---------------------------------------------------------------------------
# scenario: what every run pays before a fabric exists
# ---------------------------------------------------------------------------


def scenario(ctx: Context, cold: Dict[str, Any]) -> Dict[str, float]:
    return {
        "scenario.import_ms": cold["import_s"] * 1e3,
        "scenario.build_us": median_us(
            lambda: ctx.workload.scenario(ctx.seed), 1, ctx.slice_s / 4),
    }


# ---------------------------------------------------------------------------
# The budget
# ---------------------------------------------------------------------------


def active_layers(workload: Workload) -> List[str]:
    """The measured layers that do work on this workload, in run order."""
    spec = workload.spec
    names = ["scenario", "core"]
    if workload.fabric != "sim":
        names.append("codec")
    if workload.fabric in ("tcp", "mp"):
        names += ["auth", "tcp"]
    if spec.get("link"):
        names.append("netem")
    if spec.get("recovery", "off") != "off":
        names.append("wal")
    if spec.get("observe", "off") != "off":
        names.append("obs")
    if workload.fabric == "mp":
        names.append("mp")
    return names


def measure(ctx: Context, cold: Dict[str, Any]) -> Dict[str, float]:
    """Run every active layer's driver as a child span; return all
    per-layer metrics of the workload including its budget."""
    out: Dict[str, float] = {}
    drivers: Dict[str, Callable[[], Dict[str, float]]] = {
        "scenario": lambda: scenario(ctx, cold),
        "core": lambda: core(ctx),
        "codec": lambda: codec(ctx),
        "auth": lambda: auth(ctx),
        "tcp": lambda: tcp(ctx, out),
        "netem": lambda: netem(ctx),
        "wal": lambda: wal(ctx),
        "obs": lambda: obs(ctx),
        "mp": lambda: mp(ctx),
    }
    for name in active_layers(ctx.workload):
        with ctx.tracer.span(f"layer.{name}", ctx.workload.name, ctx.seed):
            out.update(drivers[name]())
    out.update(budget(ctx, out))
    return out


def budget(ctx: Context, m: Dict[str, float]) -> Dict[str, float]:
    """Per-op time × the workload's own op count per decision, per layer;
    what no measured layer explains is the remainder layer's: ``sim`` on
    the sim fabric, ``node`` (pump, flush, asyncio, collection) elsewhere."""
    workload = ctx.workload
    walls = [r.wall_s for runs in ctx.tally.runs.values() for r in runs]
    e2e_ms = statistics.median(walls) * 1e3 / workload.instances
    frames = ctx.tally.per_decision("frames_sent")
    # A node's frame to itself crosses the codec but not the MAC or a socket.
    on_wire = frames * (workload.n - 1) / workload.n

    parts: Dict[str, float] = {
        "core": m["core.step_us"] * m["core.steps_per_decision"] / 1e3,
    }
    if "codec.encode_us_per_frame" in m:
        resent = ctx.tally.per_decision("netem_retransmitted")
        parts["codec"] = (frames + resent) * (
            m["codec.encode_us_per_frame"] + m["codec.decode_us_per_frame"]) / 1e3
    if "auth.tag_us_per_frame" in m:
        parts["auth"] = on_wire * (
            m["auth.tag_us_per_frame"] + m["auth.verify_us_per_frame"]) / 1e3
    if "tcp.self_us_per_frame" in m:
        parts["tcp"] = on_wire * m["tcp.self_us_per_frame"] / 1e3
    if "netem.plan_us" in m:
        parts["netem"] = (
            m["netem.frames_per_decision"] * m["netem.plan_us"]
            + (frames + m["netem.retransmits_per_decision"])
            * m["netem.link_us_per_frame"]) / 1e3
    if "wal.append_us" in m:
        parts["wal"] = m["wal.append_us"] * m["wal.records_per_decision"] / 1e3
    if "obs.emit_us" in m:
        parts["obs"] = (
            m["obs.emit_us"] * m["obs.events_per_decision"]
            + m["obs.span_us"] * m["obs.spans_per_decision"]) / 1e3
    if "mp.deal_ms" in m:
        parts["mp"] = (m["mp.deal_ms"] + m["mp.node_boot_ms"]
                       + m["mp.bundle_validate_ms"]) / workload.instances

    out = {f"{layer}.ms_per_decision": ms for layer, ms in parts.items()}
    attributed = sum(parts.values())
    remainder = e2e_ms - attributed
    if workload.fabric == "sim":
        steps = ctx.tally.per_decision("steps")
        out["sim.step_us"] = e2e_ms * 1e3 / steps
        out["sim.self_us_per_step"] = remainder * 1e3 / steps
        out["sim.steps_per_decision"] = steps
        out["sim.ms_per_decision"] = remainder
    else:
        out["node.residual_ms_per_decision"] = remainder
    out["budget.e2e_ms_per_decision"] = e2e_ms
    out["budget.attributed_share"] = attributed / e2e_ms
    return out
