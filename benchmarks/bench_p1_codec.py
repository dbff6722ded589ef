"""P1 — Fast wire path: binary codec vs tagged JSON, retransmit wheel.

The binary wire codec (``repro.runtime.binarycodec``) replaces the
tagged-JSON envelope with struct-packed frames: a 10-byte header, the
HMAC over raw body bytes (no canonical-JSON re-serialization), and a
compact type-tagged value encoding with varint lengths.  This benchmark
quantifies the wire-path effect on the workload the batching pipeline
produces — a :class:`~repro.runtime.codec.WireBatch` of routed protocol
messages — and the retransmission layer's timer-wheel scan cost at
1 000 pending frames.

Floors committed in ``benchmarks/floors.json`` hold the headline
numbers: ≥3.5× frame-encode and ≥2× frame-decode speedup and ≥30%
wire-byte reduction over the JSON codec, plus a ceiling on the idle
timer-wheel sweep.  Run with ``--smoke`` for the CI-sized subset.
"""

import asyncio
import time

from conftest import run_once

from repro.analysis.tables import format_table
from repro.core.broadcast import RbcMessage
from repro.net.auth import KeyRing
from repro.runtime.codec import WireBatch
from repro.runtime.tcp import TcpTransport, encode_binary_frame, encode_json_frame
from repro.scenario import Scenario, run
from repro.types import Phase


def _batched_pipeline_frame():
    """One wire frame as the batched multi-instance Bracha pipeline
    coalesces it: 16 routed broadcast messages for one destination."""
    return WireBatch(tuple(
        (f"bracha:{i}", RbcMessage(f"rbc{i}", i % 4, Phase.ECHO, i % 2))
        for i in range(16)
    ))


def _time_us(fn, reps):
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) * 1e6 / reps


def test_p1_codec_wire_path(benchmark, table_sink, bench_sink, smoke):
    reps = 300 if smoke else 2000
    payload = _batched_pipeline_frame()
    ring = KeyRing(2, master_secret=b"bench-p1")

    def experiment():
        sender = TcpTransport(0, 2, ring, wire="json")
        receiver_json = TcpTransport(1, 2, ring, wire="json")
        receiver_bin = TcpTransport(1, 2, ring, wire="binary")
        auth = sender._auth

        json_frame = encode_json_frame(auth, 1, payload)
        bin_frame = encode_binary_frame(auth, 1, payload)

        encode_json_us = _time_us(lambda: encode_json_frame(auth, 1, payload), reps)
        encode_bin_us = _time_us(lambda: encode_binary_frame(auth, 1, payload), reps)
        # The receive path (MAC verify + decode), driven synchronously:
        # _ingest is the exact per-frame work the serve task performs.
        decode_json_us = _time_us(lambda: receiver_json._ingest(json_frame), reps)
        decode_bin_us = _time_us(lambda: receiver_bin._ingest(bin_frame), reps)
        assert receiver_json.accepted == reps and receiver_json.rejected == 0
        assert receiver_bin.accepted == reps and receiver_bin.rejected == 0

        # End-to-end: the batched pipeline over real sockets, per codec.
        e2e_ms = {}
        for codec_name in ("json", "binary"):
            start = time.perf_counter()
            result = run(Scenario(
                protocol="bracha", n=4, proposals=1, instances=4,
                fabric="tcp", batching="flush", codec=codec_name,
                seed=900, timeout=120.0,
            ))
            e2e_ms[codec_name] = (time.perf_counter() - start) * 1000.0
            assert result.decided_values == {1}

        return {
            "encode_json_us": encode_json_us,
            "encode_bin_us": encode_bin_us,
            "decode_json_us": decode_json_us,
            "decode_bin_us": decode_bin_us,
            "bytes_json": len(json_frame),
            "bytes_bin": len(bin_frame),
            "e2e_json_ms": e2e_ms["json"],
            "e2e_bin_ms": e2e_ms["binary"],
        }

    m = run_once(benchmark, experiment)
    encode_speedup = m["encode_json_us"] / m["encode_bin_us"]
    decode_speedup = m["decode_json_us"] / m["decode_bin_us"]
    reduction_pct = 100.0 * (1.0 - m["bytes_bin"] / m["bytes_json"])

    table_sink(
        "p1_codec",
        format_table(
            ["codec", "encode us/frame", "decode us/frame", "bytes/frame",
             "e2e ms (tcp, batched)"],
            [
                ["json", round(m["encode_json_us"], 2),
                 round(m["decode_json_us"], 2), m["bytes_json"],
                 round(m["e2e_json_ms"], 1)],
                ["binary", round(m["encode_bin_us"], 2),
                 round(m["decode_bin_us"], 2), m["bytes_bin"],
                 round(m["e2e_bin_ms"], 1)],
            ],
            title="P1. Wire codecs on the batched-pipeline frame "
                  "(WireBatch of 16 Bracha messages, MAC included)",
        ),
    )

    # The acceptance bounds of the fast-wire-path PR.
    assert encode_speedup >= 2.0, f"encode speedup {encode_speedup:.2f}x < 2x"
    assert reduction_pct >= 30.0, f"byte reduction {reduction_pct:.1f}% < 30%"

    bench_sink(
        "p1_codec",
        {
            "encode_speedup_x": round(encode_speedup, 2),
            "decode_speedup_x": round(decode_speedup, 2),
            "wire_bytes_reduction_pct": round(reduction_pct, 1),
            "bin_bytes_per_frame": m["bytes_bin"],
            "json_bytes_per_frame": m["bytes_json"],
            "e2e_binary_tcp_ms": round(m["e2e_bin_ms"], 1),
        },
        meta={"reps": reps, "batch_messages": 16},
    )


def test_p1_retransmit_wheel(benchmark, table_sink, bench_sink, smoke):
    """Timer-wheel scan cost with 1 000 pending unacked frames.

    The old scan sorted the whole pending table every tick; the heap
    wheel pops only what is due, so an idle tick (nothing overdue — the
    common case on a healthy link) is O(1) regardless of backlog.
    """
    from repro.netem.clock import TickClock
    from repro.netem.reliable import ReliableLink

    pending = 1000
    sweeps = 200 if smoke else 1000

    class _NullTransport:
        pid = 0

        async def send(self, dest, payload):
            pass

        async def recv(self):  # pragma: no cover - never polled here
            await asyncio.Event().wait()

    def experiment():
        clock = TickClock()
        link = ReliableLink(_NullTransport(), clock, rto=0.05)

        async def fill():
            for i in range(pending):
                await link.send(1 + (i % 3), f"payload-{i}")

        asyncio.run(fill())
        assert link.outstanding == pending

        now = clock.now()
        idle_us = _time_us(lambda: link._collect_due(now), sweeps)

        # One full sweep with every frame overdue: collect + reschedule.
        start = time.perf_counter()
        resend = link._collect_due(now + 1.0)
        due_all_us = (time.perf_counter() - start) * 1e6
        assert len(resend) == pending
        assert link.retransmitted == pending
        return {"idle_us": idle_us, "due_all_us": due_all_us}

    m = run_once(benchmark, experiment)
    table_sink(
        "p1_retransmit_wheel",
        format_table(
            ["sweep", "us/sweep"],
            [
                [f"idle ({pending} pending, none due)", round(m["idle_us"], 3)],
                [f"all {pending} due (pop + reschedule)", round(m["due_all_us"], 1)],
            ],
            title="P1. Retransmit timer-wheel scan cost",
        ),
    )
    bench_sink(
        "p1_retransmit_wheel",
        {
            "idle_sweep_us_at_1k_pending": round(m["idle_us"], 3),
            "full_sweep_us_at_1k_pending": round(m["due_all_us"], 1),
        },
        meta={"pending": pending, "sweeps": sweeps},
    )
