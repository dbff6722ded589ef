"""P1 — The wire path: binary frame cost, retransmit wheel.

The wire format (``repro.runtime.tcp`` framing around
``repro.runtime.binarycodec``) is struct-packed: a 10-byte header, the
HMAC over raw body bytes, and a compact type-tagged value encoding with
varint lengths.  This benchmark measures what one frame costs on the
workload the batching pipeline produces — a
:class:`~repro.runtime.codec.WireBatch` of routed protocol messages —
and the retransmission layer's timer-wheel scan cost at 1 000 pending
frames.

Floors committed in ``benchmarks/floors.json`` hold the headline
numbers as absolute ceilings: frame encode µs, frame ingest µs for a
body the receiver has not seen (MAC verify + full decode) and for one
it has (MAC verify + a memo hit), bytes per frame, the batched tcp run
end to end, and the idle timer-wheel sweep.  (The rows were ratios over
the JSON wire format until that format was removed; the last measured
ratios — encode 5.4x, decode 3.1x, bytes −78% — are in
docs/performance.md.)  Run with ``--smoke`` for the CI-sized subset.
"""

import asyncio
import contextlib
import gc
import time

from conftest import run_once

from repro.analysis.tables import format_table
from repro.core.broadcast import RbcMessage
from repro.net.auth import KeyRing
from repro.runtime.codec import WireBatch
from repro.runtime.tcp import TcpTransport, encode_binary_frame
from repro.scenario import Scenario, run
from repro.types import Phase


def _batched_pipeline_frame(salt=0):
    """One wire frame as the batched multi-instance Bracha pipeline
    coalesces it: 16 routed broadcast messages for one destination.
    ``salt`` names the first message's instance, so every salt is a
    body no receiver has decoded before."""
    return WireBatch(tuple(
        (f"bracha:{i}", RbcMessage(f"rbc{i or salt}", i % 4, Phase.ECHO, i % 2))
        for i in range(16)
    ))


@contextlib.contextmanager
def _frozen_heap():
    """Collect, then move every tracked object to the permanent
    generation for the block (as ``mp/zygote.py`` does before it forks).

    Under ``--smoke`` this file runs after nine other bench files, whose
    objects double the tracked heap p1 sees alone; the allocations of a
    timed loop then start collections over that whole heap, and the row
    times the collector instead of the wire path.  Frozen, the block
    reads what it reads in a fresh process."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


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
        auth = ring.authenticator(0)
        receiver = TcpTransport(1, 2, ring)
        frame = encode_binary_frame(auth, 1, payload)

        encode_us = _time_us(lambda: encode_binary_frame(auth, 1, payload), reps)
        # The receive path (MAC verify + decode), driven synchronously:
        # _ingest is the exact per-frame work the serve task performs.
        # The receiver decodes a body once, so the cost of a decode is
        # read on ``reps`` distinct frames and the cost of a repeat on
        # one frame ``reps`` times over.
        distinct = iter([
            encode_binary_frame(auth, 1, _batched_pipeline_frame(salt))
            for salt in range(1, reps + 1)
        ])
        with _frozen_heap():
            decode_us = _time_us(lambda: receiver._ingest(next(distinct)), reps)
        receiver._ingest(frame)
        hit_us = _time_us(lambda: receiver._ingest(frame), reps)
        assert receiver.accepted == 2 * reps + 1 and receiver.rejected == 0
        assert (receiver.memo.misses, receiver.memo.hits) == (reps + 1, reps)

        # End-to-end: the batched pipeline over real sockets.
        with _frozen_heap():
            start = time.perf_counter()
            result = run(Scenario(
                protocol="bracha", n=4, proposals=1, instances=4,
                fabric="tcp", batching="flush", seed=900, timeout=120.0,
            ))
            e2e_ms = (time.perf_counter() - start) * 1000.0
        assert result.decided_values == {1}

        return {
            "encode_us": encode_us,
            "decode_us": decode_us,
            "hit_us": hit_us,
            "bytes": len(frame),
            "e2e_ms": e2e_ms,
        }

    m = run_once(benchmark, experiment)

    table_sink(
        "p1_codec",
        format_table(
            ["encode us/frame", "ingest us/frame (new body)",
             "ingest us/frame (seen body)", "bytes/frame",
             "e2e ms (tcp, batched)"],
            [[round(m["encode_us"], 2), round(m["decode_us"], 2),
              round(m["hit_us"], 2), m["bytes"], round(m["e2e_ms"], 1)]],
            title="P1. The wire format on the batched-pipeline frame "
                  "(WireBatch of 16 Bracha messages, MAC included)",
        ),
    )

    bench_sink(
        "p1_codec",
        {
            "encode_bin_us": round(m["encode_us"], 2),
            "decode_bin_us": round(m["decode_us"], 2),
            "ingest_hit_us": round(m["hit_us"], 2),
            "bin_bytes_per_frame": m["bytes"],
            "e2e_binary_tcp_ms": round(m["e2e_ms"], 1),
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
