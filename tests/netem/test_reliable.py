"""ReliableLink: eventual delivery, dedup, ack loss, abandonment.

These tests drive the retransmission layer directly over a lossy
:class:`~repro.runtime.transport.LocalHub` with the deterministic
:class:`~repro.netem.TickClock`, without the full cluster on top.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.netem import (
    LinkAck,
    LinkFrame,
    LinkPolicy,
    NetemConfig,
    ReliableLink,
    TickClock,
)
from repro.netem import reliable
from repro.runtime.transport import LocalHub


def run_async(coro):
    return asyncio.run(coro)


async def lossy_pair(loss, seed=0, rto=0.02, max_retries=50, n=2):
    clock = TickClock()
    clock.start()
    policy = LinkPolicy(
        n, NetemConfig.from_spec({"loss": loss, "rto": rto}), seed=seed
    )
    hub = LocalHub(n, policy=policy, clock=clock)
    links = [
        ReliableLink(hub.endpoint(pid), clock, rto=rto, max_retries=max_retries)
        for pid in range(n)
    ]
    for link in links:
        link.start_scan()
    return clock, hub, links


async def teardown(clock, hub, links):
    for link in links:
        await link.close()
    await hub.close()
    await clock.close()


def test_every_payload_survives_heavy_loss():
    async def scenario():
        clock, hub, (a, b) = await lossy_pair(loss=0.4, seed=5)
        try:
            total = 30
            for i in range(total):
                await a.send(1, ("msg", i))
            received = set()
            while len(received) < total:
                sender, payload = await asyncio.wait_for(b.recv(), 10.0)
                assert sender == 0
                received.add(payload[1])
            assert received == set(range(total))
            assert a.retransmitted > 0  # 40% loss cannot be luck
            assert a.abandoned == 0
        finally:
            await teardown(clock, hub, (a, b))

    run_async(scenario())


def test_link_duplicates_are_filtered():
    async def scenario():
        clock = TickClock()
        clock.start()
        policy = LinkPolicy(
            2, NetemConfig.from_spec({"duplicate": 0.9}), seed=1
        )
        hub = LocalHub(2, policy=policy, clock=clock)
        links = [ReliableLink(hub.endpoint(pid), clock) for pid in range(2)]
        for link in links:
            link.start_scan()
        a, b = links
        try:
            for i in range(20):
                await a.send(1, ("msg", i))
            got = [
                (await asyncio.wait_for(b.recv(), 5.0))[1][1] for i in range(20)
            ]
            assert sorted(got) == list(range(20))  # exactly once each
            assert b.duplicates_filtered > 0
        finally:
            await teardown(clock, hub, links)

    run_async(scenario())


def test_unacked_frames_are_abandoned_after_max_retries():
    async def scenario():
        clock, hub, (a, b) = await lossy_pair(loss=0.0, max_retries=3, rto=0.002)
        try:
            await b.close()  # the peer will never ack
            await a.send(1, ("into", "the void"))
            while a.abandoned == 0:
                await asyncio.wait_for(asyncio.sleep(0.001), 5.0)
            assert a.outstanding == 0
            assert a.retransmitted == 3
        finally:
            await a.close()
            await hub.close()
            await clock.close()

    run_async(scenario())


def test_severed_links_pause_resends_without_charging_retries():
    async def scenario():
        clock = TickClock()
        clock.start()
        policy = LinkPolicy(
            2,
            NetemConfig.from_spec(
                None, [{"start": 0.0, "stop": 0.05, "groups": [[0], [1]]}]
            ),
            seed=3,
        )
        hub = LocalHub(2, policy=policy, clock=clock)
        a = ReliableLink(
            hub.endpoint(0), clock, rto=0.002, max_retries=2,
            severed=lambda dest, now: policy.severed(0, dest, now),
        )
        b = ReliableLink(hub.endpoint(1), clock)
        for link in (a, b):
            link.start_scan()
        try:
            await a.send(1, ("through", "the wall"))
            # Deep inside the partition (30 modeled ms >> 2 * rto): the
            # frame must still be pending, with zero retries charged.
            await clock.sleep(0.03)
            assert a.outstanding == 1
            assert a.retransmitted == 0
            assert a.abandoned == 0
            # After the heal the scan resends and the frame lands.
            sender, payload = await asyncio.wait_for(b.recv(), 10.0)
            assert (sender, payload) == (0, ("through", "the wall"))
        finally:
            await teardown(clock, hub, (a, b))

    run_async(scenario())


def test_self_sends_bypass_sequencing():
    async def scenario():
        clock, hub, (a, b) = await lossy_pair(loss=0.3, seed=2)
        try:
            await a.send(0, ("to", "myself"))
            sender, payload = await asyncio.wait_for(a.recv(), 5.0)
            assert (sender, payload) == (0, ("to", "myself"))
            assert a.outstanding == 0  # nothing pending, nothing to resend
        finally:
            await teardown(clock, hub, (a, b))

    run_async(scenario())


def test_unframed_payloads_pass_through():
    async def scenario():
        clock = TickClock()
        clock.start()
        hub = LocalHub(2)
        raw = hub.endpoint(0)
        b = ReliableLink(hub.endpoint(1), clock)
        b.start_scan()
        try:
            await raw.send(1, ("naked", "payload"))
            sender, payload = await asyncio.wait_for(b.recv(), 5.0)
            assert (sender, payload) == (0, ("naked", "payload"))
        finally:
            await b.close()
            await raw.close()
            await clock.close()

    run_async(scenario())


def test_seen_window_compacts():
    from repro.netem.reliable import _SeenWindow

    window = _SeenWindow()
    assert window.add(0) and window.add(1) and window.add(2)
    assert window.floor == 3 and window.bounds == [0, 3]
    assert not window.add(1)        # replay below the floor
    assert window.add(5)            # straggler held above the floor
    assert window.floor == 3 and window.bounds == [0, 3, 5, 6]
    assert window.add(3) and window.add(4)
    assert window.floor == 6 and window.bounds == [0, 6]


def _held(window):
    """What a window keeps, whatever its shape: the total length of its
    collection slots (two bounds per run)."""
    return sum(len(getattr(window, name)) for name in window.__slots__
               if name != "floor")


def test_seen_window_stays_one_run_above_the_floor_after_a_peers_restart():
    # 500 frames of the old incarnation, then 2 000 of the respawn,
    # whose seqs start one epoch span up.
    window = reliable._SeenWindow()
    for seq in range(500):
        assert window.add(seq)
    base = reliable.SEQ_EPOCH_SPAN
    for k in range(2000):
        assert window.add(base + k)
    assert window.floor == 500 and _held(window) <= 4  # floor + one run
    assert not window.add(base + 1999) and not window.add(499)
    assert window.add(base + 2000) and _held(window) <= 4


def test_a_link_runs_past_two_to_the_twenty_frames_to_one_peer():
    # The epoch span is 2**40: a first incarnation's seqs go on past
    # 2**20, a window takes them as one run, and a respawn one span up
    # still opens a fresh range.
    window, big = reliable._SeenWindow(), 1 << 20
    for seq in range(big + 2000):
        assert window.add(seq)
    assert window.floor == big + 2000 and _held(window) == 2
    assert not window.add(big + 1)
    assert window.add(reliable.SEQ_EPOCH_SPAN) and _held(window) == 4

    async def scenario():
        inner = _SilentTransport()
        link = ReliableLink(inner, TickClock())
        link._next_seq[1] = big  # as after 2**20 frames to node 1
        for _ in range(3):
            await link.send(1, "payload")
        assert [frame.seq for _dest, frame in inner.sent] == [
            big, big + 1, big + 2]
        assert link.outstanding == 3

    run_async(scenario())


def test_seen_window_stays_one_run_when_opened_mid_stream():
    # This node restarted: its fresh window meets a live peer whose
    # counter is already at 700.
    window = reliable._SeenWindow()
    for seq in range(700, 2700):
        assert window.add(seq)
    assert window.floor == 0 and _held(window) <= 2  # one run
    assert not window.add(700) and window.add(699)
    assert _held(window) <= 2


@given(st.lists(st.integers(min_value=0, max_value=60), max_size=200))
@settings(max_examples=300, deadline=None)
def test_seen_window_answers_as_a_plain_set(seqs):
    window, seen = reliable._SeenWindow(), set()
    for seq in seqs:
        assert window.add(seq) == (seq not in seen)
        seen.add(seq)
    bounds = window.bounds
    # Sorted, non-empty runs that never touch, and exactly the seen set.
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    assert set().union(*map(range, bounds[::2], bounds[1::2])) == seen
    assert window.floor == min(set(range(62)) - seen)


def test_wire_frames_round_trip_the_codec():
    from repro.runtime import binarycodec

    frame = LinkFrame(7, ("mod", "payload"))
    assert binarycodec.loads(binarycodec.dumps(frame)) == frame
    ack = LinkAck(7)
    assert binarycodec.loads(binarycodec.dumps(ack)) == ack


def test_malformed_wire_frames_are_rejected():
    from repro.runtime import binarycodec
    from repro.runtime.codec import CodecError

    with pytest.raises(ValueError):
        LinkFrame(-1, "x")
    # A LinkAck body whose seq field is -3 (zigzag varint 5).
    prefix = binarycodec.registry_tables()[0][LinkAck][0]
    with pytest.raises(CodecError, match="rejected LinkAck"):
        binarycodec.loads(prefix + bytes([binarycodec._T_INT, 5]))


# -- the heapq timer wheel ----------------------------------------------------


class _SilentTransport:
    """An inner transport that swallows sends (nothing is ever acked)."""

    pid = 0

    def __init__(self):
        self.sent = []

    async def send(self, dest, payload):
        self.sent.append((dest, payload))

    async def recv(self):  # pragma: no cover - never polled here
        await asyncio.Event().wait()


def test_wheel_skips_acked_entries_lazily():
    # An ack removes only the _pending entry; the stale heap record must
    # be skipped on pop, not resent.
    async def scenario():
        clock = TickClock()
        inner = _SilentTransport()
        link = ReliableLink(inner, clock, rto=0.05)
        for i in range(10):
            await link.send(1, ("msg", i))
        assert link.outstanding == 10
        # Ack the even sequence numbers the way recv() does.
        for seq in range(0, 10, 2):
            link._pending.pop((1, seq))
        resend = link._collect_due(clock.now() + 1.0)
        assert [entry.frame.seq for _dest, entry in resend] == [1, 3, 5, 7, 9]
        assert link.retransmitted == 5

    run_async(scenario())


def test_wheel_reschedules_with_capped_backoff():
    async def scenario():
        clock = TickClock()
        inner = _SilentTransport()
        link = ReliableLink(inner, clock, rto=0.05)
        await link.send(1, "payload")
        entry = link._pending[(1, 0)]
        # Never acked: each sweep resends once and doubles the due gap,
        # capped at 8x rto after the third retry.
        now, gaps = 0.0, []
        for _ in range(6):
            now = entry.due
            assert len(link._collect_due(now)) == 1
            gaps.append(round(entry.due - now, 6))
        assert gaps == [0.1, 0.2, 0.4, 0.4, 0.4, 0.4]
        assert link.retransmitted == 6

    run_async(scenario())


def test_wheel_pauses_severed_links_without_charging_retries():
    async def scenario():
        clock = TickClock()
        inner = _SilentTransport()
        severed = {"now": True}
        link = ReliableLink(
            inner, clock, rto=0.05, max_retries=3,
            severed=lambda dest, now: severed["now"],
        )
        await link.send(1, "payload")
        entry = link._pending[(1, 0)]
        # While severed: rescheduled, never charged, never collected.
        for sweep in range(5):
            assert link._collect_due(entry.due) == []
        assert entry.retries == 0 and link.retransmitted == 0
        assert link.outstanding == 1
        # Healed: resends resume and the full retry budget remains.
        severed["now"] = False
        assert len(link._collect_due(entry.due)) == 1
        assert entry.retries == 1

    run_async(scenario())


def test_wheel_abandons_at_the_retry_budget():
    async def scenario():
        clock = TickClock()
        inner = _SilentTransport()
        link = ReliableLink(inner, clock, rto=0.05, max_retries=2)
        await link.send(1, "payload")
        entry = link._pending[(1, 0)]
        assert len(link._collect_due(entry.due)) == 1  # retry 1
        assert len(link._collect_due(entry.due)) == 1  # retry 2
        assert link._collect_due(entry.due) == []      # budget spent: dropped
        assert link.outstanding == 0
        assert link.abandoned == 1
        # The wheel is empty too: nothing left to pop, ever.
        assert link._heap == []

    run_async(scenario())


def test_a_sender_never_leaves_its_incarnations_sequence_span(monkeypatch):
    # A respawned node starts at attempt * SEQ_EPOCH_SPAN; walking past
    # the span would hand out numbers the next incarnation reuses.
    monkeypatch.setattr(reliable, "SEQ_EPOCH_SPAN", 4)

    async def scenario():
        inner = _SilentTransport()
        link = ReliableLink(inner, TickClock(), seq_base=2 * 4)
        for _ in range(4):
            await link.send(1, "payload")
        assert [frame.seq for _dest, frame in inner.sent] == [8, 9, 10, 11]
        with pytest.raises(ReproError, match="sequence epoch exhausted.*"
                                             "4 frames to node 1"):
            await link.send(1, "one too many")
        assert len(inner.sent) == 4 and link.outstanding == 4
        # The span is per destination, and self-sends do not consume it.
        await link.send(2, "payload")
        await link.send(0, "to self")
        assert inner.sent[-2][1].seq == 8

    run_async(scenario())
