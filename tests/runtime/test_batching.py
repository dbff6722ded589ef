"""The batched message pipeline: WireBatch frames, node flush, counters."""

import asyncio

import pytest

from repro.errors import ConfigError
from repro.runtime import binarycodec, codec
from repro.scenario import Scenario, run
from repro.runtime.codec import WireBatch
from repro.sim import effects
from repro.sim.effects import FLUSH_BATCH_LIMIT
from repro.types import Phase
from repro.core.broadcast import RbcMessage


class TestWireBatchCodec:
    def test_round_trip(self):
        messages = (
            ("rbc", RbcMessage(("bracha", 1, 1, 0), 0, Phase.INIT, "v")),
            ("rbc", RbcMessage(("bracha", 1, 1, 0), 0, Phase.ECHO, "v")),
        )
        batch = WireBatch(messages)
        decoded = binarycodec.loads(binarycodec.dumps(batch))
        assert isinstance(decoded, WireBatch)
        assert decoded.messages == messages
        assert len(decoded) == 2

    def test_empty_batch_rejected(self):
        with pytest.raises(codec.CodecError):
            WireBatch(())

    def test_nested_batch_rejected(self):
        inner = WireBatch((("m", "x"),))
        with pytest.raises(codec.CodecError):
            WireBatch((inner,))

    def test_non_tuple_rejected(self):
        with pytest.raises(codec.CodecError):
            WireBatch(["a", "b"])

    def test_inbound_malformed_batch_dropped_by_decoder(self):
        # A Byzantine peer hand-crafting an empty batch frame: the
        # constructor validation re-runs on decode and rejects it.
        prefix, _fields = binarycodec.registry_tables()[0][WireBatch]
        with pytest.raises(codec.CodecError, match="at least one message"):
            binarycodec.loads(prefix + bytes([binarycodec._T_TUPLE, 0]))


def _batched_run(**fields):
    return run(Scenario(
        proposals=1, **{"protocol": "bracha", "instances": 4, **fields}
    ))


class TestBatchedCluster:
    def test_local_flush_compresses_frames(self):
        result = _batched_run(fabric="local", batching="flush", seed=3)
        assert result.decided_values == {1}
        assert result.meta["batching"] == "flush"
        snap = result.metrics
        frames = snap.counter("frames_sent")
        messages = snap.counter("wire_messages_sent")
        assert 0 < frames < messages
        assert snap.gauges["messages_per_frame"] == pytest.approx(
            messages / frames
        )

    def test_unbatched_is_one_message_per_frame(self):
        result = _batched_run(fabric="local", batching="off", seed=3)
        snap = result.metrics
        assert snap.counter("frames_sent") == snap.counter("wire_messages_sent")
        assert snap.gauges["messages_per_frame"] == 1.0

    @pytest.mark.parametrize("fabric", ["local", "tcp"])
    @pytest.mark.parametrize("protocol", ["bracha", "benor"])
    def test_flush_caps_messages_per_frame_at_the_limit(
        self, monkeypatch, fabric, protocol
    ):
        # The cap, lowered so a four-instance run's flushes split: every
        # frame holds at most that many messages, and the run decides.
        monkeypatch.setattr(effects, "FLUSH_BATCH_LIMIT", 2)
        result = _batched_run(fabric=fabric, protocol=protocol,
                              batching="flush", seed=5)
        assert result.decided_values == {1}
        assert result.metrics.gauges["messages_per_frame"] <= 2.0
        assert result.metrics.gauges["messages_per_frame"] > 1.0

    def test_tcp_flush_decides_and_compresses(self):
        result = _batched_run(fabric="tcp", batching="flush", seed=7)
        assert result.decided_values == {1}
        # The acceptance bound: >= 3x fewer TCP frames than messages on
        # the multi-instance Bracha pipeline.
        snap = result.metrics
        assert snap.counter("wire_messages_sent") >= 3 * snap.counter(
            "frames_sent"
        )

    def test_batched_with_byzantine_peer(self):
        result = _batched_run(
            fabric="local", batching="flush", seed=9,
            faults={3: "two_faced"},
        )
        assert result.decided_values.issubset({0, 1})
        assert len(result.decisions) == 3

    def test_batched_under_netem_loss(self):
        # Batches are the retransmission unit: the seq/ack layer resends
        # whole frames and consensus still completes under loss.
        result = _batched_run(
            fabric="local", batching="flush", seed=11,
            link={"loss": 0.1, "delay": 0.001},
        )
        assert result.decided_values == {1}
        assert result.metrics.gauges["messages_per_frame"] > 1.0

    def test_bad_batching_spec_rejected_up_front(self):
        with pytest.raises(ConfigError):
            Scenario(fabric="local", batching="size:2")


class TestNodeFlushGrouping:
    def test_flush_groups_by_destination_preserving_link_order(self):
        """Drive a node's flush directly: queued messages coalesce into
        one frame per destination, in first-appearance order."""
        from repro.params import for_system
        from repro.runtime.node import Node, NodeNetwork
        from repro.runtime.transport import Transport

        class RecordingTransport(Transport):
            def __init__(self, pid):
                self.pid = pid
                self.frames = []

            async def send(self, dest, payload):
                self.frames.append((dest, payload))

            async def recv(self):  # pragma: no cover - never pumped here
                await asyncio.Event().wait()

        async def scenario():
            params = for_system(4, 1)
            network = NodeNetwork(0, params)
            transport = RecordingTransport(0)
            node = Node(0, network, transport,
                        target=object(), batching="flush")
            network.send(0, 1, "a1")
            network.send(0, 2, "b1")
            network.send(0, 1, "a2")
            network.send(0, 1, "a3")
            await node._after_activation()
            return transport.frames

        frames = asyncio.run(scenario())
        assert frames == [
            (1, WireBatch(("a1", "a2", "a3"))),
            (2, "b1"),  # singletons skip the envelope
        ]

    def test_size_limit_chunks_frames(self):
        count = 2 * FLUSH_BATCH_LIMIT + 1
        sent = [f"m{i}" for i in range(count)]
        # Past the limit, one destination's flush splits into frames of
        # at most FLUSH_BATCH_LIMIT messages; a one-message tail goes bare.
        assert _flushed([(1, m) for m in sent]) == [
            (1, WireBatch(tuple(sent[:FLUSH_BATCH_LIMIT]))),
            (1, WireBatch(tuple(sent[FLUSH_BATCH_LIMIT:-1]))),
            (1, sent[-1]),
        ]

    def test_a_flush_of_exactly_the_limit_is_one_frame(self):
        sent = [f"m{i}" for i in range(FLUSH_BATCH_LIMIT)]
        assert _flushed([(1, m) for m in sent]) == [
            (1, WireBatch(tuple(sent))),
        ]

    def test_one_past_the_limit_leaves_a_bare_tail(self):
        sent = [f"m{i}" for i in range(FLUSH_BATCH_LIMIT + 1)]
        assert _flushed([(1, m) for m in sent]) == [
            (1, WireBatch(tuple(sent[:-1]))),
            (1, sent[-1]),
        ]

    def test_the_limit_binds_each_destination_on_its_own(self):
        to_1 = [f"a{i}" for i in range(FLUSH_BATCH_LIMIT + 2)]
        sends = [(1, m) for m in to_1]
        sends[1:1] = [(2, "b0"), (2, "b1")]  # interleaved on the queue
        assert _flushed(sends) == [
            (1, WireBatch(tuple(to_1[:FLUSH_BATCH_LIMIT]))),
            (1, WireBatch(tuple(to_1[FLUSH_BATCH_LIMIT:]))),
            (2, WireBatch(("b0", "b1"))),
        ]

    def test_batching_off_sends_every_message_bare(self):
        sent = [f"m{i}" for i in range(FLUSH_BATCH_LIMIT + 1)]
        frames = _flushed([(1, m) for m in sent], batching="off")
        assert frames == [(1, m) for m in sent]


def _flushed(sends, batching="flush"):
    """The frames node 0's flush writes after queuing ``(dest, message)``
    pairs in order."""
    from repro.params import for_system
    from repro.runtime.node import Node, NodeNetwork
    from repro.runtime.transport import Transport

    class RecordingTransport(Transport):
        def __init__(self, pid):
            self.pid = pid
            self.frames = []

        async def send(self, dest, payload):
            self.frames.append((dest, payload))

        async def recv(self):  # pragma: no cover
            await asyncio.Event().wait()

    async def scenario():
        network = NodeNetwork(0, for_system(4, 1))
        transport = RecordingTransport(0)
        node = Node(0, network, transport,
                    target=object(), batching=batching)
        for dest, message in sends:
            network.send(0, dest, message)
        await node._after_activation()
        return transport.frames

    return asyncio.run(scenario())
