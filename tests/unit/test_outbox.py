"""The effect/outbox layer: ordering, flush boundaries, batching specs."""

import pytest

from repro.errors import ConfigError
from repro.sim.effects import (
    BATCHING_MODES,
    Broadcast,
    Decide,
    FLUSH_BATCH_LIMIT,
    Note,
    Outbox,
    Send,
    parse_batching,
)
from repro.sim.process import ProtocolModule

from ..conftest import make_member


class Echoer(ProtocolModule):
    """Replies to every inbound message; used to observe flush timing."""

    def __init__(self, module_id="echo"):
        super().__init__(module_id)
        self.seen = []

    def on_message(self, sender, payload):
        self.seen.append((sender, payload))
        self.ctx.send(sender, f"re:{payload}")
        self.ctx.note(f"echoed {payload}")
        self.ctx.send(sender, f"re2:{payload}")


class TestOutbox:
    def test_drain_preserves_issue_order(self):
        box = Outbox()
        effects = [Send(1, "a"), Note("x"), Broadcast("b"), Decide(0)]
        for effect in effects:
            box.append(effect)
        assert box.drain() == effects
        assert box.drain() == []

    def test_len_and_lifetime_counter(self):
        box = Outbox()
        assert not box
        box.append(Send(0, "m"))
        assert len(box) == 1 and box and box.appended == 1
        box.drain()
        assert len(box) == 0 and box.appended == 1


class TestFlushBoundaries:
    def test_direct_module_call_flushes_immediately(self):
        # The compatibility shim: outside any activation every effect
        # applies on the spot, exactly the historical inline behavior.
        process, stub = make_member(pid=2)
        module = process.add_module(Echoer())
        module.ctx.send(3, "now")
        assert stub.sent == [(2, 3, ("echo", "now"))]

    def test_deliver_flushes_at_step_end_in_order(self):
        process, stub = make_member(pid=0)
        process.add_module(Echoer())
        process.deliver(1, ("echo", "ping"))
        # Both replies flushed, in issue order, after the callback.
        assert [p for _s, _d, p in stub.sent] == [
            ("echo", "re:ping"), ("echo", "re2:ping"),
        ]

    def test_buffered_widens_the_atomic_window(self):
        process, stub = make_member(pid=1)
        module = process.add_module(Echoer())
        with process.buffered():
            module.ctx.send(0, "a")
            module.ctx.send(2, "b")
            assert stub.sent == []  # still buffered
        assert [d for _s, d, _p in stub.sent] == [0, 2]

    def test_exception_still_flushes_prior_effects(self):
        # Messages handed over before a fault stay in flight — a crash
        # does not recall packets.
        class Faulty(ProtocolModule):
            def on_message(self, sender, payload):
                self.ctx.send(sender, "sent-before-crash")
                raise RuntimeError("boom")

        process, stub = make_member(pid=0)
        process.add_module(Faulty("bad"))
        with pytest.raises(RuntimeError):
            process.deliver(1, ("bad", "x"))
        assert [p for _s, _d, p in stub.sent] == [("bad", "sent-before-crash")]

    def test_broadcast_effect_expands_in_pid_order(self):
        process, stub = make_member(n=4, pid=1)
        module = process.add_module(Echoer())
        module.ctx.broadcast("hi")
        assert [d for _s, d, _p in stub.sent] == [0, 1, 2, 3]
        assert all(p == ("echo", "hi") for _s, _d, p in stub.sent)

    def test_decide_effect_reaches_the_driver_hook(self):
        process, _stub = make_member(pid=0)
        module = process.add_module(Echoer())
        decided = []
        process.on_decide = decided.append
        module.ctx.decide(1, round=3)
        assert len(decided) == 1
        effect = decided[0]
        assert (effect.value, effect.module, effect.round) == (1, "echo", 3)


class TestParseBatching:
    def test_modes(self):
        assert parse_batching("off") == ("off", 1)
        assert parse_batching(None) == ("off", 1)
        assert parse_batching("flush") == ("flush", FLUSH_BATCH_LIMIT)

    @pytest.mark.parametrize(
        "bad",
        ["on", "size:1", "size:0", "size:x", "SIZE:4", 3,
         f"size:{FLUSH_BATCH_LIMIT + 1}", "size:2", "size:16"],
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            parse_batching(bad)

    def test_modes_constant_documents_the_surface(self):
        assert BATCHING_MODES == ("off", "flush")
