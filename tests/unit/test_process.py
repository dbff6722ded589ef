"""Process framework: module routing, contexts, upcalls, halting."""

import pytest

from repro.errors import SimulationError
from repro.params import ProtocolParams
from repro.sim.process import Process, ProtocolModule

from ..conftest import StubNetwork, make_member


class Recorder(ProtocolModule):
    """Minimal module that logs inbound messages."""

    def __init__(self, module_id="rec"):
        super().__init__(module_id)
        self.inbox = []
        self.started = False

    def start(self):
        self.started = True

    def on_message(self, sender, payload):
        self.inbox.append((sender, payload))


class TestWiring:
    def test_add_module_binds_context(self):
        process, _ = make_member()
        module = process.add_module(Recorder())
        assert module.ctx is not None
        assert module.ctx.pid == process.pid

    def test_duplicate_module_id_rejected(self):
        process, _ = make_member()
        process.add_module(Recorder())
        with pytest.raises(SimulationError):
            process.add_module(Recorder())

    def test_module_lookup(self):
        process, _ = make_member()
        module = process.add_module(Recorder())
        assert process.module("rec") is module

    def test_pid_range_checked(self):
        stub = StubNetwork(4)
        with pytest.raises(SimulationError):
            Process(7, stub, ProtocolParams(4, 1), register=False)  # type: ignore[arg-type]

    def test_registration_flag(self):
        stub = StubNetwork(4)
        Process(0, stub, ProtocolParams(4, 1))
        assert 0 in stub.processes
        Process(1, stub, ProtocolParams(4, 1), register=False)
        assert 1 not in stub.processes


class TestRouting:
    def test_routes_by_module_id(self):
        process, _ = make_member()
        a = process.add_module(Recorder("a"))
        b = process.add_module(Recorder("b"))
        process.deliver(2, ("a", "hello"))
        assert a.inbox == [(2, "hello")]
        assert b.inbox == []

    def test_unknown_module_ignored(self):
        process, _ = make_member()
        process.add_module(Recorder("a"))
        process.deliver(1, ("nope", "x"))  # must not raise

    def test_unhashable_module_id_names_no_module(self):
        process, _ = make_member()
        module = process.add_module(Recorder("a"))
        process.deliver(1, (["a"], "x"))  # must not raise
        process.deliver(1, ({"a": 1}, "x"))
        assert module.inbox == []

    def test_unroutable_payload_raises(self):
        process, _ = make_member()
        with pytest.raises(SimulationError):
            process.deliver(1, "bare-string")

    def test_halted_process_drops_everything(self):
        process, _ = make_member()
        module = process.add_module(Recorder())
        process.halt()
        process.deliver(1, ("rec", "late"))
        assert module.inbox == []

    def test_start_fans_out(self):
        process, _ = make_member()
        a = process.add_module(Recorder("a"))
        b = process.add_module(Recorder("b"))
        process.start()
        assert a.started and b.started


class TestContext:
    def test_send_wraps_with_module_id(self):
        process, stub = make_member(pid=2)
        module = process.add_module(Recorder())
        module.ctx.send(3, "payload")
        assert stub.sent == [(2, 3, ("rec", "payload"))]

    def test_broadcast_reaches_everyone_including_self(self):
        process, stub = make_member(n=4, pid=1)
        module = process.add_module(Recorder())
        module.ctx.broadcast("hi")
        assert sorted(d for _s, d, _p in stub.sent) == [0, 1, 2, 3]

    def test_rng_stream_is_per_process(self):
        process_a, stub = make_member(pid=0)
        process_b = Process(1, stub, ProtocolParams(4, 1), register=False)  # type: ignore[arg-type]
        module_a = process_a.add_module(Recorder())
        module_b = process_b.add_module(Recorder())
        seq_a = [module_a.ctx.rng("coin").random() for _ in range(5)]
        seq_b = [module_b.ctx.rng("coin").random() for _ in range(5)]
        assert seq_a != seq_b

    def test_params_exposed(self):
        process, _ = make_member(n=7, t=2)
        module = process.add_module(Recorder())
        assert module.ctx.params.step_quorum == 5


class TestUpcalls:
    def test_emit_reaches_all_subscribers(self):
        module = Recorder()
        got = []
        module.subscribe(got.append)
        module.subscribe(lambda e: got.append(("again", e)))
        module.emit("event")
        assert got == ["event", ("again", "event")]

    def test_emit_without_subscribers_is_noop(self):
        Recorder().emit("event")  # must not raise
