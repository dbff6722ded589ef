"""FIFO transport: in-order release over an out-of-order network."""

from repro.net.links import FifoPacket, FifoTransport

from ..conftest import make_member


def make_transport(pid=0):
    process, stub = make_member(pid=pid)
    transport = process.add_module(FifoTransport())
    received = []
    transport.register_consumer("app", lambda s, p: received.append((s, p)))
    return transport, received, stub


class TestSending:
    def test_sequence_numbers_increase_per_destination(self):
        transport, _received, stub = make_transport()
        transport.send_via(1, "app", "a")
        transport.send_via(1, "app", "b")
        transport.send_via(2, "app", "c")
        packets = [p for _s, _d, (_m, p) in stub.sent]
        assert [(p.seq, p.inner) for p in packets] == [(0, "a"), (1, "b"), (0, "c")]

    def test_broadcast_via_reaches_all(self):
        transport, _received, stub = make_transport()
        transport.broadcast_via("app", "x")
        assert sorted(d for _s, d, _p in stub.sent) == [0, 1, 2, 3]


class TestReceiving:
    def test_in_order_delivery_immediate(self):
        transport, received, _ = make_transport()
        transport.on_message(1, FifoPacket(0, "app", "a"))
        transport.on_message(1, FifoPacket(1, "app", "b"))
        assert received == [(1, "a"), (1, "b")]

    def test_out_of_order_held_back(self):
        transport, received, _ = make_transport()
        transport.on_message(1, FifoPacket(1, "app", "b"))
        assert received == []
        assert transport.buffered(1) == 1
        transport.on_message(1, FifoPacket(0, "app", "a"))
        assert received == [(1, "a"), (1, "b")]
        assert transport.buffered(1) == 0

    def test_long_reorder_window(self):
        transport, received, _ = make_transport()
        for seq in (4, 2, 3, 1):
            transport.on_message(1, FifoPacket(seq, "app", seq))
        assert received == []
        transport.on_message(1, FifoPacket(0, "app", 0))
        assert [p for _s, p in received] == [0, 1, 2, 3, 4]

    def test_duplicate_and_replay_dropped(self):
        transport, received, _ = make_transport()
        transport.on_message(1, FifoPacket(0, "app", "a"))
        transport.on_message(1, FifoPacket(0, "app", "a-again"))
        assert received == [(1, "a")]

    def test_per_sender_independence(self):
        transport, received, _ = make_transport()
        transport.on_message(1, FifoPacket(1, "app", "late"))
        transport.on_message(2, FifoPacket(0, "app", "other"))
        assert received == [(2, "other")]

    def test_garbage_ignored(self):
        transport, received, _ = make_transport()
        transport.on_message(1, "not-a-packet")
        assert received == []

    def test_unknown_consumer_tag_dropped(self):
        transport, received, _ = make_transport()
        transport.on_message(1, FifoPacket(0, "other-app", "x"))
        assert received == []

    def test_duplicate_consumer_registration_rejected(self):
        transport, _received, _ = make_transport()
        try:
            transport.register_consumer("app", lambda s, p: None)
            raised = False
        except ValueError:
            raised = True
        assert raised


class TestEndToEnd:
    def test_fifo_survives_adversarial_reordering(self):
        """Wire two transports through a real sim with random scheduling."""
        from repro.params import ProtocolParams
        from repro.sim.process import Process
        from repro.sim.runner import Simulation

        sim = Simulation(seed=13)
        params = ProtocolParams(2, 0)
        received = []
        transports = []
        for pid in range(2):
            process = Process(pid, sim.network, params)
            transport = process.add_module(FifoTransport())
            transport.register_consumer(
                "app", lambda s, p, pid=pid: received.append((pid, s, p))
            )
            transports.append(transport)
        sim.start()
        for i in range(20):
            transports[0].send_via(1, "app", i)
        sim.run()
        assert [p for (pid, _s, p) in received if pid == 1] == list(range(20))
