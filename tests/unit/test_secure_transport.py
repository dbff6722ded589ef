"""SecureTransport: MAC enforcement without trusting the simulator."""

from repro.net.auth import KeyRing
from repro.net.secure import SealedPacket, SecureTransport

from ..conftest import make_member


def build(pid=0, n=4, ring=None):
    ring = ring or KeyRing(n, master_secret=b"s")
    process, stub = make_member(n=n, pid=pid)
    transport = process.add_module(SecureTransport.for_ring(ring, pid))
    received = []
    transport.register_consumer("app", lambda s, p: received.append((s, p)))
    return transport, received, stub, ring


class TestSealing:
    def test_send_produces_sealed_packet(self):
        transport, _received, stub, _ring = build()
        transport.send_via(2, "app", "hello")
        (_s, dest, (_mod, packet)) = stub.sent[0]
        assert dest == 2
        assert isinstance(packet, SealedPacket)
        assert packet.source == 0 and packet.inner == "hello"

    def test_broadcast_seals_per_destination(self):
        transport, _received, stub, _ring = build()
        transport.broadcast_via("app", "x")
        macs = {packet.mac for _s, _d, (_m, packet) in stub.sent}
        assert len(macs) == 4  # per-link keys: every tag differs


class TestVerification:
    def test_round_trip(self):
        ring = KeyRing(4, master_secret=b"s")
        sender, _r1, sender_stub, _ = build(pid=1, ring=ring)
        receiver, received, _stub, _ = build(pid=2, ring=ring)
        sender.send_via(2, "app", {"k": 1})
        (_s, _d, (_m, packet)) = sender_stub.sent[0]
        receiver.on_message(1, packet)
        assert received == [(1, {"k": 1})]
        assert receiver.accepted == 1 and receiver.rejected == 0

    def test_forged_source_rejected(self):
        """p3 seals with its own keys but claims to be p0."""
        ring = KeyRing(4, master_secret=b"s")
        byzantine, _r, byz_stub, _ = build(pid=3, ring=ring)
        receiver, received, _stub, _ = build(pid=2, ring=ring)
        byzantine.send_via(2, "app", "evil")
        (_s, _d, (_m, packet)) = byz_stub.sent[0]
        forged = SealedPacket(0, packet.tag, packet.inner, packet.mac)
        receiver.on_message(3, forged)
        assert received == []
        assert receiver.rejected == 1

    def test_tampered_payload_rejected(self):
        ring = KeyRing(4, master_secret=b"s")
        sender, _r, sender_stub, _ = build(pid=1, ring=ring)
        receiver, received, _stub, _ = build(pid=2, ring=ring)
        sender.send_via(2, "app", "original")
        (_s, _d, (_m, packet)) = sender_stub.sent[0]
        tampered = SealedPacket(packet.source, packet.tag, "changed", packet.mac)
        receiver.on_message(1, tampered)
        assert received == [] and receiver.rejected == 1

    def test_redirected_packet_rejected(self):
        """A packet sealed for p2 must not verify at p3."""
        ring = KeyRing(4, master_secret=b"s")
        sender, _r, sender_stub, _ = build(pid=1, ring=ring)
        wrong_receiver, received, _stub, _ = build(pid=3, ring=ring)
        sender.send_via(2, "app", "routed")
        (_s, _d, (_m, packet)) = sender_stub.sent[0]
        wrong_receiver.on_message(1, packet)
        assert received == [] and wrong_receiver.rejected == 1

    def test_garbage_rejected(self):
        receiver, received, _stub, _ = build(pid=2)
        receiver.on_message(1, "not-a-packet")
        assert received == [] and receiver.rejected == 1

    def test_unknown_consumer_tag_verified_but_unconsumed(self):
        ring = KeyRing(4, master_secret=b"s")
        sender, _r, sender_stub, _ = build(pid=1, ring=ring)
        receiver, received, _stub, _ = build(pid=2, ring=ring)
        sender.send_via(2, "other", "x")
        (_s, _d, (_m, packet)) = sender_stub.sent[0]
        receiver.on_message(1, packet)
        assert received == [] and receiver.accepted == 1


class TestEndToEnd:
    def test_protocol_over_secure_links(self):
        """Two processes exchange over the simulator with MACs enforced."""
        from repro.params import ProtocolParams
        from repro.sim.process import Process
        from repro.sim.runner import Simulation

        ring = KeyRing(2, master_secret=b"e2e")
        sim = Simulation(seed=3)
        params = ProtocolParams(2, 0)
        inboxes = {0: [], 1: []}
        transports = []
        for pid in range(2):
            process = Process(pid, sim.network, params)
            transport = process.add_module(SecureTransport.for_ring(ring, pid))
            transport.register_consumer(
                "chat", lambda s, p, pid=pid: inboxes[pid].append((s, p))
            )
            transports.append(transport)
        sim.start()
        for i in range(5):
            transports[0].send_via(1, "chat", f"m{i}")
        sim.run()
        # The network may reorder (SecureTransport adds authentication,
        # not FIFO — compose with FifoTransport for that).
        assert {p for _s, p in inboxes[1]} == {f"m{i}" for i in range(5)}
        assert transports[1].rejected == 0
