"""``broadcast`` on the fabric networks, and who must not have one.

A ``Broadcast`` effect reaches :class:`~repro.sim.network.Network` and
:class:`~repro.runtime.node.NodeNetwork` as one ``broadcast`` call whose
result is indistinguishable from ``n`` ``send`` calls in pid order.  A
network that filters or records ``send`` (a two-faced process's face, a
scripted attack's recorder, a test double) defines no ``broadcast``, so
:class:`~repro.sim.process.Process` keeps handing it every message.
"""

import pytest

from repro.adversary.behaviors import TwoFacedBehavior, _FaceNet
from repro.adversary.benor_attack import _ScriptNet
from repro.errors import SimulationError
from repro.obs import Observer, RingSink
from repro.params import ProtocolParams
from repro.runtime.node import NodeNetwork
from repro.sim.process import Process, ProtocolModule
from repro.sim.runner import Simulation

N = 7
PAYLOAD = ("gossip", "hello")


class Sink:
    """The least the network registers: a pid that swallows deliveries."""

    def __init__(self, pid):
        self.pid = pid

    def start(self):
        pass

    def deliver(self, sender, payload):
        pass


class Gossip(ProtocolModule):
    """Broadcasts its ``word`` at start and records what it hears."""

    def __init__(self, word=None):
        super().__init__("gossip")
        self.word = word
        self.got = []

    def start(self):
        if self.word is not None:
            self.ctx.broadcast(self.word)

    def on_message(self, sender, payload):
        self.got.append((sender, payload))


# -- Network.broadcast is n sends ---------------------------------------------


def fan_out(use_broadcast, pids=range(N), drop_odd=False, observed=False):
    """One fan-out from pid 1 at virtual time 2.5, by either route; returns
    everything a send leaves behind."""
    sim = Simulation(seed=5)
    net = sim.network
    for pid in pids:
        net.register(Sink(pid))
    hooked = []
    net.bind_send_hook(hooked.append)
    if drop_odd:
        net.outbound_filter = lambda env: env.dest % 2 == 0
    observer = None
    if observed:
        observer = net.observer = Observer(RingSink())
        observer.bind_clock(lambda: sim.now)
    sim.now = 2.5
    error = None
    try:
        if use_broadcast:
            net.broadcast(1, PAYLOAD)
        else:
            for dest in range(len(net.processes)):
                net.send(1, dest, PAYLOAD)
    except SimulationError as exc:
        error = str(exc)
    return {
        "error": error,
        "uid": net._uid,
        "pending": list(sim.pending),
        "hooked": hooked,
        "sent": net.sent,
        "dropped": net.dropped,
        "by_source": {pid: dict(kinds) for pid, kinds in net.sent_by_kind.items()},
        "events": observer.events() if observed else None,
        "mids": dict(net._mids),
    }


@pytest.mark.parametrize("observed", [False, True])
@pytest.mark.parametrize("drop_odd", [False, True])
def test_broadcast_equals_n_sends(drop_odd, observed):
    one = fan_out(True, drop_odd=drop_odd, observed=observed)
    many = fan_out(False, drop_odd=drop_odd, observed=observed)
    assert one == many
    kept = [d for d in range(N) if not (drop_odd and d % 2)]
    assert one["error"] is None
    assert [env.dest for env in one["pending"]] == kept
    assert [env.uid for env in one["pending"]] == [d + 1 for d in kept]
    assert {env.send_time for env in one["pending"]} == {2.5}
    assert one["hooked"] == one["pending"]
    assert one["sent"] == len(kept) and one["dropped"] == N - len(kept)
    assert one["by_source"] == {1: {"gossip/str": len(kept)}}
    if observed:
        assert [e.kind for e in one["events"]] == ["send"] * len(kept)
        assert sorted(one["mids"]) == [env.uid for env in one["pending"]]


@pytest.mark.parametrize("observed", [False, True])
def test_unknown_destination_leaves_the_counters_consistent(observed):
    # Pids 0, 1, 3: three processes, so the fan-out covers 0..2 and
    # trips on the missing pid 2 after two envelopes went out.
    one = fan_out(True, pids=(0, 1, 3), observed=observed)
    many = fan_out(False, pids=(0, 1, 3), observed=observed)
    assert one == many
    assert one["error"] == "send to unknown process 2"
    assert one["uid"] == 2 == one["sent"] == len(one["pending"])
    assert one["by_source"] == {1: {"gossip/str": 2}}


def test_process_hands_a_broadcast_effect_to_the_fabric_network_whole():
    sim = Simulation(seed=1)
    calls = []
    real = sim.network.broadcast

    def spy(source, payload):
        calls.append((source, payload))
        real(source, payload)

    sim.network.broadcast = spy  # before the processes bind their fan-out
    params = ProtocolParams(N, 2)
    modules = [
        Process(pid, sim.network, params).add_module(
            Gossip("hi" if pid == 0 else None))
        for pid in range(N)
    ]
    sim.run()
    assert calls == [(0, ("gossip", "hi"))]
    assert all(m.got == [(0, "hi")] for m in modules)
    assert sim.network.sent == sum(sim.network.delivered.values()) == N


# -- NodeNetwork.broadcast is n sends -------------------------------------------


@pytest.mark.parametrize("observed", [False, True])
def test_node_network_broadcast_equals_n_sends(observed):
    def queue(use_broadcast):
        params = ProtocolParams(N, 2)
        net = NodeNetwork(3, params)
        if observed:
            net.observer = Observer(RingSink())
        if use_broadcast:
            net.broadcast(3, PAYLOAD)
        else:
            for dest in range(N):
                net.send(3, dest, PAYLOAD)
        events = [
            (e.kind, e.node, e.detail) for e in net.observer.events()
        ] if observed else None
        return list(net.outbox), dict(net.sent_by_kind), events

    assert queue(True) == queue(False)
    outbox, by_kind, _ = queue(True)
    assert [dest for dest, _ in outbox] == list(range(N))
    assert by_kind == {"gossip/str": N}


# -- shims see every per-destination send ---------------------------------------


def test_send_filtering_shims_define_no_broadcast(stub4):
    real = Simulation().network
    for shim in (_FaceNet(real, frozenset({0}), "A"), _ScriptNet(0), stub4):
        assert not hasattr(shim, "broadcast")
        assert not hasattr(shim, "__getattr__")
    assert hasattr(real, "broadcast")
    assert hasattr(NodeNetwork(0, ProtocolParams(4, 1)), "broadcast")


def test_a_two_faced_process_shows_each_group_only_its_own_face():
    sim = Simulation(seed=9)
    params = ProtocolParams(4, 1)
    honest = {
        pid: Process(pid, sim.network, params).add_module(Gossip())
        for pid in (0, 1, 2)
    }
    sim.network.register(TwoFacedBehavior(
        3, sim.network, params,
        factory_a=lambda process: process.add_module(Gossip("face-a")),
        factory_b=lambda process: process.add_module(Gossip("face-b")),
        group_a=(0, 1),
    ))
    sim.run()
    assert honest[0].got == honest[1].got == [(3, "face-a")]
    assert honest[2].got == [(3, "face-b")]
    # Four sends survive the faces' filters: a to {0, 1}, b to {2, 3}.
    assert sim.network.sent == 4
