"""What an observed message shares, and what it must not.

A payload *object* is classified (``repr``'d) once: a fan-out hands the
classification of its first send back for the other n - 1, and the
classification travels with the message id to the delivery of the very
object classified — on the simulator through the ``uid -> (mid,
classification)`` side table, on a runtime node through its table of
self-addressed sends.  Sharing is by identity only — equal-but-distinct
objects (an equivocator's per-destination copies, a runtime node's
decoded deliveries) are each classified on their own.
"""

import pytest

import repro.obs.observer as observer_module
from repro.obs import Event, Observer, RingSink
from repro.params import ProtocolParams
from repro.runtime.codec import Stamped
from repro.runtime.node import NodeNetwork
from repro.scenario import Scenario, run
from repro.sim.process import Process, ProtocolModule
from repro.sim.runner import Simulation

N = 7


class Counted:
    """A payload whose ``repr`` counts its calls; equal by ``tag``."""

    def __init__(self, tag):
        self.tag = tag
        self.reprs = 0

    def __repr__(self):
        self.reprs += 1
        return f"Counted({self.tag!r})"

    def __eq__(self, other):
        return isinstance(other, Counted) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)


class Gossip(ProtocolModule):
    """Broadcasts ``first`` at start; with ``replies``, answers it once."""

    def __init__(self, first=None, replies=False):
        super().__init__("gossip")
        self.first = first
        self.replies = replies
        self.got = []

    def start(self):
        if self.first is not None:
            self.ctx.broadcast(self.first)

    def on_message(self, sender, payload):
        self.got.append(payload)
        if self.replies and payload.tag == "first":
            self.ctx.broadcast(Counted(("reply", self.ctx.pid)))


def observed_sim(first, replies=False):
    sim = Simulation(seed=3)
    observer = Observer(RingSink())
    observer.bind_clock(lambda: sim.now)
    sim.network.observer = observer
    params = ProtocolParams(N, 2)
    modules = []
    for pid in range(N):
        module = Gossip(first if pid == 0 else None, replies)
        modules.append(Process(pid, sim.network, params).add_module(module))
    return sim, observer, modules


# -- (a) one broadcast, one repr ---------------------------------------------

def test_sim_broadcast_is_reprd_once_across_its_sends_and_delivers():
    payload = Counted("first")
    sim, observer, modules = observed_sim(payload)
    sim.start()
    sim.run_to_quiescence()
    events = observer.events()
    assert [e.kind for e in events].count("send") == N
    assert [e.kind for e in events].count("deliver") == N
    assert payload.reprs == 1
    assert {e.detail["payload"] for e in events} == {"Counted('first')"}
    assert all(m.got == [payload] for m in modules)
    # every deliver carries the id of the send that caused it
    sends = {e.detail["msg"] for e in events if e.kind == "send"}
    assert sends == {e.detail["msg"] for e in events if e.kind == "deliver"}
    assert len(sends) == N


def test_runtime_broadcast_is_reprd_once_at_the_sender():
    payload = Counted("first")
    params = ProtocolParams(N, 2)
    network = NodeNetwork(0, params)
    network.observer = Observer(RingSink())
    Process(0, network, params).add_module(Gossip(payload)).start()
    assert payload.reprs == 1
    assert [e.kind for e in network.observer.events()] == ["send"] * N
    assert [dest for dest, _ in network.outbox] == list(range(N))
    assert all(
        isinstance(wrapped, Stamped) and wrapped.payload[1] is payload
        for _, wrapped in network.outbox
    )


def _classifications_of_a_runtime_run(fabric, monkeypatch):
    classified = []
    real = observer_module.classify_payload

    def counting(payload):
        classified.append(payload)  # strong refs: ids stay distinct
        return real(payload)

    monkeypatch.setattr(observer_module, "classify_payload", counting)
    n = 4
    result = run(Scenario(
        protocol="bracha", fabric=fabric, n=n, proposals=1, seed=29,
        observe="ring",
    ))
    events = result.meta["obs_events"]
    sends = sum(1 for e in events if e.kind == "send")
    delivers = sum(1 for e in events if e.kind == "deliver")
    broadcasts = sends // n
    assert broadcasts * n == sends  # every Bracha send is a broadcast
    # A broadcast is classified once for its n sends, and a peer's
    # delivery, a decoded copy, on its own.  A node's own delivery is the
    # very object it sent and keeps the classification made at send.  A
    # message id is "<sender>:<seq>".
    own = sum(1 for e in events if e.kind == "deliver"
              and e.detail["msg"].split(":")[0] == str(e.node))
    assert 0 < own <= broadcasts
    assert len(classified) == broadcasts + delivers - own
    assert len(classified) == len({id(p) for p in classified})


def test_local_fabric_classifies_a_broadcast_once_at_the_sender(monkeypatch):
    # The hub round-trips the wire codec, as tcp does.
    _classifications_of_a_runtime_run("local", monkeypatch)


def test_tcp_fabric_classifies_a_broadcast_once_at_the_sender(monkeypatch):
    _classifications_of_a_runtime_run("tcp", monkeypatch)


def test_benchmark_shape_classifies_once_per_payload_object(monkeypatch):
    classified = []
    real = observer_module.classify_payload

    def counting(payload):
        classified.append(payload)  # strong refs: ids stay distinct
        return real(payload)

    monkeypatch.setattr(observer_module, "classify_payload", counting)
    result = run(Scenario(
        protocol="bracha", fabric="sim", n=7, instances=8, batching="flush",
        seed=1000, observe="ring", profile="on",
    ))
    events = result.meta["obs_events"]
    messages = sum(1 for e in events if e.kind in ("send", "deliver"))
    assert messages == 59199  # one classification each before sharing
    assert len(classified) == len({id(p) for p in classified}) == 4272


# -- (b) identity, not equality ----------------------------------------------

def test_equal_but_distinct_payloads_are_each_classified():
    observer = Observer(RingSink())
    first, second = Counted("same"), Counted("same")
    assert first == second and first is not second
    observer.message("send", 0, first, time=0.0, mid="0:1")
    observer.message("send", 0, second, time=0.0, mid="0:2")
    assert (first.reprs, second.reprs) == (1, 1)


def test_an_equivocators_copies_are_classified_per_object_on_sim():
    sim, observer, _ = observed_sim(None)
    copies = [Counted("same") for _ in range(N)]
    sim.start()
    for dest, copy in enumerate(copies):
        sim.network.send(0, dest, ("gossip", copy))
    sim.run_to_quiescence()
    assert [copy.reprs for copy in copies] == [1] * N
    assert len(observer.events()) == 2 * N


# -- (c) a handed-back classification ----------------------------------------

def test_a_handed_back_classification_is_used_as_is():
    observer = Observer(RingSink())
    payload = Counted("x")
    classified = observer.message("send", 0, ("m", payload), time=0.0, mid="0:1")
    assert classified == ("m", None, "Counted('x')")
    observer.message("send", 0, Counted("other"), time=0.0)
    observer.message(
        "deliver", 1, ("m", payload), time=1.0, mid="0:1",
        classified=classified,
    )
    assert payload.reprs == 1
    send, _, deliver = observer.events()
    assert deliver.detail == send.detail == {"msg": "0:1", "payload": "Counted('x')"}
    assert deliver.detail is not send.detail
    assert (deliver.instance, deliver.round) == ("m", None)


# -- (d) the uid side table tracks the pending set ---------------------------

def test_side_table_tracks_pending_at_every_step():
    sim, _, _ = observed_sim(Counted("first"), replies=True)
    network = sim.network
    sim.start()
    assert len(network._mids) == len(network.pending) == N
    steps = 0
    while sim.step():
        steps += 1
        assert len(network._mids) == len(network.pending)
    assert steps == N + N * N
    assert len(network._mids) == 0


def test_filtered_message_leaves_no_side_table_entry():
    sim, observer, _ = observed_sim(Counted("first"))
    network = sim.network
    network.outbound_filter = lambda env: env.dest != N - 1
    sim.start()
    assert len(network._mids) == len(network.pending) == N - 1
    assert network.dropped == 1
    sim.run_to_quiescence()
    assert len(network._mids) == 0
    assert [e.kind for e in observer.events()].count("send") == N - 1


def test_message_sent_before_the_observer_attached_is_classified_at_deliver():
    sim, observer, _ = observed_sim(None)
    sim.network.observer = None
    payload = Counted("early")
    sim.start()
    sim.network.send(0, 1, ("gossip", payload))
    sim.network.observer = observer
    sim.run_to_quiescence()
    (deliver,) = observer.events()
    assert (deliver.kind, deliver.detail) == ("deliver", "Counted('early')")
    assert payload.reprs == 1


# -- (e) the record -----------------------------------------------------------

def test_event_is_immutable_keyword_constructible_and_round_trips():
    event = Event(time=1.5, kind="send", node=2, instance="rbc", round=3,
                  detail={"msg": "2:1", "payload": "m"})
    with pytest.raises(AttributeError):
        event.kind = "x"
    with pytest.raises(AttributeError):
        event.extra = 1
    assert Event.from_dict(event.to_dict()) == event
    assert Event(1.5, "send", 2, "rbc", 3, {"msg": "2:1", "payload": "m"}) == event
    assert Event(time=0.0, kind="frame") == Event(0.0, "frame", None, None, None, None)
    assert event != Event(time=1.5, kind="deliver", node=2, instance="rbc",
                          round=3, detail=event.detail)


def test_emit_and_message_build_the_same_record():
    observer = Observer(RingSink())
    observer.bind_clock(lambda: 4.0)
    observer.emit("send", node=1, instance="m", round=None, detail="5")
    observer.message("send", 1, ("m", 5))
    by_emit, by_message = observer.events()
    assert by_emit == by_message == Event(
        time=4.0, kind="send", node=1, instance="m", detail="5"
    )
