"""An observed message is recorded, not described.

A ``send``/``deliver`` record names its payload object by slot in the
sink's payload table and carries its message id as ints;
:func:`~repro.obs.events.render_records` classifies
(``repr``s) a payload when the record is read, once per payload object
in one read.  So a run makes no classification at all, and the first
read makes one per distinct object: a fan-out's n records and a node's
delivery of the very object it sent share one, while equal-but-distinct
objects (an equivocator's per-destination copies, a runtime node's
decoded deliveries) are each classified on their own.
"""

import io
import json

import pytest

import repro.obs.events as events_module
from repro.obs import Event, JsonlSink, Observer, RingSink
from repro.obs.events import DELIVER, SEND, WIDTH, read_records
from repro.params import ProtocolParams
from repro.runtime.codec import Stamped
from repro.runtime.node import NodeNetwork
from repro.scenario import Scenario, assemble, get_scenario, run
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


@pytest.fixture
def classified(monkeypatch):
    """Every payload the renderer classifies, in order (strong refs, so
    the ids of the list stay distinct)."""
    seen = []
    real = events_module.classify_payload

    def counting(payload):
        seen.append(payload)
        return real(payload)

    monkeypatch.setattr(events_module, "classify_payload", counting)
    return seen


def _payloads(observer):
    """The payload object of each retained message record."""
    sink = observer.sink
    return [r[3] for r in read_records(sink._fields, sink.payloads)
            if len(r) == 5]


# -- (a) a run describes nothing; a read describes each object once -----------

def test_sim_broadcast_is_reprd_once_when_read():
    payload = Counted("first")
    sim, observer, modules = observed_sim(payload)
    sim.start()
    sim.run()
    assert payload.reprs == 0
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


def test_runtime_broadcast_is_reprd_once_when_read():
    payload = Counted("first")
    params = ProtocolParams(N, 2)
    network = NodeNetwork(0, params)
    network.observer = Observer(RingSink())
    Process(0, network, params).add_module(Gossip(payload)).start()
    assert payload.reprs == 0
    assert [e.kind for e in network.observer.events()] == ["send"] * N
    assert payload.reprs == 1
    assert [dest for dest, _ in network.outbox] == list(range(N))
    assert all(
        isinstance(wrapped, Stamped) and wrapped.payload[1] is payload
        for _, wrapped in network.outbox
    )


def _check_a_runtime_run(fabric, classified):
    n = 4
    result = run(Scenario(
        protocol="bracha", fabric=fabric, n=n, proposals=1, seed=29,
        observe="ring",
    ))
    assert classified == []  # the run itself describes nothing
    events = list(result.meta["obs_events"])
    sends = sum(1 for e in events if e.kind == "send")
    delivers = sum(1 for e in events if e.kind == "deliver")
    broadcasts = sends // n
    assert broadcasts * n == sends  # every Bracha send is a broadcast
    # A broadcast's n records hold one object; a peer's delivery is a
    # decoded copy of its own.  A node's own delivery is the very object
    # it sent, so it shares the send's classification.  A message id is
    # "<sender>:<seq>".
    own = sum(1 for e in events if e.kind == "deliver"
              and e.detail["msg"].split(":")[0] == str(e.node))
    assert 0 < own <= broadcasts
    assert len(classified) == broadcasts + delivers - own
    assert len(classified) == len({id(p) for p in classified})


def test_local_fabric_classifies_each_payload_object_once_when_read(classified):
    # The hub round-trips the wire codec, as tcp does.
    _check_a_runtime_run("local", classified)


def test_tcp_fabric_classifies_each_payload_object_once_when_read(classified):
    _check_a_runtime_run("tcp", classified)


def test_benchmark_shape_classifies_once_per_payload_object(classified):
    result = run(Scenario(
        protocol="bracha", fabric="sim", n=7, instances=8, batching="flush",
        seed=1000, observe="ring", profile="on",
    ))
    assert classified == []
    events = result.meta["obs_events"]
    messages = sum(1 for e in events if e.kind in ("send", "deliver"))
    assert messages == 59199
    assert len(classified) == len({id(p) for p in classified}) == 4272


# -- (b) identity, not equality ----------------------------------------------

def test_equal_but_distinct_payloads_are_each_classified():
    observer = Observer(RingSink())
    first, second = Counted("same"), Counted("same")
    assert first == second and first is not second
    observer.message("send", 0, first, time=0.0, mid="0:1")
    observer.message("send", 0, second, time=0.0, mid="0:2")
    observer.message("deliver", 1, first, time=1.0, mid="0:1")
    assert (first.reprs, second.reprs) == (0, 0)
    send, _, deliver = observer.events()
    assert (first.reprs, second.reprs) == (1, 1)
    assert deliver.detail == send.detail == {"msg": "0:1", "payload": "Counted('same')"}
    assert deliver.detail is not send.detail


def test_an_equivocators_copies_are_classified_per_object_on_sim():
    sim, observer, _ = observed_sim(None)
    copies = [Counted("same") for _ in range(N)]
    sim.start()
    for dest, copy in enumerate(copies):
        sim.network.send(0, dest, ("gossip", copy))
    sim.run()
    assert [copy.reprs for copy in copies] == [0] * N
    assert len(list(observer.events())) == 2 * N
    assert [copy.reprs for copy in copies] == [1] * N


def test_records_made_on_the_fly_never_share_a_recycled_id():
    # A generator drops each record once rendered; the memo must keep
    # the payloads it describes, or a new payload at a freed address
    # would be served the old one's classification.
    def records():
        for i in range(100):
            yield (0.0, "send", 0, ("m", 10**6 + i), None)

    events = events_module.render_records(records())
    assert [e.detail for e in events] == [repr(10**6 + i) for i in range(100)]


@pytest.mark.parametrize("name", ["two-faced-equivocator", "fuzzer-storm"])
def test_catalog_byzantine_runs_classify_once_per_payload_object(name, classified):
    # A Byzantine behavior sends one payload n times through
    # ``Network.send``; those records share one classification too.
    assembled = assemble(get_scenario(name).replace(observe="ring"))
    try:
        assembled.run().result()
        objects = {id(p) for p in _payloads(assembled.observer)}
        list(assembled.observer.events())
        assert len(classified) == len(objects)
    finally:
        assembled.close()


# -- (c) the record -------------------------------------------------------------

def test_a_message_record_is_scalars_and_a_payload_slot():
    observer = Observer(RingSink())
    observer.bind_clock(lambda: 2.0)
    payload = ("m", Counted("x"))
    assert observer.message("send", 0, payload, mid="0:1") is None
    sink = observer.sink
    assert list(sink._fields) == [2.0, SEND, 0, id(payload), "0:1", 0]
    assert sink.payloads == {id(payload): payload}
    assert sink.payloads[id(payload)] is payload and payload[1].reprs == 0
    assert read_records(sink._fields, sink.payloads) == [
        (2.0, "send", 0, payload, "0:1")]


def test_a_sim_message_record_formats_its_id_only_when_read():
    sim, observer, _ = observed_sim(Counted("first"))
    sim.start()
    sim.step()
    send = list(observer.sink._fields)[:WIDTH]
    assert send[1:3] == [SEND, 0] and send[4:] == [0, 1]
    deliver = list(observer.sink._fields)[-WIDTH:]
    assert deliver[1] == DELIVER and deliver[4] == 0
    assert all(type(field) in (int, float) for field in send + deliver)
    sink = observer.sink
    (read,) = [r for r in read_records(sink._fields, sink.payloads)
               if r[1] == "deliver"]
    assert read[4] == f"0:{deliver[5]}"


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
    sim.run()
    assert len(network._mids) == 0
    assert [e.kind for e in observer.events()].count("send") == N - 1
    # A dropped send takes no sequence number.
    assert sorted(e.detail["msg"] for e in observer.events()
                  if e.kind == "send") == [f"0:{i}" for i in range(1, N)]


def test_message_sent_before_the_observer_attached_has_no_id():
    sim, observer, _ = observed_sim(None)
    sim.network.observer = None
    payload = Counted("early")
    sim.start()
    sim.network.send(0, 1, ("gossip", payload))
    sim.network.observer = observer
    sim.run()
    (deliver,) = observer.events()
    assert (deliver.kind, deliver.detail) == ("deliver", "Counted('early')")
    assert payload.reprs == 1


# -- (e) the JSONL sink renders in chunks ---------------------------------------

def test_jsonl_chunks_share_a_fan_outs_classification():
    stream = io.StringIO()
    observer = Observer(JsonlSink("unused.jsonl", stream=stream))
    payload = Counted("first")
    for dest in range(N):
        observer.message("send", 0, payload, time=0.0, mid=f"0:{dest + 1}")
    assert stream.getvalue() == "" and payload.reprs == 0
    assert observer.close()["events"] == N
    assert payload.reprs == 1
    rows = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert [row["detail"]["msg"] for row in rows] == [
        f"0:{i}" for i in range(1, N + 1)]


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
