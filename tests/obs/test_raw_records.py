"""Record raw, render on read: the sinks' records, EventLog, span buffers.

A run hands its sink plain tuples — a ``send``/``deliver`` is
``(time, kind, node, payload, mid)``, every other event its six
:class:`~repro.obs.Event` fields — and an ``Event`` is built only when
someone reads one.  These tests hold the repository to what that split
buys (a message record holds nothing the collector must visit but the
object sent, and reading the length renders nothing) and to its
contract: whatever is read is the stream the sinks always produced.  The span
buffers the simulator's step loop fills are held to the histogram one
``stop`` per value would give.
"""

import gc
import io
import json
import pickle
import random

import pytest

from repro.errors import EventBudgetExceeded
from repro.obs import Event, EventLog, JsonlSink, Observer, RingSink, load_events
from repro.obs import events as events_module
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profile import SPAN_BUFFER, SpanProfiler
from repro.scenario import Scenario, assemble, run
from repro.sim.network import Network

#: The sim-bracha-n7x8 benchmark shape, at one of its seeds.
BRACHA_N7X8 = dict(
    protocol="bracha", n=7, instances=8, batching="flush", stop="decided",
    seed=1000,
)

#: Small enough to run often, long enough to overflow a ring of 1000.
SMALL = dict(protocol="bracha", n=4, instances=2, proposals=1, seed=13)


@pytest.fixture
def count_renders(monkeypatch):
    """The records each call of the one renderer was handed, call by call."""
    calls = []
    render = events_module.render_records

    def counted(records):
        records = list(records)
        calls.append(records)
        return render(records)

    monkeypatch.setattr(events_module, "render_records", counted)
    return calls


# -- the garbage collector ----------------------------------------------------


def test_a_message_record_refers_to_the_sent_payload_and_scalars_only(
        monkeypatch):
    # The collector visits a retained message record's referents: the
    # object sent, and nothing made per record — no detail dict, no
    # classification tuple.
    sent = {}
    fan_out = Network._fan_out

    def spy(network, source, dests, payload):
        sent[id(payload)] = payload
        fan_out(network, source, dests, payload)

    monkeypatch.setattr(Network, "_fan_out", spy)
    assembled = assemble(Scenario(**BRACHA_N7X8, observe="ring"))
    try:
        assembled.run().result()
        records = [
            record for record in assembled.observer.sink._events
            if record[1] in ("send", "deliver")
        ]
        assert len(records) > 50_000
        for record in records:
            (payload,) = [
                ref for ref in gc.get_referents(record)
                if ref is not None and type(ref) not in (str, int, float)
            ]
            assert payload is record[3] is sent[id(payload)]
    finally:
        assembled.close()


def test_len_of_obs_events_renders_nothing(count_renders):
    result = run(Scenario(**BRACHA_N7X8, observe="ring"))
    events = result.meta["obs_events"]
    assert len(events) == result.meta["obs"]["retained"] > 50_000
    assert events
    assert count_renders == []
    assert events[0].kind in ("send", "note")
    assert [len(records) for records in count_renders] == [len(events)]
    list(events)
    events[-1]
    assert len(count_renders) == 1  # rendered once, kept


# -- the renderer ---------------------------------------------------------------


def _observed_records():
    """One of each record shape, through a ring observer."""
    observer = Observer(RingSink())
    observer.bind_clock(lambda: 2.5)
    payload = ("bv", "x")
    observer.message("send", 1, payload, mid="1:1")
    observer.message("deliver", 2, payload, time=3.0, mid="1:1")
    observer.message("deliver", 2, "bare")
    for mid in ("0:1", "0:2"):
        observer.message("send", 0, ("bv", "y"), time=1.0, mid=mid)
    observer.emit("decide", node=2, instance="bv", detail=1)
    observer.emit("note", detail={"k": [1, 2]})
    return observer


def test_render_records_builds_the_events_the_observer_always_made():
    observer = _observed_records()
    assert list(observer.events()) == [
        Event(2.5, "send", 1, "bv", None,
              {"msg": "1:1", "payload": "'x'"}),
        Event(3.0, "deliver", 2, "bv", None,
              {"msg": "1:1", "payload": "'x'"}),
        Event(2.5, "deliver", 2, None, None, "'bare'"),
        Event(1.0, "send", 0, "bv", None, {"msg": "0:1", "payload": "'y'"}),
        Event(1.0, "send", 0, "bv", None, {"msg": "0:2", "payload": "'y'"}),
        Event(2.5, "decide", 2, "bv", None, 1),
        Event(2.5, "note", None, None, None, {"k": [1, 2]}),
    ]
    assert all(type(event) is Event for event in observer.events())


def test_an_event_emitted_into_a_sink_comes_back_as_itself():
    # The mp orchestrator replays the nodes' shipped events this way.
    event = Event(0.5, "send", 1, "bv", 2, {"msg": "1:1", "payload": "m"})
    sink = RingSink()
    sink.emit(event)
    assert sink.events[0] is event


def test_jsonl_sink_renders_every_record_shape_to_its_to_dict_line():
    observer = _observed_records()
    stream = io.StringIO()
    sink = JsonlSink("unused.jsonl", stream=stream)
    for record in observer.sink._events:
        sink.emit(record)
    sink.emit(Event(4.0, "frame", 3, detail={"n": 2}))
    sink.close()  # writes the tail chunk; the stream is the caller's
    expected = [e.to_dict() for e in observer.events()] + [
        {"t": 4.0, "kind": "frame", "node": 3, "detail": {"n": 2}}
    ]
    assert stream.getvalue() == "".join(
        json.dumps(row, sort_keys=True) + "\n" for row in expected
    )


def test_a_sim_run_that_raises_still_writes_its_whole_trace(
        tmp_path, monkeypatch):
    # The JSONL sink renders in chunks; the records of a run that dies
    # between two chunks reach the file all the same.
    deliver = Network.deliver
    delivered = []

    def failing(network, rank, time):
        deliver(network, rank, time)
        delivered.append(rank)
        if len(delivered) == 500:
            raise RuntimeError("stop here")

    monkeypatch.setattr(Network, "deliver", failing)
    path = tmp_path / "trace.jsonl"
    with pytest.raises(RuntimeError, match="stop here"):
        run(Scenario(**SMALL, observe=f"jsonl:{path}"))
    kinds = [event.kind for event in load_events(path)]
    assert kinds.count("deliver") == 500


def test_the_to_dict_rows_a_node_ships_are_unchanged():
    # What mp's noderunner sends the orchestrator: one row per event.
    rows = [event.to_dict() for event in _observed_records().events()]
    assert rows == [
        {"t": 2.5, "kind": "send", "node": 1, "inst": "bv",
         "detail": {"msg": "1:1", "payload": "'x'"}},
        {"t": 3.0, "kind": "deliver", "node": 2, "inst": "bv",
         "detail": {"msg": "1:1", "payload": "'x'"}},
        {"t": 2.5, "kind": "deliver", "node": 2, "detail": "'bare'"},
        {"t": 1.0, "kind": "send", "node": 0, "inst": "bv",
         "detail": {"msg": "0:1", "payload": "'y'"}},
        {"t": 1.0, "kind": "send", "node": 0, "inst": "bv",
         "detail": {"msg": "0:2", "payload": "'y'"}},
        {"t": 2.5, "kind": "decide", "node": 2, "inst": "bv", "detail": 1},
        {"t": 2.5, "kind": "note", "detail": {"k": [1, 2]}},
    ]


def test_mp_orchestrator_replays_rendered_events_into_the_sink():
    result = run(Scenario(**SMALL, fabric="mp", observe="ring"))
    events = result.meta["obs_events"]
    assert len(events) == result.meta["obs"]["events"] > 0
    assert all(type(event) is Event for event in events)
    sends = [event for event in events if event.kind == "send"]
    assert sends and all(
        set(event.detail) == {"msg", "payload"} for event in sends
    )


# -- EventLog -------------------------------------------------------------------


def test_event_log_is_a_read_only_sequence_equal_to_its_list():
    records = [(float(i), "note", i, None, None, f"d{i}") for i in range(5)]
    log = EventLog(records)
    expected = [Event(*record) for record in records]
    assert len(log) == 5 and log
    assert log == expected and expected == log
    assert log[0] == expected[0] and log[-1] == expected[-1]
    assert log[1:3] == expected[1:3]
    assert list(log) == expected
    assert list(reversed(log)) == expected[::-1]
    assert expected[2] in log
    assert log.index(expected[3]) == 3
    assert log == EventLog(records)
    assert log != expected[:4]
    assert pickle.loads(pickle.dumps(log)) == expected
    assert not hasattr(log, "append")
    with pytest.raises(TypeError):
        log[0] = expected[0]


def test_an_empty_event_log_is_falsy_and_equals_the_empty_list():
    assert not EventLog()
    assert EventLog() == []
    assert len(Observer(JsonlSink("unused", stream=io.StringIO())).events()) == 0


def test_an_unpickled_event_log_still_renders_on_read(count_renders):
    record = (1.0, "note", None, None, None, None)
    log = pickle.loads(pickle.dumps(EventLog([record])))
    assert len(log) == 1 and count_renders == []
    assert log == [Event(1.0, "note")]


def test_a_bounded_ring_holds_the_tail_of_the_unbounded_one():
    full = run(Scenario(**SMALL, observe="ring"))
    tail = run(Scenario(**SMALL, observe="ring:1000"))
    total = full.meta["obs"]["events"]
    assert total > 1000
    assert tail.meta["obs_events"] == list(full.meta["obs_events"])[-1000:]
    assert full.meta["obs"] == {
        "sink": "ring", "events": total, "retained": total, "dropped": 0,
    }
    assert tail.meta["obs"] == {
        "sink": "ring", "events": total, "retained": 1000,
        "dropped": total - 1000,
    }


def test_evicted_records_are_never_rendered(count_renders):
    sink = RingSink(capacity=3)
    for i in range(10):
        sink.emit((float(i), "note", None, None, None, None))
    assert [event.time for event in sink.events] == [7.0, 8.0, 9.0]
    assert [[record[0] for record in records] for records in count_renders] \
        == [[7.0, 8.0, 9.0]]


# -- span buffers ---------------------------------------------------------------


def _fields(histogram):
    return (histogram.counts, histogram.count, histogram.total,
            histogram.minimum, histogram.maximum)


def test_folding_a_buffer_equals_recording_each_value():
    rng = random.Random(5)
    values = [rng.expovariate(1e4) for _ in range(3000)]
    values += [0.0, 0.0, 1e-9, 500.0, values[7]]  # edges, overflow, a tie
    one_by_one = Histogram()
    for value in values:
        one_by_one.record(value)
    registry = MetricsRegistry()
    profiler = SpanProfiler(registry)
    buffer = list(values[:1000])
    profiler.fold("work", buffer)
    assert buffer == []  # emptied for reuse
    profiler.fold("work", list(values[1000:]))
    profiler.fold("work", [])
    assert _fields(registry.histogram("span_work")) == _fields(one_by_one)


def test_folding_equals_one_stop_per_value():
    ticks = iter(range(0, 4000, 2))
    stopped = SpanProfiler(MetricsRegistry(), clock=lambda: next(ticks))
    for _ in range(100):
        stopped.stop("work", stopped.start())
    folded = SpanProfiler(MetricsRegistry())
    folded.fold("work", [2] * 100)
    assert _fields(folded.registry.histogram("span_work")) == _fields(
        stopped.registry.histogram("span_work")
    )


def test_an_exhausted_profiled_run_records_one_span_per_step():
    assembled = assemble(
        Scenario(**SMALL, profile="on", max_steps=500)
    )
    try:
        assembled.run()
        assert isinstance(assembled.exhausted, EventBudgetExceeded)
        steps = assembled.sim.steps
        assert steps == 500
        registry = assembled.registry
        assert registry.histogram("span_sim_step").count == steps
        assert registry.histogram("span_sim_deliver").count == steps
    finally:
        assembled.close()


def test_a_step_buffer_never_grows_past_its_size(monkeypatch):
    folded = []
    fold = SpanProfiler.fold

    def spy(self, name, durations):
        folded.append(len(durations))
        fold(self, name, durations)

    monkeypatch.setattr(SpanProfiler, "fold", spy)
    assembled = assemble(Scenario(**BRACHA_N7X8, profile="on"))
    try:
        assembled.run()
        steps = assembled.sim.steps
        assert steps > 5 * SPAN_BUFFER
        assert max(folded) == SPAN_BUFFER
        assert sum(folded) == 2 * steps
        assert assembled.registry.histogram("span_sim_step").count == steps
    finally:
        assembled.close()
