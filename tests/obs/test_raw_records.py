"""Record raw, render on read: the sinks' records, EventLog, span buffers.

A run hands its sink raw records, kept flat — a ``send``/``deliver`` is
six scalars naming its payload by slot in the sink's payload table,
every other event is held whole — and an :class:`~repro.obs.Event` is
built only when someone reads one.  These tests hold the repository to
what that split buys (a message record holds nothing the collector
must visit, an observed run costs the collector little more than an
unobserved one, a bounded ring holds a bounded payload table, and
reading the length renders nothing) and to its contract: whatever is
read is the stream the sinks always produced.  The span buffers the
simulator's step loop fills are held to the histogram one ``stop`` per
value would give.
"""

import gc
import io
import json
import pickle
import random

import pytest

from repro.errors import EventBudgetExceeded
from repro.obs import Event, JsonlSink, Observer, RingSink, load_events
from repro.obs import events as events_module
from repro.obs.events import WIDTH, read_records
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profile import SPAN_BUFFER, SpanProfiler
from repro.scenario import Scenario, assemble, run
from repro.sim.network import Network
from repro.sim.process import Process

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


def test_a_message_record_holds_scalars_only(monkeypatch):
    # A retained message record is six scalars the collector never
    # tracks; the payload it names by slot sits once in the sink's
    # payload table, which holds exactly the object that was sent.
    sent = {}
    fan_out = Network._fan_out

    def spy(network, source, dests, payload):
        sent[id(payload)] = payload
        fan_out(network, source, dests, payload)

    monkeypatch.setattr(Network, "_fan_out", spy)
    assembled = assemble(Scenario(**BRACHA_N7X8, observe="ring"))
    try:
        assembled.run().result()
        sink = assembled.observer.sink
        fields = list(sink._fields)
        records = list(zip(*[iter(fields)] * WIDTH))
        messages = [record for record in records if record[1] is not None]
        assert len(messages) > 50_000
        assert {type(field) for record in messages for field in record} \
            <= {int, float, type(None)}
        assert not any(gc.is_tracked(field) for field in fields
                       if type(field) is not tuple)
        assert {record[3] for record in messages} == set(sink.payloads)
        for slot, payload in sink.payloads.items():
            assert slot == id(payload) and payload is sent[slot]
        # Every other record is an event held whole.
        held = [record for record in records if record[1] is None]
        assert len(held) == len(records) - len(messages) > 0
        assert all(record[2:] == (None,) * 4 for record in held)
    finally:
        assembled.close()


def _gen0_collections(scenario):
    """Gen0 collections the collector starts during ``run(scenario)``."""
    run(scenario)  # warm: imports and first-run caches
    started = []

    def callback(phase, info):
        if phase == "start" and info["generation"] == 0:
            started.append(1)

    gc.collect()
    gc.callbacks.append(callback)
    try:
        run(scenario)
    finally:
        gc.callbacks.remove(callback)
    return len(started)


def test_observing_a_run_adds_little_collector_work():
    # Records of scalars allocate nothing the collector tracks; what an
    # observed run keeps beyond the unobserved one is one payload per
    # fan-out.  (Records that referred to their payloads made it 5.7x.)
    observed = _gen0_collections(Scenario(**BRACHA_N7X8, observe="ring",
                                          profile="on"))
    plain = _gen0_collections(Scenario(**BRACHA_N7X8))
    assert plain > 5
    assert observed <= 2 * plain


def test_a_bounded_ring_holds_a_bounded_payload_table(monkeypatch):
    # A run far longer than the ring: the payload table is pruned every
    # ``capacity`` records and never holds more than ``2 * capacity``
    # payloads, so memory follows the ring, not the run.
    capacity = 1000
    largest = []
    settle = RingSink.settle

    def spy(sink):
        largest.append(len(sink.payloads))
        settle(sink)

    monkeypatch.setattr(RingSink, "settle", spy)
    assembled = assemble(Scenario(**BRACHA_N7X8, observe=f"ring:{capacity}"))
    try:
        assembled.run().result()
        sink = assembled.observer.sink
        assert sink.recorded > 50 * capacity
        assert len(largest) >= sink.recorded // capacity - 1
        assert max(largest) <= 2 * capacity
        assert len(sink.payloads) <= 2 * capacity
        objects = [ref for ref in gc.get_referents(sink._fields)
                   if type(ref) not in (int, float, type(None))]
        assert len(objects) <= capacity  # held records only
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
    ring = observer.sink
    for record in read_records(ring._fields, ring.payloads):
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
    deliver = Process.deliver
    delivered = []

    def failing(process, sender, payload):
        deliver(process, sender, payload)
        delivered.append(sender)
        if len(delivered) == 500:
            raise RuntimeError("stop here")

    # Every node is correct: each delivery reaches ``Process.deliver``.
    monkeypatch.setattr(Process, "deliver", failing)
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


def _log(records):
    """The event log of a closed ring that was handed ``records``."""
    sink = RingSink()
    for record in records:
        sink.emit(record)
    sink.close()
    return sink.events


def test_event_log_is_a_read_only_sequence_equal_to_its_list():
    records = [(float(i), "note", i, None, None, f"d{i}") for i in range(5)]
    log = _log(records)
    expected = [Event(*record) for record in records]
    assert len(log) == 5 and log
    assert log == expected and expected == log
    assert log[0] == expected[0] and log[-1] == expected[-1]
    assert log[1:3] == expected[1:3]
    assert list(log) == expected
    assert list(reversed(log)) == expected[::-1]
    assert expected[2] in log
    assert log.index(expected[3]) == 3
    assert log == _log(records)
    assert log != expected[:4]
    assert pickle.loads(pickle.dumps(log)) == expected
    assert not hasattr(log, "append")
    with pytest.raises(TypeError):
        log[0] = expected[0]


def test_an_empty_event_log_is_falsy_and_equals_the_empty_list():
    assert not _log([])
    assert _log([]) == []
    assert len(Observer(JsonlSink("unused", stream=io.StringIO())).events()) == 0


def test_an_unpickled_event_log_still_renders_on_read(count_renders):
    log = pickle.loads(pickle.dumps(_log([(1.0, "note", None, None, None, None)])))
    assert len(log) == 1 and count_renders == []
    assert log == [Event(1.0, "note")]


def test_a_sealed_ring_ignores_later_writes():
    sink = RingSink(capacity=4)
    sink.emit((1.0, "note", None, None, None, None))
    sink.message(2.0, 0, 1, ("bv", "x"), 1, 1)
    sink.close()
    assert sink.sealed
    sink.emit((3.0, "note", None, None, None, None))
    sink.message(4.0, 1, 2, ("bv", "y"), 1, 1)
    sink.record((5.0, 0, 1, 0, 1, 2))
    sink.named(0, "z", 1)
    assert sink.summary() == {
        "sink": "ring", "events": 2, "retained": 2, "dropped": 0,
    }
    assert [event.time for event in sink.events] == [1.0, 2.0]


def test_a_step_after_result_leaves_no_record():
    sim_run = assemble(Scenario(**SMALL, observe="ring"))
    result = sim_run.run().result()
    sink = sim_run.observer.sink
    before = (sink.recorded, len(sink.payloads), result.meta["obs"])
    assert sim_run.sim.network.observer is None
    assert sim_run.sim.step()
    assert (sink.recorded, len(sink.payloads), sink.summary()) == before
    sim_run.close()


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
    bounds = Histogram().bounds
    rng = random.Random(11)
    values = [2] * 100  # ints, all in one bucket
    values += list(bounds) + list(bounds[::3])  # on the bounds, duplicated
    values += [bounds[0] / 2, 0, bounds[-1] * 2, 7, 7]  # ends, overflow
    values += [rng.choice(bounds) * rng.choice((1, 1 + 1e-12, 1 - 1e-12))
               for _ in range(300)]  # at and either side of a bound
    rng.shuffle(values)
    # One ``stop()`` per value: the clock reads 0, then the value.
    ticks = iter([tick for value in values for tick in (0, value)])
    stopped = SpanProfiler(MetricsRegistry(), clock=lambda: next(ticks))
    for _ in values:
        stopped.stop("work", stopped.start())
    folded = SpanProfiler(MetricsRegistry())
    folded.fold("work", values[:150])
    folded.fold("work", values[150:])
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
