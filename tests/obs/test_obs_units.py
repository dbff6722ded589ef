"""Unit tests for the observability primitives.

Covers the pieces in isolation: the Event schema and its JSONL
round-trip, payload classification, the metrics registry (counters,
gauges, histogram quantiles), the sinks (ring truncation accounting,
JSONL file round-trip, loader validation), the observe-spec parser, the
report tables, and the perf-trajectory emitter + floor checker.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import (
    Event,
    Histogram,
    JsonlSink,
    MetricsRegistry,
    MetricsSnapshot,
    Observer,
    RingSink,
    build_observer,
    classify_payload,
    load_events,
    parse_observe,
    render_events,
)
from repro.obs.bench import bench_path, emit_bench, load_bench
from repro.obs.check_floors import check, load_floors, seed_floors
from repro.obs.report import (
    CausalDag,
    decision_latency_table,
    render_report,
    round_timing_table,
)


# -- events ------------------------------------------------------------------

def test_event_dict_round_trip_drops_nothing():
    event = Event(time=1.25, kind="send", node=2, instance="rbc",
                  round=3, detail="payload")
    data = event.to_dict()
    assert data == {"t": 1.25, "kind": "send", "node": 2, "inst": "rbc",
                    "round": 3, "detail": "payload"}
    assert Event.from_dict(data) == event


def test_event_dict_omits_none_fields():
    assert Event(time=0.0, kind="frame").to_dict() == {"t": 0.0, "kind": "frame"}


def test_event_logical_strips_time_only():
    a = Event(time=1.0, kind="decide", node=0, instance="c", round=2, detail=1)
    b = Event(time=9.0, kind="decide", node=0, instance="c", round=2, detail=1)
    assert a.logical() == b.logical()
    assert a.logical() != Event(time=1.0, kind="decide", node=1).logical()


def test_classify_payload_extracts_routed_round():
    class Vote:
        round = 4

    instance, round_, detail = classify_payload(("benor", Vote()))
    assert (instance, round_) == ("benor", 4)
    assert "Vote" in detail


def test_classify_payload_extracts_broadcast_instance_tuple():
    class Msg:
        instance = ("consensus", 2, 1, 0)

    instance, round_, _detail = classify_payload(("rbc", Msg()))
    assert (instance, round_) == ("consensus", 2)


def test_classify_payload_degrades_gracefully():
    assert classify_payload(12345) == (None, None, "12345")


# -- metrics -----------------------------------------------------------------

def test_registry_counters_gauges_histograms_snapshot():
    registry = MetricsRegistry()
    registry.count("frames")
    registry.count("frames", 4)
    registry.gauge("ratio", 2.5)
    for value in (0.01, 0.02, 0.04):
        registry.observe("latency", value)
    snap = registry.snapshot()
    assert snap.counter("frames") == 5
    assert snap.gauges["ratio"] == 2.5
    hist = snap.histogram("latency")
    assert hist["count"] == 3
    assert hist["min"] == pytest.approx(0.01)
    assert hist["max"] == pytest.approx(0.04)
    # JSON-serializable end to end, and reload preserves reads.
    reloaded = MetricsSnapshot.from_dict(json.loads(json.dumps(snap.to_dict())))
    assert reloaded.counter("frames") == 5
    assert reloaded.quantile("latency", "p50") == pytest.approx(
        snap.quantile("latency", "p50")
    )


def test_histogram_quantiles_clamped_to_observed_range():
    hist = Histogram()
    for value in (0.010, 0.011, 0.012, 0.013):
        hist.record(value)
    for q in (0.5, 0.95, 0.99):
        assert 0.010 <= hist.quantile(q) <= 0.013
    assert hist.mean == pytest.approx(0.0115)
    assert Histogram().quantile(0.99) == 0.0


def test_histogram_rejects_bad_bounds_and_quantiles():
    with pytest.raises(ConfigError):
        Histogram(bounds=[2.0, 1.0])
    with pytest.raises(ConfigError):
        Histogram().quantile(1.5)


# -- sinks -------------------------------------------------------------------

def test_ring_sink_counts_evictions():
    sink = RingSink(capacity=3)
    for i in range(5):
        sink.emit(Event(time=float(i), kind="note"))
    assert [e.time for e in sink.events] == [2.0, 3.0, 4.0]
    summary = sink.summary()
    assert summary["events"] == 5
    assert summary["retained"] == 3
    assert summary["dropped"] == 2


@pytest.mark.parametrize("capacity", [1, 4])
def test_ring_sink_drops_exactly_what_exceeds_its_capacity(capacity):
    sink = RingSink(capacity=capacity)
    for i in range(capacity):
        sink.emit(Event(time=float(i), kind="note"))
        assert sink.summary()["dropped"] == 0
    assert sink.summary()["retained"] == capacity
    for k in range(1, 2 * capacity + 2):
        sink.emit(Event(time=float(capacity + k), kind="note"))
        summary = sink.summary()
        assert summary["dropped"] == k
        assert summary["retained"] == capacity
        assert summary["events"] == capacity + k
        assert sink.events[-1].time == float(capacity + k)


def test_ring_sink_rejects_nonpositive_capacity():
    with pytest.raises(ConfigError):
        RingSink(capacity=0)


def test_jsonl_sink_round_trips_and_creates_directories(tmp_path):
    path = tmp_path / "nested" / "trace.jsonl"
    sink = JsonlSink(path)
    events = [
        Event(time=0.5, kind="send", node=1, instance="rbc", detail="m"),
        Event(time=0.75, kind="decide", node=1, detail=1),
    ]
    for event in events:
        sink.emit(event)
    sink.close()
    assert load_events(path) == events
    assert sink.summary()["events"] == 2


def test_jsonl_sink_writes_each_event_as_one_whole_line():
    class Stream:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    stream = Stream()
    sink = JsonlSink("unused.jsonl", stream=stream)
    sink.emit(Event(time=0.5, kind="send", node=1, detail="m"))
    sink.emit(Event(time=0.75, kind="decide", node=1, detail=1))
    sink.close()  # the sink renders in chunks; close writes the tail
    assert stream.writes == [
        '{"detail": "m", "kind": "send", "node": 1, "t": 0.5}\n',
        '{"detail": 1, "kind": "decide", "node": 1, "t": 0.75}\n',
    ]


def test_jsonl_sink_closes_its_file_when_the_tail_fails_to_render(tmp_path):
    # Records are rendered at close: a detail JSON cannot encode raises
    # there, and the file is closed all the same.
    sink = JsonlSink(tmp_path / "trace.jsonl")
    sink.emit((0.0, "note", None, None, None, object()))
    handle = sink._stream
    with pytest.raises(TypeError):
        sink.close()
    assert handle.closed


def test_load_events_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "send", "t": 1.0}\nnot json\n')
    with pytest.raises(ConfigError, match="invalid trace line"):
        load_events(path)
    path.write_text('{"no_kind": true}\n')
    with pytest.raises(ConfigError, match="not an event record"):
        load_events(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_events(tmp_path / "missing.jsonl")


@pytest.mark.parametrize("record, complaint", [
    ('{"kind": "send", "t": "abc"}', "'t' must be a number, got 'abc'"),
    ('{"kind": "send", "t": null}', "'t' must be a number, got None"),
    ('{"kind": "send", "t": true}', "'t' must be a number, got True"),
    ('{"kind": "send", "t": 1.0, "node": "p3"}', "'node' must be an integer"),
    ('{"kind": "send", "t": 1.0, "round": 1.5}', "'round' must be an integer"),
    ('{"kind": "send", "t": 1.0, "inst": ["a"]}', "'inst' must be a string"),
    ('{"kind": "decide", "t": 1.0, "inst": 3}', "'inst' must be a string"),
])
def test_load_events_names_the_line_of_a_mistyped_field(
    tmp_path, record, complaint
):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "send", "t": 1.0}\n\n' + record + "\n")
    with pytest.raises(ConfigError) as excinfo:
        load_events(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}:3: not an event record")
    assert complaint in message


def test_load_events_names_a_truncated_last_line(tmp_path):
    path = tmp_path / "cut.jsonl"
    whole = json.dumps(Event(time=1.0, kind="send", node=0).to_dict())
    path.write_text(whole + "\n" + whole[: len(whole) // 2])
    with pytest.raises(ConfigError, match=r"cut\.jsonl:2: invalid trace line"):
        load_events(path)


def test_load_events_names_the_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "rot.jsonl"
    whole = json.dumps(Event(time=1.0, kind="send", node=0).to_dict())
    path.write_bytes((whole + "\n").encode() * 2 + b'{"kind": "\xff"}\n')
    with pytest.raises(ConfigError, match=r"rot\.jsonl:3: invalid trace line"):
        load_events(path)


def test_event_from_dict_accepts_integer_times():
    assert Event.from_dict({"kind": "send", "t": 3}) == Event(time=3.0, kind="send")


def test_render_events_limit():
    events = [Event(time=float(i), kind="note", detail=i) for i in range(5)]
    text = render_events(events, limit=2)
    assert len(text.splitlines()) == 2
    assert "note       3" in text and "note       4" in text


def test_render_events_limit_zero_renders_nothing():
    events = [Event(time=float(i), kind="note", detail=i) for i in range(5)]
    assert render_events(events, limit=0) == ""
    assert render_events(events, limit=9) == render_events(events)


# -- observer + spec parsing -------------------------------------------------

@pytest.mark.parametrize("spec,expected", [
    (None, ("off", None)),
    ("off", ("off", None)),
    ("ring", ("ring", 100_000)),
    ("ring:64", ("ring", 64)),
    ("jsonl", ("jsonl", "obs_trace.jsonl")),
    ("jsonl:/tmp/x.jsonl", ("jsonl", "/tmp/x.jsonl")),
])
def test_parse_observe_accepts_the_documented_modes(spec, expected):
    assert parse_observe(spec) == expected


@pytest.mark.parametrize("spec", ["ring:zero", "ring:0", "jsonl:", "tracing", 7])
def test_parse_observe_rejects_garbage(spec):
    with pytest.raises(ConfigError):
        parse_observe(spec)


def test_build_observer_off_is_none():
    assert build_observer("off") is None
    assert build_observer(None) is None


def test_observer_clock_binding_and_classification():
    observer = Observer(RingSink())
    times = iter([1.0, 2.0])
    observer.bind_clock(lambda: next(times))
    observer.emit("frame", node=0, detail={"messages": 3})

    class Vote:
        round = 2

    observer.message("send", 1, ("benor", Vote()))
    first, second = observer.events()
    assert (first.time, first.kind) == (1.0, "frame")
    assert (second.time, second.kind, second.instance, second.round) == (
        2.0, "send", "benor", 2,
    )
    assert observer.close()["events"] == 2


# -- report ------------------------------------------------------------------

def _sample_trace():
    return [
        Event(time=0.0, kind="send", node=0, instance="c", round=1, detail="a"),
        Event(time=0.002, kind="deliver", node=1, instance="c", round=1, detail="a"),
        Event(time=0.004, kind="send", node=1, instance="c", round=2, detail="b"),
        Event(time=0.005, kind="decide", node=0, instance="c", round=2, detail=1),
        Event(time=0.009, kind="decide", node=1, instance="c", round=2, detail=1),
        Event(time=0.010, kind="retransmit", node=0, detail={"seq": 4}),
    ]


def test_decision_latency_table_reports_per_instance_percentiles():
    table = decision_latency_table(CausalDag(_sample_trace()))
    assert "c" in table
    assert "7.000" in table  # p50 of [5ms, 9ms] interpolates to 7ms
    assert "9.000" in table  # max
    assert decision_latency_table(CausalDag([])) == "no decide events in trace"


def test_round_timing_table_windows_and_truncation():
    table = round_timing_table(CausalDag(_sample_trace()))
    assert "2.000" in table  # round 1 window spans 0..2ms
    many = [
        Event(time=float(i), kind="send", node=0, instance="c", round=i, detail=i)
        for i in range(50)
    ]
    truncated = round_timing_table(CausalDag(many), limit=10)
    assert "40 more" in truncated


def test_render_report_composes_all_sections():
    text = render_report(_sample_trace())
    assert "6 events" in text
    assert "retransmit" in text
    assert "decision latency" in text.lower()
    assert render_report([]) == "empty trace (no events)"


# -- bench emitter + floor gate ----------------------------------------------

def test_emit_and_load_bench_document(tmp_path):
    path = emit_bench(
        "sample", {"throughput": 10, "wall_ms": 1.5},
        meta={"trials": 3}, mode="smoke", out_dir=tmp_path,
    )
    assert path == bench_path("sample", tmp_path)
    doc = load_bench(path)
    assert doc["bench"] == "sample"
    assert doc["mode"] == "smoke"
    assert doc["metrics"] == {"throughput": 10.0, "wall_ms": 1.5}
    assert doc["meta"] == {"trials": 3}


def test_emit_bench_rejects_bad_names_and_values(tmp_path):
    with pytest.raises(ConfigError):
        emit_bench("has space", {"x": 1}, out_dir=tmp_path)
    with pytest.raises(ConfigError):
        emit_bench("ok", {"x": "fast"}, out_dir=tmp_path)


def test_floor_check_passes_and_fails_accordingly(tmp_path):
    emit_bench("b", {"throughput": 100.0, "wall_ms": 2.0}, out_dir=tmp_path)
    floors = {"b": {"throughput": {"min": 50.0}, "wall_ms": {"max": 6.0}}}
    assert check(floors, tmp_path) == []

    regressed = {"b": {"throughput": {"min": 200.0}, "wall_ms": {"max": 1.0}}}
    violations = check(regressed, tmp_path)
    assert len(violations) == 2
    assert any("fell below floor" in v for v in violations)
    assert any("exceeded ceiling" in v for v in violations)

    missing_metric = {"b": {"absent": {"min": 1.0}}}
    assert "not emitted" in check(missing_metric, tmp_path)[0]

    missing_bench = {"never_ran": {"x": {"min": 1.0}}}
    assert "no emitted numbers" in check(missing_bench, tmp_path)[0]


def test_seed_floors_applies_margins(tmp_path):
    emit_bench("b", {"throughput": 100.0, "wall_ms": 2.0, "zero": 0.0},
               out_dir=tmp_path)
    floors = seed_floors(tmp_path)
    assert floors["b"]["throughput"] == {"min": 50.0}
    assert floors["b"]["wall_ms"] == {"max": 6.0}
    assert "zero" not in floors["b"]  # nothing to floor at zero
    # The seeded floors always pass against the numbers they came from.
    assert check(floors, tmp_path) == []


def test_load_floors_validates_shape(tmp_path):
    path = tmp_path / "floors.json"
    path.write_text(json.dumps({"b": {"metric": {"min": 1.0}}}))
    assert load_floors(path)["b"]["metric"] == {"min": 1.0}
    path.write_text(json.dumps({"b": {"metric": {"typo": 1.0}}}))
    with pytest.raises(ConfigError):
        load_floors(path)
    path.write_text("[]")
    with pytest.raises(ConfigError):
        load_floors(path)


def test_committed_floors_file_is_well_formed():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[2]
    floors = load_floors(root / "benchmarks" / "floors.json")
    assert floors, "committed floors must gate at least one benchmark"
    for bench, metrics in floors.items():
        assert metrics, f"floors for {bench} gate no metrics"
