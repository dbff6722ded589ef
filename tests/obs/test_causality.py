"""Causal tracing: send/deliver correlation and critical paths.

Three layers of guarantees:

* **Stamping** — causal ids are well-formed, per-sender sequential, and
  epoch-disambiguated; the runtime ``Stamped`` wrapper survives the
  codec and refuses degenerate shapes.
* **Correlation** — on every fabric (sim, local, tcp, mp) each
  ``deliver`` event's ``msg`` id matches exactly one ``send`` event in
  the same trace.
* **Critical paths** — on the simulator every decide event has a
  non-empty critical path ending at the decider, for all five
  protocols; and the sim and local fabrics agree on which logical
  decisions carry paths (physical paths differ — the fabrics schedule
  differently — but the structural invariants hold on both).
"""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.obs import Event, build_observer, load_events, parse_observe
from repro.obs.report import (
    CausalDag,
    critical_path_table,
    event_mid,
    phase_of,
    render_report,
    round_timing_table,
)
from repro.runtime import binarycodec
from repro.runtime.codec import CodecError, Stamped, WireBatch
from repro.scenario import Scenario, run
from repro.sim.effects import CausalStamper, format_mid, parse_mid

ALL_PROTOCOLS = {
    "bracha": Scenario(protocol="bracha", n=4, proposals=1, seed=9),
    "benor": Scenario(protocol="benor", n=4, proposals=1, seed=9),
    "benor-crash": Scenario(protocol="benor-crash", n=5, t=2, proposals=1,
                            seed=9),
    "mmr14": Scenario(protocol="mmr14", n=4, coin="dealer", proposals=1,
                      seed=9),
    "acs": Scenario(protocol="acs", n=4, seed=9),
}


# ---------------------------------------------------------------------------
# Stamping machinery
# ---------------------------------------------------------------------------


def test_stamper_is_per_sender_sequential():
    stamper = CausalStamper()
    assert stamper.stamp(0) == "0:1"
    assert stamper.stamp(0) == "0:2"
    assert stamper.stamp(3) == "3:1"
    assert stamper.stamp(0) == "0:3"


def test_mid_round_trips_with_and_without_epoch():
    assert parse_mid(format_mid(2, 17)) == (2, 0, 17)
    assert parse_mid(format_mid(2, 17, epoch=3)) == (2, 3, 17)
    assert format_mid(2, 17) == "2:17"
    assert format_mid(2, 17, epoch=3) == "2.3:17"


def test_epoch_disambiguates_restarted_incarnations():
    dead = CausalStamper()
    respawn = CausalStamper(epoch=1)
    assert dead.stamp(4) != respawn.stamp(4)


@pytest.mark.parametrize("bad", ["", "nonsense", "1", "a:b", ":", "1:", None])
def test_malformed_mids_are_config_errors(bad):
    with pytest.raises(ConfigError):
        parse_mid(bad)


def test_stamped_survives_the_wire_codec():
    wrapped = Stamped("2:9", ("bracha", (1, 0)))
    assert binarycodec.loads(binarycodec.dumps(wrapped)) == wrapped


def test_stamped_refuses_degenerate_shapes():
    with pytest.raises(CodecError):
        Stamped("1:1", Stamped("1:2", "inner"))  # no nesting
    with pytest.raises(CodecError):
        Stamped("1:1", WireBatch(("a",)))  # a stamp wraps one message
    with pytest.raises(CodecError):
        Stamped(7, "payload")  # id must be a string


# ---------------------------------------------------------------------------
# DAG construction on synthetic events
# ---------------------------------------------------------------------------


def _send(t, node, mid):
    return Event(time=t, kind="send", node=node,
                 detail={"msg": mid, "payload": "M()"})


def _deliver(t, node, mid):
    return Event(time=t, kind="deliver", node=node,
                 detail={"msg": mid, "payload": "M()"})


def test_dag_counts_matched_dangling_and_unstamped():
    events = [
        _send(0.0, 0, "0:1"),
        _deliver(1.0, 1, "0:1"),
        _deliver(2.0, 1, "9:9"),  # dangling: sender's events are lost
        Event(time=3.0, kind="send", node=2, detail="unstamped-era"),
    ]
    dag = CausalDag(events)
    assert dag.matched_delivers() == 1
    assert dag.dangling_delivers() == 1
    assert dag.unstamped == 1


def test_dag_counts_duplicate_deliveries():
    events = [
        _send(0.0, 0, "0:1"),
        _deliver(1.0, 1, "0:1"),
        _deliver(2.0, 1, "0:1"),  # netem duplicated the frame
    ]
    assert CausalDag(events).duplicate_delivers() == 1


def test_critical_path_walks_back_to_the_protocol_start():
    # p0 broadcasts, p1 reacts, p2 decides on p1's message: the path is
    # the two-hop chain 0:1 -> p1, 1:1 -> p2, oldest hop first.
    events = [
        _send(0.0, 0, "0:1"),
        _deliver(1.0, 1, "0:1"),
        _send(1.0, 1, "1:1"),
        _deliver(2.0, 2, "1:1"),
        Event(time=2.0, kind="decide", node=2, instance="x", detail=1),
    ]
    dag = CausalDag(events)
    [(decide, hops)] = dag.critical_paths()
    assert decide.node == 2
    assert [(h.mid, h.src, h.dest) for h in hops] == [
        ("0:1", 0, 1), ("1:1", 1, 2),
    ]
    assert hops[-1].dest == decide.node
    assert hops[0].send_time == 0.0 and hops[-1].deliver_time == 2.0


def test_critical_path_ends_at_a_dangling_hop_when_the_send_is_lost():
    events = [
        _deliver(1.0, 2, "5:7"),  # p5's ring never shipped
        Event(time=1.0, kind="decide", node=2, instance="x", detail=0),
    ]
    [(_decide, hops)] = CausalDag(events).critical_paths()
    assert len(hops) == 1
    assert hops[0].src == 5 and hops[0].send_time is None


def test_critical_path_is_empty_without_a_prior_delivery():
    events = [Event(time=0.0, kind="decide", node=0, instance="x", detail=1)]
    [(_decide, hops)] = CausalDag(events).critical_paths()
    assert hops == []


def test_phase_labels_extract_classname_and_step():
    event = Event(
        time=0.0, kind="deliver", node=1,
        detail={"msg": "0:1",
                "payload": "RbcMessage(instance=('bracha', 1, 1, 0), "
                           "originator=0, phase=<Phase.ECHO: 'ECHO'>, "
                           "value=(1))"},
    )
    assert phase_of(event) == "RbcMessage/ECHO"
    bare = Event(time=0.0, kind="deliver", node=1,
                 detail={"msg": "0:2", "payload": "DecideMsg(value=1)"})
    assert phase_of(bare) == "DecideMsg"


def test_event_mid_reads_only_stamped_details():
    assert event_mid(_send(0.0, 0, "0:1")) == "0:1"
    assert event_mid(Event(time=0.0, kind="send", node=0, detail="M()")) is None


# ---------------------------------------------------------------------------
# Correlation on every fabric
# ---------------------------------------------------------------------------


def _assert_fully_correlated(events, n):
    sends = [event_mid(e) for e in events if e.kind == "send"]
    delivers = [event_mid(e) for e in events if e.kind == "deliver"]
    assert sends and delivers
    assert None not in sends and None not in delivers
    assert len(set(sends)) == len(sends), "send ids must be unique"
    send_set = set(sends)
    for mid in delivers:
        assert mid in send_set, f"deliver {mid} matches no send"
    # Ids attribute to real senders with per-sender contiguous sequences.
    senders = {parse_mid(mid)[0] for mid in sends}
    assert senders <= set(range(n))


@pytest.mark.parametrize("fabric", ["sim", "local", "tcp"])
def test_every_deliver_matches_exactly_one_send(fabric):
    scenario = Scenario(protocol="bracha", n=4, proposals=1, seed=5,
                        observe="ring")
    result = run(scenario, fabric=fabric)
    _assert_fully_correlated(result.meta["obs_events"], scenario.n)


def test_every_deliver_matches_exactly_one_send_on_mp():
    scenario = Scenario(protocol="bracha", n=4, proposals=1, seed=5,
                        fabric="mp", observe="ring", timeout=90.0)
    result = run(scenario)
    _assert_fully_correlated(result.meta["obs_events"], scenario.n)


def test_correlation_works_with_batched_frames():
    scenario = Scenario(protocol="bracha", n=4, proposals=1, seed=5,
                        fabric="local", batching="flush", observe="ring")
    result = run(scenario)
    _assert_fully_correlated(result.meta["obs_events"], scenario.n)


# ---------------------------------------------------------------------------
# Critical paths on real traces
# ---------------------------------------------------------------------------


def _assert_paths_well_formed(events):
    """Every decide has a non-empty path ending at the decider, with the
    hops chained (each hop's dest is the next hop's src) and causally
    ordered (send precedes deliver, hops never go back in time)."""
    dag = CausalDag(events)
    paths = dag.critical_paths()
    assert paths, "no decide events in trace"
    for decide, hops in paths:
        assert hops, f"decide at p{decide.node} has an empty critical path"
        assert hops[-1].dest == decide.node
        for earlier, later in zip(hops, hops[1:]):
            assert earlier.dest == later.src
            assert earlier.deliver_time <= later.deliver_time
        for hop in hops:
            if hop.send_time is not None:
                assert hop.send_time <= hop.deliver_time
    return paths


@pytest.mark.parametrize("protocol", sorted(ALL_PROTOCOLS))
def test_every_sim_decision_has_a_critical_path(protocol):
    result = run(ALL_PROTOCOLS[protocol], observe="ring:200000")
    events = result.meta["obs_events"]
    paths = _assert_paths_well_formed(events)
    decides = [e for e in events if e.kind == "decide"]
    assert len(paths) == len(decides)


def test_sim_and_local_critical_paths_agree_logically():
    # Physical paths differ across fabrics (different schedules, ids);
    # the *logical* statement — which (node, instance, value) decisions
    # carry a non-empty causal chain — must agree, and both fabrics'
    # paths must satisfy the structural invariants.
    scenario = Scenario(protocol="bracha", n=4, proposals=1, seed=9,
                        observe="ring:200000")
    keyed = {}
    for fabric in ("sim", "local"):
        events = run(scenario, fabric=fabric).meta["obs_events"]
        paths = _assert_paths_well_formed(events)
        keyed[fabric] = {
            (decide.node, decide.instance, decide.detail)
            for decide, hops in paths if hops
        }
    assert keyed["sim"] == keyed["local"]


def test_critical_paths_summarize_real_runs():
    result = run(ALL_PROTOCOLS["bracha"], observe="ring:200000")
    paths = CausalDag(result.meta["obs_events"]).critical_paths()
    lengths = sorted(len(hops) for _decide, hops in paths if hops)
    spans = sorted(hops[-1].deliver_time - hops[0].send_time
                   for _decide, hops in paths if hops)
    assert len(lengths) == 4
    assert 1 <= lengths[len(lengths) // 2] <= lengths[-1]
    assert spans[len(spans) // 2] <= spans[-1]


def test_report_degrades_on_unstamped_traces():
    legacy = [Event(time=0.0, kind="decide", node=0, instance="x", detail=1)]
    text = render_report(legacy)
    assert "correlation: 0 stamped sends, 0 matched delivers" in text
    assert "(no enabling delivery)" in text


def test_render_report_has_every_section(tmp_path):
    path = tmp_path / "t.jsonl"
    run(ALL_PROTOCOLS["bracha"], observe=f"jsonl:{path}")
    text = render_report(load_events(str(path)))
    assert "correlation:" in text
    assert "Event totals" in text
    assert "Per-instance decision latency" in text
    assert "Per-round timing" in text
    assert "Per-decision critical paths" in text
    assert "phase breakdown" in text
    assert "Queue vs processing" in text


def test_a_malformed_id_on_a_dangling_deliver_is_an_error_line(
    tmp_path, capsys
):
    # The walk from the decide reaches a deliver whose send is missing;
    # its id must name the sender, and a corrupt one fails loudly.
    path = tmp_path / "corrupt.jsonl"
    path.write_text("\n".join(json.dumps(e.to_dict()) for e in [
        _deliver(1.0, 2, "not-an-id"),
        Event(time=2.0, kind="decide", node=2, instance="x", detail=0),
    ]))
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "malformed causal message id" in err


def test_trace_tables_survive_mp_round_trip(tmp_path):
    # mp events travel to_dict/from_dict through the control channel;
    # the stamped detail dict must survive and correlate after reload.
    path = tmp_path / "mp.jsonl"
    run(Scenario(protocol="bracha", n=4, proposals=1, seed=5, fabric="mp",
                 observe=f"jsonl:{path}", timeout=90.0))
    events = load_events(str(path))
    _assert_fully_correlated(events, 4)
    assert "Per-decision critical paths" in critical_path_table(CausalDag(events))


# ---------------------------------------------------------------------------
# Satellites: report sorting, observe path validation
# ---------------------------------------------------------------------------


def test_report_tables_sort_merged_streams_by_time():
    # mp merges per-node rings; a loaded trace can interleave out of
    # order.  Tables must render identically to the time-sorted stream.
    ordered = [
        _send(0.000, 0, "0:1"),
        _deliver(0.010, 1, "0:1"),
        Event(time=0.020, kind="decide", node=1, instance="x", detail=1),
        _send(0.030, 1, "1:1"),
    ]
    shuffled = [ordered[2], ordered[3], ordered[0], ordered[1]]
    assert render_report(shuffled) == render_report(ordered)


def test_round_timing_limit_truncates_by_time_not_merge_order():
    def msg(t, instance, round_):
        return Event(time=t, kind="send", node=0, instance=instance,
                     round=round_, detail={"msg": "0:1", "payload": "M()"})

    early, late = msg(0.001, "a", 1), msg(0.999, "b", 2)
    # The late row arrives first in merge order; with limit=1 the table
    # must still be computed over the sorted stream, so both orders of
    # the input produce the same single-row table.
    assert (round_timing_table(CausalDag([late, early]), limit=1)
            == round_timing_table(CausalDag([early, late]), limit=1))


def test_observe_jsonl_rejects_a_missing_parent_directory(tmp_path):
    missing = tmp_path / "does-not-exist" / "trace.jsonl"
    # Describing the run touches no file system (the catalog is built at
    # import time, from any cwd) ...
    assert parse_observe(f"jsonl:{missing}") == ("jsonl", str(missing))
    scenario = Scenario(protocol="bracha", n=4, proposals=1,
                        observe=f"jsonl:{missing}")
    # ... opening the sink does, before any message moves.
    with pytest.raises(ConfigError, match="does not exist"):
        build_observer(scenario.observe)
    for fabric in ("sim", "local"):
        with pytest.raises(ConfigError, match="does not exist"):
            run(scenario, fabric=fabric)
    assert not missing.parent.exists()
    with pytest.raises(ConfigError, match="non-empty path"):
        Scenario(protocol="bracha", n=4, proposals=1, observe="jsonl:")


def test_observe_jsonl_accepts_parentless_and_existing_parents(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for spec in ("jsonl:trace.jsonl", f"jsonl:{tmp_path / 'sub' / 't.jsonl'}"):
        assert build_observer(spec).close()["sink"] == "jsonl"
