"""Tracing and telemetry of full runs: the operator's view."""

from repro.obs.sinks import render_events
from repro.scenario import Scenario, assemble, run


def traced(**fields):
    """A finished run with the full ``observe: ring`` event stream."""
    result = run(Scenario(observe="ring:100000", **fields))
    assert result.meta["obs"]["dropped"] == 0
    return result, result.meta["obs_events"]


class TestTracing:
    def test_trace_records_full_execution(self):
        result, events = traced(n=4, proposals=[0, 1, 0, 1], seed=3)
        assert result.decided_values  # normal outcome with tracing on
        assert len(events) > 0

    def test_trace_content(self):
        _result, events = traced(n=4, proposals=[0, 1, 0, 1], seed=3)
        assert {event.kind for event in events} == {
            "send", "deliver", "note", "decide",
        }
        notes = [event.detail for event in events if event.kind == "note"]
        assert any("decide" in str(note) for note in notes)

    def test_trace_renders_readably(self):
        _result, events = traced(n=4, proposals=1, seed=5)
        text = render_events(events, limit=50)
        assert "deliver" in text and "send" in text

    def test_decision_notes_name_every_decider(self):
        _result, events = traced(n=4, proposals=[1, 1, 1, 1], seed=7)
        deciders = {
            event.node
            for event in events
            if event.kind == "note" and "decide 1" in str(event.detail)
        }
        assert deciders == {0, 1, 2, 3}
        assert deciders == {
            event.node for event in events
            if event.kind == "decide" and event.detail == 1
        }


def decided_stacks(seed):
    """A split-input run driven to decision; the handle keeps the live
    consensus modules readable afterwards."""
    handle = assemble(Scenario(n=4, proposals=[0, 1, 0, 1], seed=seed)).run()
    assert handle.until()
    return handle


class TestRoundHistory:
    def test_history_starts_with_proposal(self):
        handle = decided_stacks(seed=9)
        for pid, (consensus,) in handle.stacks.items():
            assert consensus.round_history[1] == handle.proposals[pid]

    def test_history_ends_at_decision_value(self):
        for (consensus,) in decided_stacks(seed=11).stacks.values():
            last_round = max(consensus.round_history)
            if last_round > consensus.decision_round:
                assert consensus.round_history[last_round] == consensus.decision

    def test_history_contiguous(self):
        for (consensus,) in decided_stacks(seed=13).stacks.values():
            rounds = sorted(consensus.round_history)
            assert rounds == list(range(1, rounds[-1] + 1))


class TestMetricsBreakdown:
    def test_kind_breakdown_covers_all_traffic(self):
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], seed=15))
        kinds = result.meta["messages_by_kind"]
        assert sum(kinds.values()) == result.messages_sent

    def test_share_coin_traffic_visible(self):
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], coin="shares", seed=17))
        assert result.meta["messages_by_kind"]["coin/CoinShareMsg"] >= 4
