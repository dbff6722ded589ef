"""Value types: StepValue semantics, RunResult accessors, envelopes."""

import pytest

from repro.types import (
    BINARY_VALUES,
    Decision,
    Envelope,
    RunResult,
    Step,
    StepValue,
    other_bit,
)


class TestStepValue:
    def test_plain_value(self):
        value = StepValue(1)
        assert value.bit == 1
        assert not value.decide

    def test_decide_proposal(self):
        value = StepValue(0, decide=True)
        assert value.decide

    def test_rejects_non_bit(self):
        with pytest.raises(ValueError):
            StepValue(2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            StepValue(-1)

    def test_plain_strips_decide_mark(self):
        assert StepValue(1, decide=True).plain() == StepValue(1)

    def test_plain_is_identity_on_plain(self):
        assert StepValue(0).plain() == StepValue(0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            StepValue(0).bit = 1  # type: ignore[misc]

    def test_equality_and_hash(self):
        assert StepValue(1) == StepValue(1)
        assert StepValue(1) != StepValue(1, decide=True)
        assert len({StepValue(1), StepValue(1), StepValue(0)}) == 2

    def test_repr_shows_decide_mark(self):
        assert "d" in repr(StepValue(1, decide=True))
        assert "d" not in repr(StepValue(1))


class TestBits:
    def test_binary_values(self):
        assert BINARY_VALUES == (0, 1)

    def test_other_bit(self):
        assert other_bit(0) == 1
        assert other_bit(1) == 0


class TestStepEnum:
    def test_ordering(self):
        assert Step.ONE < Step.TWO < Step.THREE

    def test_int_conversion(self):
        assert int(Step.TWO) == 2
        assert Step(3) is Step.THREE


class TestEnvelope:
    def test_fields(self):
        env = Envelope(uid=1, source=0, dest=2, payload="x", send_time=0.5)
        assert env.dest == 2
        assert env.send_time == 0.5

    def test_repr_contains_route(self):
        env = Envelope(uid=7, source=1, dest=3, payload="p", send_time=0.0)
        assert "1->3" in repr(env)

    def test_field_names_and_order(self):
        assert Envelope._fields == ("uid", "source", "dest", "payload", "send_time")
        by_keyword = Envelope(uid=7, source=1, dest=3, payload="p", send_time=0.5)
        assert by_keyword == Envelope(7, 1, 3, "p", 0.5)
        assert by_keyword.uid == 7 and by_keyword.payload == "p"

    def test_repr(self):
        env = Envelope(uid=7, source=1, dest=3, payload=("m", "p"), send_time=0.0)
        assert repr(env) == "<#7 1->3 ('m', 'p')>"

    def test_immutable(self):
        env = Envelope(uid=7, source=1, dest=3, payload="p", send_time=0.0)
        with pytest.raises(AttributeError):
            env.dest = 2
        with pytest.raises(AttributeError):
            env.forged = True

    def test_replace_makes_a_new_envelope(self):
        env = Envelope(uid=7, source=1, dest=3, payload="p", send_time=0.0)
        moved = env._replace(dest=2)
        assert moved.dest == 2 and moved.uid == 7
        assert env.dest == 3 and moved != env


class TestRunResult:
    def _result_with(self, decisions):
        result = RunResult()
        for pid, bit in decisions.items():
            result.decisions[pid] = Decision(pid, bit, round=1, time=1.0)
        return result

    def test_decided_values_singleton(self):
        assert self._result_with({0: 1, 1: 1}).decided_values == {1}

    def test_decided_values_disagreement_visible(self):
        assert self._result_with({0: 1, 1: 0}).decided_values == {0, 1}

    def test_all_decided(self):
        assert self._result_with({0: 1}).all_decided
        assert not RunResult().all_decided

    def test_decision_round_empty(self):
        assert RunResult().decision_round() == 0

    def test_decision_round_max(self):
        result = RunResult()
        result.decisions[0] = Decision(0, 1, round=2, time=0.0)
        result.decisions[1] = Decision(1, 1, round=5, time=0.0)
        assert result.decision_round() == 5
