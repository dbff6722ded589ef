"""Adversary components in isolation: behaviors, schedulers, attacks."""

import random

import pytest

from repro.adversary.behaviors import (
    CrashBehavior,
    FuzzerBehavior,
    SilentBehavior,
    SquatBehavior,
    StubbornBidder,
    TwoFacedBehavior,
    dispatch_behavior,
)
from repro.adversary.benor_attack import run_benor_equivocation_attack
from repro.adversary.strategies import (
    DelayVictimScheduler,
    SplitBrainScheduler,
)
from repro.core.broadcast import BroadcastLayer, RbcMessage
from repro.errors import ConfigError
from repro.params import ProtocolParams
from repro.sim.events import PendingSet
from repro.types import Envelope, Phase, StepValue

from ..conftest import StubNetwork


PARAMS = ProtocolParams(4, 1)


def stub():
    return StubNetwork(4)


class TestSilentAndCrash:
    def test_silent_sends_nothing(self):
        net = stub()
        behavior = SilentBehavior(3, net, PARAMS)  # type: ignore[arg-type]
        behavior.start()
        behavior.deliver(0, ("rbc", "x"))
        assert net.sent == []

    def test_crash_behaves_then_stops(self):
        net = stub()

        def factory(process):
            process.add_module(BroadcastLayer())

        behavior = CrashBehavior(3, net, PARAMS, factory, crash_after=2)  # type: ignore[arg-type]
        behavior.start()
        init = ("rbc", RbcMessage(("i", 0), 0, Phase.INIT, "v"))
        behavior.deliver(0, init)  # 1st delivery: echoes
        assert len(net.sent) == 4
        behavior.deliver(1, ("rbc", RbcMessage(("i", 1), 1, Phase.INIT, "w")))
        assert behavior.crashed
        net.take_sent()
        behavior.deliver(2, ("rbc", RbcMessage(("i", 2), 2, Phase.INIT, "z")))
        assert net.sent == []  # dead

    def test_crash_at_zero_is_silent(self):
        net = stub()
        behavior = CrashBehavior(3, net, PARAMS, lambda p: None, crash_after=0)  # type: ignore[arg-type]
        behavior.start()
        behavior.deliver(0, ("rbc", "x"))
        assert net.sent == []


class TestTwoFaced:
    def _behavior(self, net):
        def factory(process):
            process.add_module(BroadcastLayer())

        return TwoFacedBehavior(
            3, net, PARAMS, factory_a=factory, factory_b=factory, group_a=[0, 1]
        )

    def test_faces_send_to_their_groups_only(self):
        net = stub()
        behavior = self._behavior(net)
        behavior.face_a.modules["rbc"].broadcast(("i", 3), "A-value")
        dests = {d for _s, d, _p in net.sent}
        assert dests <= {0, 1}
        net.take_sent()
        behavior.face_b.modules["rbc"].broadcast(("i", 3), "B-value")
        dests = {d for _s, d, _p in net.sent}
        assert dests <= {2, 3}

    def test_inbound_reaches_both_faces(self):
        net = stub()
        behavior = self._behavior(net)
        init = ("rbc", RbcMessage(("i", 0), 0, Phase.INIT, "v"))
        behavior.deliver(0, init)
        # Both faces echo — face A to {0,1}, face B to {2,3}.
        dests = sorted(d for _s, d, _p in net.sent)
        assert dests == [0, 1, 2, 3]

    def test_all_sends_attributed_to_corrupted_pid(self):
        net = stub()
        behavior = self._behavior(net)
        behavior.deliver(0, ("rbc", RbcMessage(("i", 0), 0, Phase.INIT, "v")))
        assert all(s == 3 for s, _d, _p in net.sent)


class TestStubborn:
    def test_broadcasts_all_rounds_and_steps(self):
        net = stub()
        behavior = StubbornBidder(3, net, PARAMS, bit=0, horizon=3)  # type: ignore[arg-type]
        behavior.start()
        instances = {msg.instance for _s, _d, (_m, msg) in net.sent}
        assert len(instances) == 9  # 3 rounds × 3 steps
        assert all(inst[3] == 3 for inst in instances)

    def test_decide_mark_only_in_step3(self):
        net = stub()
        behavior = StubbornBidder(3, net, PARAMS, bit=0, horizon=2)  # type: ignore[arg-type]
        behavior.start()
        for _s, _d, (_m, msg) in net.sent:
            _tag, _round, step, _origin = msg.instance
            assert isinstance(msg.value, StepValue)
            assert msg.value.decide == (step == 3)

    def test_ignores_input(self):
        net = stub()
        behavior = StubbornBidder(3, net, PARAMS)  # type: ignore[arg-type]
        behavior.deliver(0, ("rbc", "x"))
        assert net.sent == []


class TestFuzzer:
    def test_emits_only_to_valid_destinations(self):
        net = stub()
        behavior = FuzzerBehavior(1, net, PARAMS, mutate_p=1.0, fanout=4)  # type: ignore[arg-type]
        msg = ("rbc", RbcMessage(("i", 0), 0, Phase.ECHO, StepValue(1)))
        for _ in range(20):
            behavior.deliver(0, msg)
        assert all(0 <= d < 4 for _s, d, _p in net.sent)
        assert len(net.sent) > 0

    def test_zero_probability_is_quiet(self):
        net = stub()
        behavior = FuzzerBehavior(1, net, PARAMS, mutate_p=0.0)  # type: ignore[arg-type]
        behavior.deliver(0, ("rbc", "x"))
        assert net.sent == []


def _no_honest_stack(process, bit):
    raise AssertionError("no honest stack expected")


class TestDispatchBehavior:
    def test_known_kinds(self):
        net = stub()
        for spec, cls in (("silent", SilentBehavior),
                          ({"kind": "fuzzer"}, FuzzerBehavior)):
            behavior = dispatch_behavior(3, spec, net, PARAMS, _no_honest_stack, 0)  # type: ignore[arg-type]
            assert isinstance(behavior, cls)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind 'gremlin'"):
            dispatch_behavior(3, "gremlin", stub(), PARAMS, _no_honest_stack, 0)  # type: ignore[arg-type]


class TestSquat:
    def test_squat_claims_the_next_pids_names_with_the_other_bit(self):
        squat = dispatch_behavior(3, "squat", stub(), PARAMS, _no_honest_stack, 1)  # type: ignore[arg-type]
        assert isinstance(squat, SquatBehavior) and squat.victim == 0
        squat.start()
        inits = [m for _s, _d, (_mod, m) in squat.network.sent]
        assert {m.instance[3] for m in inits} == {0}
        assert {(m.originator, m.value.bit) for m in inits} == {(3, 0)}
        # The first echo of a squatted INIT gets one READY, as node 0's.
        squat.network.take_sent()
        echo = RbcMessage(inits[0].instance, 3, Phase.ECHO, inits[0].value)
        for sender in (1, 2):
            squat.deliver(sender, ("rbc", echo))
        readies = [m for _s, _d, (_mod, m) in squat.network.sent]
        assert [(m.phase, m.originator) for m in readies] == [(Phase.READY, 0)] * 4


class TestHoldbackSchedulers:
    def _env(self, uid, source, dest, send_time=0.0):
        return Envelope(uid=uid, source=source, dest=dest, payload="m",
                        send_time=send_time)

    def _drain(self, scheduler, envelopes):
        pending = PendingSet()
        scheduler.attach(random.Random(0), pending)
        for env in envelopes:
            pending.add(env)
        order = []
        while pending:
            rank, _t = scheduler.choose()
            order.append(pending.pop(rank).uid)
        return order

    def test_victim_traffic_comes_last(self):
        scheduler = DelayVictimScheduler([3], holdback=1000)
        envelopes = [self._env(i, 0, 3 if i % 2 else 1) for i in range(1, 11)]
        order = self._drain(scheduler, envelopes)
        favored = [uid for uid in order if uid % 2 == 0]
        assert order[: len(favored)] == favored  # all favored first

    def test_split_brain_delays_cross_traffic(self):
        scheduler = SplitBrainScheduler([0, 1], holdback=1000)
        within = self._env(1, 0, 1)
        cross = self._env(2, 0, 2)
        order = self._drain(scheduler, [cross, within])
        assert order == [1, 2]

    def test_holdback_eventually_releases(self):
        scheduler = DelayVictimScheduler([3], holdback=2)
        only_victim = [self._env(i, 0, 3) for i in range(1, 4)]
        order = self._drain(scheduler, only_victim)
        assert sorted(order) == [1, 2, 3]  # nothing is starved forever

    def test_age_is_deliveries_since_the_send_time(self):
        """Virtual time is the delivery count: an envelope sent at time
        ``s`` is eligible from delivery ``s + holdback`` on."""
        scheduler = DelayVictimScheduler([3], holdback=3)
        late = self._env(10, 0, 3, send_time=1.0)
        early = self._env(11, 0, 3, send_time=0.0)
        favored = [self._env(1, 0, 1), self._env(2, 0, 1)]
        order = self._drain(scheduler, [late, *favored, early])
        # Delivery 3 releases `early` alone; the oldest-first fallback
        # would have released `late`, the oldest pending envelope.
        assert sorted(order[:2]) == [1, 2] and order[2:] == [11, 10]


class TestScriptedAttack:
    def test_report_fields(self):
        report = run_benor_equivocation_attack(seed=0)
        assert report.outcome in {"disagreement", "coin-saved-them", "no-decision"}
        assert set(report.decisions) == {0, 1, 2}
        assert len(report.coin_bits) == 2

    def test_p0_always_decides_one(self):
        """The forged quorum lands regardless of the coins."""
        for seed in range(6):
            report = run_benor_equivocation_attack(seed)
            assert report.decisions[0] == 1

    def test_disagreement_iff_both_coins_zero(self):
        for seed in range(10):
            report = run_benor_equivocation_attack(seed)
            expected = report.coin_bits == (0, 0)
            assert (report.outcome == "disagreement") == expected

    def test_deterministic_per_seed(self):
        a = run_benor_equivocation_attack(5)
        b = run_benor_equivocation_attack(5)
        assert a == b
