"""Reliable-broadcast state machine, driven message by message.

n=4, t=1 throughout: echo quorum 3, ready amplification 2, accept 3.
"""

import pytest

from repro.core.broadcast import BroadcastLayer, RbcDelivery, RbcMessage
from repro.types import Phase

from ..conftest import make_member

INSTANCE = ("test", 0)


def make_layer(pid=0, n=4, t=1):
    process, stub = make_member(n=n, t=t, pid=pid)
    layer = process.add_module(BroadcastLayer())
    deliveries = []
    layer.subscribe(deliveries.append)
    return layer, deliveries, stub


def rbc(phase, value="v", originator=1, instance=INSTANCE):
    return RbcMessage(instance, originator, phase, value)


def sent_phases(stub):
    """Phases of everything broadcast so far, deduplicated per wave."""
    return [msg.phase for _s, _d, (_m, msg) in stub.sent]


class TestInit:
    def test_originator_init_triggers_echo_wave(self):
        layer, _dels, stub = make_layer()
        layer.on_message(1, rbc(Phase.INIT))
        phases = sent_phases(stub)
        assert phases.count(Phase.ECHO) == 4  # echo to everyone

    def test_forged_init_ignored(self):
        """INIT claiming originator 1 but sent by 2 must do nothing."""
        layer, _dels, stub = make_layer()
        layer.on_message(2, rbc(Phase.INIT, originator=1))
        assert stub.sent == []

    def test_second_init_from_equivocator_ignored(self):
        layer, _dels, stub = make_layer()
        layer.on_message(1, rbc(Phase.INIT, value="a"))
        stub.take_sent()
        layer.on_message(1, rbc(Phase.INIT, value="b"))
        assert stub.sent == []  # only the first INIT is echoed

    def test_own_broadcast_sends_init_to_all(self):
        layer, _dels, stub = make_layer(pid=2)
        layer.broadcast(INSTANCE, "mine")
        inits = [m for _s, _d, (_mod, m) in stub.sent if m.phase is Phase.INIT]
        assert len(inits) == 4
        assert all(m.originator == 2 for m in inits)


class TestEchoWave:
    def test_echo_quorum_triggers_ready(self):
        layer, _dels, stub = make_layer()
        for sender in (1, 2):
            layer.on_message(sender, rbc(Phase.ECHO))
        assert Phase.READY not in sent_phases(stub)
        layer.on_message(3, rbc(Phase.ECHO))
        assert sent_phases(stub).count(Phase.READY) == 4

    def test_echoes_counted_per_value(self):
        layer, _dels, stub = make_layer()
        layer.on_message(1, rbc(Phase.ECHO, value="a"))
        layer.on_message(2, rbc(Phase.ECHO, value="b"))
        layer.on_message(3, rbc(Phase.ECHO, value="a"))
        assert Phase.READY not in sent_phases(stub)  # 2 a's + 1 b < 3

    def test_duplicate_echo_from_same_sender_counted_once(self):
        layer, _dels, stub = make_layer()
        for _ in range(5):
            layer.on_message(1, rbc(Phase.ECHO))
        assert Phase.READY not in sent_phases(stub)

    def test_ready_sent_only_once(self):
        layer, _dels, stub = make_layer()
        for sender in (1, 2, 3, 0):
            layer.on_message(sender, rbc(Phase.ECHO))
        assert sent_phases(stub).count(Phase.READY) == 4  # one wave, 4 dests


class TestReadyWave:
    def test_ready_amplification_at_t_plus_1(self):
        layer, _dels, stub = make_layer()
        layer.on_message(1, rbc(Phase.READY))
        assert Phase.READY not in sent_phases(stub)
        layer.on_message(2, rbc(Phase.READY))
        assert sent_phases(stub).count(Phase.READY) == 4

    def test_accept_at_2t_plus_1(self):
        layer, deliveries, _stub = make_layer()
        for sender in (1, 2):
            layer.on_message(sender, rbc(Phase.READY))
        assert deliveries == []
        layer.on_message(3, rbc(Phase.READY))
        assert deliveries == [RbcDelivery(INSTANCE, 1, "v")]

    def test_accept_only_once(self):
        layer, deliveries, _stub = make_layer()
        for sender in (1, 2, 3, 0):
            layer.on_message(sender, rbc(Phase.READY))
        assert len(deliveries) == 1

    def test_readies_counted_per_value(self):
        layer, deliveries, _stub = make_layer()
        layer.on_message(1, rbc(Phase.READY, value="a"))
        layer.on_message(2, rbc(Phase.READY, value="b"))
        layer.on_message(3, rbc(Phase.READY, value="a"))
        assert deliveries == []  # 2 a's < 3

    def test_accepted_flag(self):
        layer, _dels, _stub = make_layer()
        assert not layer.accepted(INSTANCE, 1)
        for sender in (1, 2, 3):
            layer.on_message(sender, rbc(Phase.READY))
        assert layer.accepted(INSTANCE, 1)


class TestInstanceIsolation:
    def test_instances_do_not_mix(self):
        layer, deliveries, _stub = make_layer()
        for sender in (1, 2):
            layer.on_message(sender, rbc(Phase.READY, instance=("a", 1)))
        layer.on_message(3, rbc(Phase.READY, instance=("b", 2)))
        assert deliveries == []

    def test_forget_drops_state(self):
        layer, _dels, _stub = make_layer()
        layer.on_message(1, rbc(Phase.ECHO))
        assert layer.open_instances() == 1
        layer.forget(INSTANCE, 1)
        assert layer.open_instances() == 0

    def test_garbage_payload_ignored(self):
        layer, deliveries, stub = make_layer()
        layer.on_message(1, "garbage")
        layer.on_message(1, 42)
        assert deliveries == [] and stub.sent == []

    @pytest.mark.parametrize("phase", list(Phase))
    @pytest.mark.parametrize("hostile", [
        dict(value=[1, 2]), dict(value={"a": 1}), dict(instance=[1, 2]),
        dict(instance=("x", [1])),
    ], ids=["list-value", "dict-value", "list-instance", "nested-instance"])
    def test_unhashable_instance_or_value_is_garbage(self, phase, hostile):
        """The wire codec delivers lists and dicts in any field intact; a
        tally cannot be keyed by one, and raising would crash the
        *receiver*.  (An INIT's value keys nothing: it is echoed.)"""
        layer, deliveries, stub = make_layer()
        for sender in (1, 2, 3):
            layer.on_message(sender, rbc(phase, **hostile))
        assert deliveries == []
        echoed = phase is Phase.INIT and "value" in hostile
        assert sent_phases(stub) == [Phase.ECHO] * 4 * echoed


class TestSpentInstances:
    """Once READY is out no ECHO matters; once accepted, no READY does."""

    def test_echo_after_ready_sent_is_not_tallied(self):
        layer, _dels, stub = make_layer()
        for sender in (0, 1, 2):
            layer.on_message(sender, rbc(Phase.ECHO))
        assert layer.instance_state(INSTANCE, 1).ready_sent
        stub.take_sent()
        layer.on_message(3, rbc(Phase.ECHO))
        layer.on_message(3, rbc(Phase.ECHO, value="other"))
        assert layer.instance_state(INSTANCE, 1).echoes == {"v": {0, 1, 2}}
        assert stub.sent == []

    def test_ready_after_acceptance_is_not_tallied(self):
        layer, deliveries, stub = make_layer()
        for sender in (0, 1, 2):
            layer.on_message(sender, rbc(Phase.READY))
        assert len(deliveries) == 1
        stub.take_sent()
        layer.on_message(3, rbc(Phase.READY))
        assert layer.instance_state(INSTANCE, 1).readies == {"v": {0, 1, 2}}
        assert len(deliveries) == 1 and stub.sent == []

    def test_ready_after_ready_sent_still_counts_toward_acceptance(self):
        layer, deliveries, _stub = make_layer()
        for sender in (0, 1, 2):
            layer.on_message(sender, rbc(Phase.ECHO))
        for sender in (0, 1, 2):
            layer.on_message(sender, rbc(Phase.READY))
        assert len(deliveries) == 1


class TestOriginatorBinding:
    """State is per ``(instance, originator)``: instance names can be
    predicted, so a name alone must not let one process speak for, or
    silence, another."""

    def test_the_completing_ready_cannot_rename_the_originator(self):
        """p3 INITs an instance named after p2 under its own pid — legal,
        the layer does not read instance names — then sends the READY
        that would complete the quorum with ``originator=2``.  Were it
        counted, the upper layer's ``origin == delivery.originator``
        guard would pass and p3 would have spoken as p2; it counts toward
        the ``(instance, 2)`` pair instead, and only an honest third
        READY completes p3's own."""
        layer, deliveries, _stub = make_layer()
        named_after_p2 = ("bracha", 1, 1, 2)
        layer.on_message(3, rbc(Phase.INIT, originator=3, instance=named_after_p2))
        for sender in (0, 1, 3):
            layer.on_message(
                sender, rbc(Phase.ECHO, originator=3, instance=named_after_p2))
        for sender in (0, 1):
            layer.on_message(
                sender, rbc(Phase.READY, originator=3, instance=named_after_p2))
        layer.on_message(
            3, rbc(Phase.READY, originator=2, instance=named_after_p2))
        assert deliveries == []
        layer.on_message(
            2, rbc(Phase.READY, originator=3, instance=named_after_p2))
        assert [d.originator for d in deliveries] == [3]

    def test_a_squatted_name_does_not_silence_its_owner(self):
        """p3 INITs ``("bracha", 1, 1, 2)`` under its own pid before p2
        does: p2's own INIT for its own name is still echoed, and p2's
        value is accepted as p2's."""
        layer, deliveries, stub = make_layer()
        named_after_p2 = ("bracha", 1, 1, 2)
        layer.on_message(3, rbc(Phase.INIT, value="squat", originator=3,
                                instance=named_after_p2))
        stub.take_sent()
        layer.on_message(2, rbc(Phase.INIT, value="mine", originator=2,
                                instance=named_after_p2))
        assert [(m.phase, m.originator, m.value)
                for _s, _d, (_m, m) in stub.sent] == [
            (Phase.ECHO, 2, "mine")] * 4
        for sender in (0, 1, 2):
            layer.on_message(sender, rbc(Phase.READY, value="mine",
                                         originator=2, instance=named_after_p2))
        assert [(d.originator, d.value) for d in deliveries] == [(2, "mine")]


class TestTagRouting:
    def test_tagged_listener_hears_only_its_own_instances(self):
        layer, everything, _stub = make_layer()
        mine, theirs = [], []
        layer.subscribe(mine.append, tag="mine")
        layer.subscribe(theirs.append, tag="theirs")
        for instance in (("mine", 1), ("theirs", 1), "mine", ()):
            for sender in (0, 1, 2):
                layer.on_message(sender, rbc(Phase.READY, instance=instance))
        assert [d.instance for d in mine] == [("mine", 1)]
        assert [d.instance for d in theirs] == [("theirs", 1)]
        assert len(everything) == 4  # the untagged listener hears them all


class TestThresholdScaling:
    def test_n7_thresholds(self):
        """n=7, t=2: echo quorum 5, amplify 3, accept 5."""
        layer, deliveries, stub = make_layer(n=7, t=2)
        for sender in (1, 2, 3, 4):
            layer.on_message(sender, rbc(Phase.ECHO))
        assert Phase.READY not in sent_phases(stub)
        layer.on_message(5, rbc(Phase.ECHO))
        assert Phase.READY in sent_phases(stub)
        for sender in (1, 2, 3, 4):
            layer.on_message(sender, rbc(Phase.READY))
        assert deliveries == []
        layer.on_message(5, rbc(Phase.READY))
        assert len(deliveries) == 1

    def test_t0_degenerate(self):
        """t=0: amplify 1, accept 1 — a single READY decides."""
        layer, deliveries, _stub = make_layer(n=2, t=0)
        layer.on_message(1, rbc(Phase.READY))
        assert len(deliveries) == 1
