"""What one engine step is allowed to cost: counts, not timings.

Handling an ECHO or a READY is the engine's inner loop — Bracha pays one
reliable broadcast per process per step, so 29 438 of the 31 918
deliveries of the benchmark's ``sim-bracha-n7x8`` shape at seed 1001 are
one of the two.  The broadcast layer reads its thresholds when it is
bound, not per message; a delivery that enqueued nothing drains nothing;
an acceptance is offered to the one consensus module whose tag it
carries; and a message that can no longer change an instance's outcome
is dropped before it touches the tally.  One instrumented run of that
shape feeds all four counts.
"""

import copy
from types import SimpleNamespace

import pytest

from repro.core.broadcast import BroadcastLayer, RbcMessage
from repro.core.consensus import BrachaConsensus
from repro.params import ProtocolParams
from repro.scenario import Scenario, assemble
from repro.sim.effects import Outbox
from repro.sim.process import Process
from repro.types import Phase

THRESHOLDS = ("echo_quorum", "ready_amplify", "accept_quorum")


def _spent(layer, message):
    """Can ``message`` still change what its instance does at ``layer``?"""
    state = layer.instance_state(message.instance, message.originator)
    if state is None:
        return False
    return (state.ready_sent if message.phase is Phase.ECHO
            else state.accepted if message.phase is Phase.READY else False)


@pytest.fixture(scope="module")
def probe():
    # The benchmark's sim-bracha-n7x8 shape, seed 1001, unobserved.
    scenario = Scenario(protocol="bracha", n=7, instances=8,
                        batching="flush", seed=1001)
    seen = SimpleNamespace(
        n=scenario.n, reads=dict.fromkeys(THRESHOLDS, 0), deliveries=0,
        drains=0, idle_drains=0, heard=[], emitted=0, spent=0, disturbed=[],
    )
    with pytest.MonkeyPatch.context() as patch:
        for name in THRESHOLDS:
            def counted(params, name=name,
                        read=getattr(ProtocolParams, name).fget):
                seen.reads[name] += 1
                return read(params)

            patch.setattr(ProtocolParams, name, property(counted))

        drain = Outbox.drain

        def counting_drain(outbox):
            seen.drains += 1
            return drain(outbox)

        patch.setattr(Outbox, "drain", counting_drain)

        emit = BroadcastLayer.emit

        def counting_emit(layer, event):
            seen.emitted += 1
            emit(layer, event)

        patch.setattr(BroadcastLayer, "emit", counting_emit)

        on_rbc = BrachaConsensus._on_rbc

        def recording_on_rbc(consensus, delivery):
            seen.heard.append((consensus.module_id, delivery.instance[0]))
            on_rbc(consensus, delivery)

        patch.setattr(BrachaConsensus, "_on_rbc", recording_on_rbc)

        deliver = Process.deliver

        def watching_deliver(process, sender, payload):
            seen.deliveries += 1
            layer, message = process.modules.get(payload[0]), payload[1]
            spent = (isinstance(layer, BroadcastLayer)
                     and isinstance(message, RbcMessage)
                     and _spent(layer, message))
            if spent:
                pair = (message.instance, message.originator)
                before = copy.deepcopy(layer.instance_state(*pair))
            appended, drains, emitted = (
                process.outbox.appended, seen.drains, seen.emitted)
            deliver(process, sender, payload)
            enqueued = process.outbox.appended - appended
            if seen.drains - drains > (1 if enqueued else 0):
                seen.idle_drains += 1
            if spent:
                seen.spent += 1
                if (layer.instance_state(*pair) != before
                        or enqueued or seen.emitted != emitted):
                    seen.disturbed.append(message)

        patch.setattr(Process, "deliver", watching_deliver)

        sim_run = assemble(scenario).run()
        seen.result = sim_run.result()
    layers = [process.modules["rbc"]
              for process in sim_run.sim.network.processes.values()]
    seen.accepted = sum(
        state.accepted for layer in layers
        for state in layer._instances.values())
    return seen


def test_the_run_is_the_pinned_one(probe):
    assert (probe.result.steps, probe.deliveries) == (31918, 31918)
    assert probe.accepted == probe.emitted == 2100


def test_thresholds_are_read_once_per_bound_layer(probe):
    # One BroadcastLayer per process; nothing reads them per message.
    assert probe.reads == dict.fromkeys(THRESHOLDS, probe.n)


def test_a_delivery_that_enqueued_nothing_drains_nothing(probe):
    assert probe.idle_drains == 0
    assert probe.drains < probe.deliveries // 4  # 6 deliveries in 7 are idle


def test_an_acceptance_is_offered_to_the_module_it_names(probe):
    assert len(probe.heard) == probe.accepted  # not instances x acceptances
    assert all(module_id == tag for module_id, tag in probe.heard)


def test_a_spent_message_touches_nothing(probe):
    # An ECHO after READY went out, a READY after the acceptance: no
    # tally grows, nothing is enqueued, nothing is emitted.
    assert probe.disturbed == []
    assert probe.spent * 5 > probe.deliveries  # over a fifth of all steps
