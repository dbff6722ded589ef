"""What one simulator step is allowed to cost, and when a run stops.

The sim fabric keeps its books per broadcast and per decision, not per
destination and per step: a payload is classified for the send counters
once per applied effect (never at delivery), a random step runs no
scheduler, pending-set or network frame before the process's own, and
the stop predicate watches only the stacks that are not yet done, after
a step that could have finished one.  None of this may move a run's
outcome — the predicate in particular must turn true on exactly the
step a poll of every stack would.
"""

from collections import Counter

import pytest

import repro.obs.events as events_module
import repro.sim.network as network_module
from repro.obs import Observer, RingSink
from repro.recovery.restart import RestartBehavior
from repro.scenario import Scenario, assemble, run
from repro.sim.effects import Broadcast, CausalStamper, Send
from repro.sim.events import PendingSet
from repro.sim.process import Process
from repro.sim.runner import Simulation
from repro.sim.scheduler import RandomScheduler, Scheduler
from repro.stacks import STACKS, ProtocolPlan
from repro.types import Envelope


def test_a_payload_is_classified_once_per_applied_effect(monkeypatch):
    # The benchmark's sim-bracha-n7x8 shape, seed 1001, unobserved.
    scenario = Scenario(protocol="bracha", n=7, instances=8,
                        batching="flush", seed=1001)
    classified = []
    kind_of = network_module.payload_kind
    monkeypatch.setattr(
        network_module, "payload_kind",
        lambda payload: classified.append(1) or kind_of(payload))
    applied = []
    apply_effect = Process._apply

    def counting_apply(process, effect):
        if type(effect) in (Send, Broadcast):
            applied.append(1)
        apply_effect(process, effect)

    monkeypatch.setattr(Process, "_apply", counting_apply)
    result = run(scenario)
    assert result.messages_sent > 6 * len(applied)  # nearly all broadcasts
    assert 0 < len(classified) <= len(applied)
    # The per-kind send counters still cover every message.
    assert sum(result.meta["messages_by_kind"].values()) == result.messages_sent


class _CountingIndex(dict):
    """A uid index that counts its removals: one per envelope taken out
    of the pending set, whichever path takes it."""

    removed = 0

    def __delitem__(self, uid):
        type(self).removed += 1
        super().__delitem__(uid)


def _count_removals(monkeypatch):
    init = PendingSet.__init__

    def counting_init(pending):
        init(pending)
        pending._seq_of = _CountingIndex()
        pending.count = pending._seq_of.__len__

    monkeypatch.setattr(_CountingIndex, "removed", 0)
    monkeypatch.setattr(PendingSet, "__init__", counting_init)


def test_a_delivery_is_one_removal_and_no_lookup(monkeypatch):
    # The benchmark's sim-bracha-n7x8 shape, seed 1001, uniform random
    # delivery: the runner takes out the rank its scheduler names, once
    # per step, and never fetches, ranks or walks the set besides.
    scenario = Scenario(protocol="bracha", n=7, instances=8,
                        batching="flush", seed=1001, scheduler="random")
    calls = Counter()

    def counted(name, method):
        def wrapper(pending, *args):
            calls[name] += 1
            return method(pending, *args)
        return wrapper

    for name in ("at", "rank", "__iter__"):
        monkeypatch.setattr(PendingSet, name,
                            counted(name, getattr(PendingSet, name)))
    _count_removals(monkeypatch)
    result = run(scenario)
    assert calls == {}
    assert _CountingIndex.removed == result.steps == 31918


def test_a_random_step_pays_no_frame_before_the_process(monkeypatch):
    # The benchmark's sim-bracha-n7x8 shape, seed 1001: the stock random
    # draw, the one-block pop and the delivery run in the step loop, so
    # neither ``RandomScheduler.choose`` nor ``PendingSet.pop`` is
    # called — and the run is the one it was.
    scenario = Scenario(protocol="bracha", n=7, instances=8,
                        batching="flush", seed=1001)
    calls = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(RandomScheduler, "choose",
                        counted("choose", RandomScheduler.choose))
    monkeypatch.setattr(PendingSet, "pop", counted("pop", PendingSet.pop))
    result = run(scenario)
    assert calls == {}
    assert (result.steps, result.messages_sent) == (31918, 32130)


def test_a_step_pays_no_python_frame_for_its_bookkeeping(monkeypatch):
    # The benchmark's sim-bracha-n7x8 shape, seed 1001: the envelope is
    # built without the namedtuple's ``__new__``, the pending count is
    # the uid index's own ``__len__`` and the random scheduler's clock
    # advances inline — and the run is the one it was.
    scenario = Scenario(protocol="bracha", n=7, instances=8,
                        batching="flush", seed=1001)
    calls = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Envelope, "__new__", staticmethod(
        counted("Envelope.__new__", Envelope.__new__)))
    monkeypatch.setattr(PendingSet, "__len__",
                        counted("__len__", PendingSet.__len__))
    monkeypatch.setattr(Scheduler, "_advance",
                        counted("_advance", Scheduler._advance))
    assert not hasattr(PendingSet, "__bool__")  # truthiness is ``__len__``
    result = run(scenario)
    assert calls == {}
    assert (result.steps, result.messages_sent) == (31918, 32130)


def test_an_observed_step_pays_no_python_frame_for_its_record(monkeypatch):
    # The benchmark's sim-observed-n7x8 shape, seed 1001: a send or a
    # delivery goes into the ring as six scalars through the store's own
    # C-level ``extend`` — no sink or observer method, no stamper, no
    # classification; a fan-out names its payload to the sink once, and
    # only the run's other events are emitted — and the run is the one
    # it was.
    scenario = Scenario(protocol="bracha", n=7, instances=8,
                        batching="flush", seed=1001, observe="ring",
                        profile="on")
    calls = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Observer, "message",
                        counted("message", Observer.message))
    monkeypatch.setattr(RingSink, "message",
                        counted("sink.message", RingSink.message))
    monkeypatch.setattr(RingSink, "emit", counted("sink.emit", RingSink.emit))
    monkeypatch.setattr(RingSink, "named", counted("sink.named", RingSink.named))
    monkeypatch.setattr(network_module.Network, "_fan_out", counted(
        "fan_out", network_module.Network._fan_out))
    monkeypatch.setattr(CausalStamper, "stamp",
                        counted("stamp", CausalStamper.stamp))
    monkeypatch.setattr(events_module, "classify_payload", counted(
        "classify_payload", events_module.classify_payload))
    result = run(scenario)
    assert (result.steps, result.messages_sent) == (31918, 32130)
    assert result.meta["obs"]["events"] == 64209
    messages = result.steps + result.messages_sent
    fan_outs = calls.pop("fan_out")
    assert calls == {"sink.emit": 64209 - messages, "sink.named": fan_outs}
    assert fan_outs * 4 < result.messages_sent


RESTART = {0: {"kind": "restart", "after": 4, "down": 2}}


def _full_poll_steps(scenario, monkeypatch):
    """``steps`` of the same run stopped by a reference predicate that
    polls every correct stack after every step."""
    built = {}
    plans = []
    build = ProtocolPlan.build

    def recording_build(plan, process):
        plans.append(plan)
        built[process] = build(plan, process)
        return built[process]

    sim_run = Simulation.run

    def full_poll_run(sim, until=None, max_steps=2_000_000):
        plan = plans[0]
        done = plan.decided if scenario.stop == "decided" else plan.halted
        node_done = (RestartBehavior.is_decided if scenario.stop == "decided"
                     else RestartBehavior.is_halted)

        def reference():
            for target in sim.network.processes.values():
                if isinstance(target, RestartBehavior):
                    if not node_done(target, plan):
                        return False
                elif isinstance(target, Process) and not done(built[target]):
                    return False
            return True

        assert until is not None
        return sim_run(sim, until=reference, max_steps=max_steps)

    with monkeypatch.context() as patch:
        patch.setattr(ProtocolPlan, "build", recording_build)
        patch.setattr(Simulation, "run", full_poll_run)
        return run(scenario).steps


@pytest.mark.parametrize("faults", [{}, RESTART, {3: "silent"}],
                         ids=["all-correct", "restart-node", "silent-node"])
@pytest.mark.parametrize("stop", ["decided", "halted"])
@pytest.mark.parametrize("shape", [
    {"protocol": "bracha", "instances": 2, "seed": 3},
    {"protocol": "bracha", "instances": 2, "seed": 11},
    {"protocol": "acs", "seed": 3},
    {"protocol": "benor", "seed": 3},
    {"protocol": "benor", "seed": 11},
    {"protocol": "mmr14", "seed": 3},
    # The benchmark's sim-observed-n7x8 shape.
    {"protocol": "bracha", "n": 7, "instances": 8, "batching": "flush",
     "observe": "ring", "profile": "on", "seed": 1001},
], ids=["bracha-x2-s3", "bracha-x2-s11", "acs", "benor-s3", "benor-s11",
        "mmr14", "observed-n7x8"])
def test_the_stop_predicate_fires_on_the_step_a_full_poll_would(
        shape, stop, faults, monkeypatch):
    scenario = Scenario(**{"n": 4, "stop": stop, "faults": faults, **shape})
    result = run(scenario)
    assert result.steps == _full_poll_steps(scenario, monkeypatch)
    assert len(result.decisions) == scenario.n - (faults == {3: "silent"})


def test_a_stack_passed_in_is_polled_after_every_step():
    # Its ``decided`` may turn on with no Decide effect reaching the
    # hook: here the stack unhooks it.  The run still stops where the
    # built-in stack's does.
    def unhooked(process, coin):
        process.on_decide = None
        return STACKS["bracha"](process, coin)

    scenario = Scenario(n=4, stop="decided", seed=3)
    plan = ProtocolPlan.for_scenario(scenario, stack=unhooked)
    assert not plan.decides_by_effect
    assert ProtocolPlan.for_scenario(scenario).decides_by_effect
    sim_run = assemble(scenario, plan=plan).run()
    try:
        assert sim_run.sim.steps == run(scenario).steps
    finally:
        sim_run.close()
