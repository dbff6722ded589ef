"""Network registration/delivery and the simulation loop."""

import pytest

from repro.errors import EventBudgetExceeded, SimulationError
from repro.params import ProtocolParams
from repro.sim.process import Process, ProtocolModule
from repro.sim.runner import Simulation
from repro.sim.scheduler import RoundRobinScheduler, Scheduler, ScriptedScheduler


class Echoer(ProtocolModule):
    """Replies once to every 'ping' with a 'pong' (for loop tests)."""

    def __init__(self):
        super().__init__("echo")
        self.got = []

    def on_message(self, sender, payload):
        self.got.append((sender, payload))
        if payload == "ping":
            self.ctx.send(sender, "pong")


class FixedRank(Scheduler):
    """Names one rank, whatever is pending."""

    def __init__(self, rank):
        super().__init__()
        self.rank = rank

    def choose(self):
        return self.rank, self._advance()


def two_process_sim(seed=0, scheduler=None):
    sim = Simulation(seed=seed, scheduler=scheduler)
    params = ProtocolParams(2, 0)
    modules = []
    for pid in range(2):
        process = Process(pid, sim.network, params)
        modules.append(process.add_module(Echoer()))
    return sim, modules


class TestNetwork:
    def test_double_registration_rejected(self):
        sim = Simulation()
        params = ProtocolParams(2, 0)
        Process(0, sim.network, params)
        with pytest.raises(SimulationError):
            Process(0, sim.network, params)

    def test_send_to_unknown_pid_rejected(self):
        sim, _modules = two_process_sim()
        with pytest.raises(SimulationError):
            sim.network.send(0, 5, ("echo", "x"))

    def test_metrics_count_sends_and_deliveries(self):
        sim, _ = two_process_sim()
        sim.start()
        sim.network.send(0, 1, ("echo", "ping"))
        sim.run()
        net = sim.network
        assert net.sent == 2  # ping + pong
        assert net.sent_by_kind == {0: {"echo/str": 1}, 1: {"echo/str": 1}}
        assert net.delivered == {0: 1, 1: 1}
        assert net.dropped == 0

    def test_outbound_filter_can_drop(self):
        sim, modules = two_process_sim()
        sim.network.outbound_filter = lambda env: env.payload[1] != "pong"
        sim.start()
        sim.network.send(0, 1, ("echo", "ping"))
        sim.run()
        assert sim.network.dropped == 1
        assert sim.network.sent_by_kind[1] == {}  # a refused send is not a send
        assert modules[0].got == []  # the pong never came back

    def test_any_registered_deliverable_receives(self):
        sim = Simulation()
        Process(0, sim.network, ProtocolParams(2, 0)).add_module(Echoer())

        class Sink:
            pid = 1

            def __init__(self):
                self.seen = []

            def deliver(self, sender, payload):
                self.seen.append(payload)

            def start(self):
                pass

        sink = Sink()
        sim.network.register(sink)
        sim.start()
        sim.network.send(0, 1, ("echo", "ping"))
        sim.run()
        assert sink.seen == [("echo", "ping")]


class TestSimulationLoop:
    def test_step_on_empty_returns_false(self):
        sim, _ = two_process_sim()
        sim.start()
        assert sim.step() is False

    def test_run_until_predicate(self):
        sim, modules = two_process_sim()
        sim.start()
        sim.network.send(0, 1, ("echo", "ping"))
        sim.run(until=lambda: bool(modules[1].got))
        assert modules[1].got == [(0, "ping")]

    def test_budget_exhaustion_raises_with_count(self):
        sim, _ = two_process_sim()

        class Pinger(ProtocolModule):
            def __init__(self):
                super().__init__("pinger")

            def on_message(self, sender, payload):
                self.ctx.send(sender, payload)  # infinite rally

        params = ProtocolParams(2, 0)
        # fresh sim with rallying processes
        sim = Simulation()
        for pid in range(2):
            Process(pid, sim.network, params).add_module(Pinger())
        sim.start()
        sim.network.send(0, 1, ("pinger", "ball"))
        with pytest.raises(EventBudgetExceeded) as info:
            sim.run(max_steps=500)
        assert info.value.steps >= 500

    def test_budget_counts_only_against_messages_still_in_flight(self):
        def three_sends():
            sim, _ = two_process_sim()
            sim.start()
            for word in ("a", "b", "c"):  # no replies: exactly 3 steps
                sim.network.send(0, 1, ("echo", word))
            return sim

        # Draining on exactly the last budgeted step is quiescence ...
        sim = three_sends()
        assert sim.run(max_steps=3) == 3
        assert sim.quiescent
        # ... and one step short of that, a message is still pending.
        sim = three_sends()
        with pytest.raises(EventBudgetExceeded):
            sim.run(max_steps=2)
        assert len(sim.pending) == 1
        # An unmet predicate with nothing left to deliver is quiescence too.
        sim = three_sends()
        assert sim.run(until=lambda: False, max_steps=3) == 3

    @pytest.mark.parametrize("rank", [1, -1, 5])
    def test_network_refuses_an_out_of_range_rank(self, rank):
        """A delivery is named by its rank, never by an envelope, so the
        network adversary can reorder but has nothing to forge; a rank
        past the pending set delivers nothing."""
        sim, modules = two_process_sim(scheduler=FixedRank(rank))
        sim.start()
        sim.network.send(0, 1, ("echo", "ping"))
        genuine = sim.pending.at(0)
        with pytest.raises(IndexError):
            sim.step()
        assert modules[0].got == modules[1].got == []
        assert not sim.network.delivered
        assert list(sim.pending) == [genuine]

    def test_every_delivery_is_recorded_by_rank_and_replays(self):
        def transcript(scheduler=None):
            sim, modules = two_process_sim(seed=5, scheduler=scheduler)
            sim.start()
            for i in range(6):
                sim.network.send(0, 1, ("echo", "ping"))
                sim.network.send(1, 0, ("echo", f"m{i}"))
            sim.run()
            return [m.got for m in modules], sim.schedule

        got, schedule = transcript()
        assert len(schedule) == 18  # 12 sends + 6 pongs
        assert transcript(ScriptedScheduler(schedule)) == (got, schedule)

    def test_double_start_rejected(self):
        sim, _ = two_process_sim()
        sim.start()
        with pytest.raises(SimulationError):
            sim.start()

    def test_auto_start_on_run(self):
        sim, modules = two_process_sim()
        sim.network.send(0, 1, ("echo", "ping"))
        sim.run()  # run() must start() implicitly
        assert modules[1].got

    def test_quiescent_property(self):
        sim, _ = two_process_sim()
        sim.start()
        assert sim.quiescent
        sim.network.send(0, 1, ("echo", "ping"))
        assert not sim.quiescent
        sim.run()
        assert sim.quiescent

    def test_deterministic_replay_same_seed(self):
        def transcript(seed):
            sim, modules = two_process_sim(seed=seed)
            sim.start()
            for _ in range(3):
                sim.network.send(0, 1, ("echo", "ping"))
                sim.network.send(1, 0, ("echo", "ping"))
            sim.run()
            return [m.got for m in modules], sim.steps

        assert transcript(123) == transcript(123)

    def test_different_seeds_may_differ(self):
        """Not guaranteed in theory, overwhelmingly likely in practice."""

        def order(seed):
            sim, modules = two_process_sim(seed=seed)
            sim.start()
            for i in range(10):
                sim.network.send(0, 1, ("echo", f"m{i}"))
                sim.network.send(1, 0, ("echo", f"m{i}"))
            sim.run()
            return [m.got for m in modules]

        assert any(order(s) != order(0) for s in (1, 2, 3))

    def test_round_robin_scheduler_integrates(self):
        sim = Simulation(scheduler=RoundRobinScheduler())
        params = ProtocolParams(2, 0)
        modules = [
            Process(pid, sim.network, params).add_module(Echoer())
            for pid in range(2)
        ]
        sim.start()
        sim.network.send(0, 1, ("echo", "ping"))
        sim.run()
        assert modules[0].got == [(1, "pong")]
