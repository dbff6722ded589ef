"""Sim-vs-runtime parity: the same protocol code, two execution worlds.

The contract of the runtime is that protocol modules run *unmodified*
over real transports.  These tests hold it to that:

* **Exact-value parity** — a seeded unanimous instance must decide the
  same value under the discrete-event :class:`~repro.sim.runner.Simulation`
  and under the asyncio in-process transport, for Bracha's consensus
  and for the Ben-Or baseline.  (Unanimity pins the outcome through
  strong validity, so the assertion is scheduling-independent; local
  coin bits are derived from the same master seed in both worlds.)
* **Property parity** — for split proposals the *value* may legitimately
  depend on the interleaving, but agreement, validity, and integrity
  must hold in both worlds, checked by the same
  :func:`~repro.outcome.build_result` code path.
"""

import pytest

from repro.scenario import Scenario
from repro.scenario import run as run_scenario

SEEDS = [0, 1, 2]


@pytest.mark.parametrize("protocol", ["bracha", "benor"])
@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_unanimous_decisions_match_the_simulator(protocol, bit, seed):
    sim = run_scenario(Scenario(protocol=protocol, n=4, proposals=bit, seed=seed))
    run = run_scenario(Scenario(
        protocol=protocol, proposals=bit, seed=seed,
        fabric="local", timeout=30.0,
    ))
    assert sim.decided_values == run.decided_values == {bit}
    assert len(run.decisions) == 4, "every node decides"


@pytest.mark.parametrize("protocol", ["bracha", "benor"])
def test_split_proposals_agree_in_both_worlds(protocol):
    seed = 5
    sim = run_scenario(
        Scenario(protocol=protocol, n=4, proposals=[0, 1, 0, 1], seed=seed)
    )
    # run() applies build_result's checks: agreement + validity +
    # integrity + liveness, same checker as the sim fabric.
    run = run_scenario(Scenario(
        protocol=protocol, proposals=[0, 1, 0, 1], seed=seed,
        fabric="local", timeout=30.0,
    ))
    assert len(sim.decided_values) == 1
    assert len(run.decided_values) == 1
    assert run.decided_values <= {0, 1}
    assert not run.violations


def test_local_coin_bits_are_identical_across_worlds():
    """The parity above is meaningful because randomness is shared: a
    node's local coin is a pure function of (master seed, pid, round) in
    both worlds."""
    from repro.core.coin import LocalCoin
    from repro.runtime.node import NodeNetwork
    from repro.params import for_system
    from repro.sim.process import Process
    from repro.sim.runner import Simulation

    params = for_system(4)
    seed = 13

    sim = Simulation(seed=seed)
    sim_bits = {}
    runtime_bits = {}
    for pid in range(4):
        sim_process = Process(pid, sim.network, params)
        source = LocalCoin().attach(sim_process)
        source.request(3, lambda r, b, p=pid: sim_bits.__setitem__(p, b))

        net = NodeNetwork(pid, params, seed=seed)
        run_process = Process(pid, net, params)
        source = LocalCoin().attach(run_process)
        source.request(3, lambda r, b, p=pid: runtime_bits.__setitem__(p, b))

    assert sim_bits == runtime_bits


def test_runtime_with_silent_fault_matches_fault_free_validity():
    run = run_scenario(Scenario(
        t=1, proposals=1, seed=7, faults={3: "silent"},
        fabric="local", timeout=30.0,
    ))
    assert run.decided_values == {1}
    assert sorted(run.decisions) == [0, 1, 2]
