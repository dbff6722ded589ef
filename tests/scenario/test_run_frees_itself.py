"""A finished sim run frees itself by reference counting.

A run's object graph is cyclic while it runs (process ↔ module ↔
context, listener lists, the network's registry, the clock closures).
``run(scenario)`` closes it before returning, so nothing it built is
left for the cycle collector: under ``gc.disable()`` a collection
right after the run finds no garbage at all.  An :func:`assemble`d run
stays live until its caller closes it.
"""

import collections
import gc

import pytest

from repro.errors import EventBudgetExceeded, SimulationError
from repro.scenario import CATALOG, Scenario, assemble, run

SIM_ENTRIES = sorted(name for name, s in CATALOG.items() if s.fabric == "sim")

#: The benchmark's two simulator shapes: n=7, eight instances, batched.
E2E_SHAPES = {
    "e2e-sim-bracha": Scenario(fabric="sim", n=7, instances=8,
                               batching="flush", seed=1000),
    "e2e-sim-observed": Scenario(fabric="sim", n=7, instances=8,
                                 batching="flush", observe="ring",
                                 profile="on", seed=1000),
}

SHAPES = {
    **{name: CATALOG[name] for name in SIM_ENTRIES},
    **E2E_SHAPES,
    # Ends with a coin request still waiting for shares: the share coin
    # holds a consensus module's callback when the run stops.
    "shares-coin-pending": CATALOG["shares-coin"].replace(seed=9),
}


def cyclic_garbage(action):
    """What the collector finds after ``action()`` with automatic
    collection off: ``{type name: count}``, empty when nothing is left."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        return dict(collections.Counter(type(o).__name__ for o in gc.garbage))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_a_sim_run_leaves_no_cyclic_garbage(name):
    left = cyclic_garbage(lambda: run(SHAPES[name], check=False))
    assert left == {}, f"{name} left cyclic garbage: {left}"


@pytest.mark.parametrize("check", [False, True])
def test_a_run_that_exhausts_its_budget_frees_itself_too(check):
    scenario = Scenario(fabric="sim", n=4, proposals=1, seed=3, max_steps=20)

    def exhausted():
        try:
            result = run(scenario, check=check)
        except EventBudgetExceeded:
            assert check
        else:
            assert not check and result.violations

    assert cyclic_garbage(exhausted) == {}


def test_a_run_with_a_restart_frees_the_discarded_incarnation():
    scenario = Scenario(fabric="sim", n=4, proposals=1, observe="ring", seed=4,
                        faults={2: {"kind": "restart", "after": 5}})

    def restarted():
        assert run(scenario, check=False).meta["restarted"] == [2]

    assert cyclic_garbage(restarted) == {}


def test_close_is_idempotent_and_a_closed_run_cannot_deliver():
    handle = assemble(CATALOG["unanimous-fast-path"]).run()
    result = handle.result()
    handle.close()
    handle.close()
    assert handle.sim.steps == result.steps
    with pytest.raises(SimulationError, match="closed"):
        handle.sim.run()
    with pytest.raises(SimulationError, match="closed"):
        handle.sim.step()


def test_an_assembled_run_stays_inspectable_after_its_result():
    handle = assemble(E2E_SHAPES["e2e-sim-observed"]).run()
    result = handle.result()
    network = handle.sim.network
    assert sorted(network.processes) == list(range(7))
    for pid, modules in handle.stacks.items():
        assert network.processes[pid].modules
        assert [m.decision for m in modules] == (
            result.meta["instance_decisions"][pid])
    assert handle.observer.now() == handle.sim.now
    # Still live: more steps may be taken until the caller closes it.
    assert handle.sim.step()
