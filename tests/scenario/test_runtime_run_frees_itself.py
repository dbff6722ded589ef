"""A finished runtime run frees itself by reference counting, as a sim run does.

Shutting a cluster down unlinks what ties its graph into cycles — each
node's stack and decide hook, the network's registry, the finished
pump, the local hub's endpoint table, the tcp listener, the observer's
clock — so a collection right after ``run(scenario)`` on ``local``
finds no garbage at all.  On ``tcp`` it finds only asyncio's own
cycles: each connection's ``_SelectorSocketTransport`` holds a bound
method of itself, with its socket, ``2 * n * (n - 1)`` of them a run.
"""

import pytest

from repro.scenario import Scenario, run

from .test_run_frees_itself import cyclic_garbage

#: The benchmark's runtime shape: n=7, eight instances, batched.
N7X8 = dict(protocol="bracha", n=7, instances=8, batching="flush", seed=1000)

LOCAL_SHAPES = {
    "n7x8": Scenario(fabric="local", **N7X8),
    "observed-profiled": Scenario(fabric="local", n=4, instances=2,
                                  observe="ring", profile="on", seed=3),
    "lossy-wal-silent": Scenario(
        fabric="local", n=4, instances=4, batching="flush", seed=3,
        recovery="wal", faults={3: "silent"},
        link={"loss": 0.1, "delay": 0.003, "jitter": 0.002,
              "duplicate": 0.05, "reorder": 0.1},
    ),
    "two-faced": Scenario(fabric="local", n=4, seed=3,
                          faults={3: "two_faced"}),
    "acs": Scenario(fabric="local", protocol="acs", n=4, seed=3),
}

#: What one asyncio socket transport leaves: itself, its bound
#: ``_read_ready`` method, its socket (and asyncio's wrapper of it).
ASYNCIO_PAIR = {"_SelectorSocketTransport": 1, "method": 1, "socket": 1,
                "TransportSocket": 1, "dict": 1, "tuple": 2}


def _after_a_warm_run(scenario):
    run(scenario, check=False)  # first-run caches are not the run's
    return cyclic_garbage(lambda: run(scenario, check=False))


@pytest.mark.parametrize("name", sorted(LOCAL_SHAPES))
def test_a_local_run_leaves_no_cyclic_garbage(name):
    left = _after_a_warm_run(LOCAL_SHAPES[name])
    assert left == {}, f"{name} left cyclic garbage: {left}"


@pytest.mark.parametrize("shape", [
    N7X8,
    dict(protocol="bracha", n=4, instances=2, observe="ring", seed=3),
], ids=["n7x8", "observed-n4"])
def test_a_tcp_run_leaves_only_asyncios_socket_transports(shape):
    left = _after_a_warm_run(Scenario(fabric="tcp", **shape))
    # One per connection end: 2 * n * (n - 1) of them, or more after a
    # reconnect, which leaves one more of asyncio's pairs.
    transports = left.get("_SelectorSocketTransport", 0)
    assert left == {kind: count * transports
                    for kind, count in ASYNCIO_PAIR.items() if transports}

