#!/usr/bin/env python3
"""Runtime demo: one declarative scenario on three execution fabrics.

Builds a single :class:`repro.scenario.Scenario` — Bracha, n=4, one
silent fault — and executes the *same object* under

1. the discrete-event simulator,
2. the asyncio in-process transport,
3. authenticated binary frames over TCP on localhost,

printing the decision and cost of each — same protocol modules, same
safety checks, three very different notions of "the network".

    python examples/runtime_demo.py [seed]
"""

import sys

from repro.scenario import Scenario, run


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    # Correct processes are unanimous, so strong validity pins the
    # decision and all three fabrics must produce the same value — a
    # scheduling-independent fact worth asserting in a demo.
    scenario = Scenario(
        name="runtime-demo",
        protocol="bracha",
        n=4,
        proposals=[1, 1, 1, 0],
        faults={3: "silent"},
        seed=seed,
    )

    print("=== one scenario, three fabrics ===")
    print(f"system: {scenario.params.describe()}")
    print(f"inputs: p0=p1=p2=1, p3 silent-Byzantine, seed={seed}")
    print(f"spec  : {scenario.to_dict()}")
    print()

    sim = run(scenario)  # fabric defaults to "sim"
    print(f"simulator : decision {sorted(sim.decided_values)}, "
          f"{sim.messages_sent} messages, {sim.steps} delivery steps")

    local = run(scenario, fabric="local")
    print(f"asyncio   : decision {sorted(local.decided_values)}, "
          f"{local.messages_sent} messages, "
          f"{local.virtual_time * 1000:.1f} ms wall time")

    tcp = run(scenario, fabric="tcp")
    rejected = tcp.metrics.counter("frames_rejected")
    print(f"tcp (MACs): decision {sorted(tcp.decided_values)}, "
          f"{tcp.messages_sent} messages, "
          f"{tcp.virtual_time * 1000:.1f} ms wall time, "
          f"{rejected} frames rejected")

    print()
    values = sim.decided_values | local.decided_values | tcp.decided_values
    assert len(values) == 1, values
    print(f"all three fabrics agree on {values.pop()} — "
          "every run passed agreement + validity checks")


if __name__ == "__main__":
    main()
