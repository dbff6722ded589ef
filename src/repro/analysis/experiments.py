"""The reliable-broadcast experiment: one bare RBC instance, checked.

Consensus runs are declared as a :class:`~repro.scenario.Scenario` and
executed by :func:`repro.scenario.run`.  Bare reliable broadcast is not a
scenario protocol, so the paper's O(n²)-messages-per-broadcast claim
(``benchmarks/bench_t1_broadcast.py``) runs it here:
:func:`run_broadcast` wires one broadcast instance onto the
simulator under optional equivocation / silence and checks consistency
and totality on the way out.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ..adversary.behaviors import EquivocatingBroadcaster, SilentBehavior
from ..core.broadcast import BroadcastLayer, RbcDelivery
from ..errors import BroadcastConsistencyViolation, ConfigError
from ..params import for_system
from ..sim.process import Process
from ..sim.runner import Simulation
from ..sim.scheduler import Scheduler
from ..types import ProcessId


def broadcast_stack(process: Process, accepted: Dict[ProcessId, Dict[Any, Any]]) -> BroadcastLayer:
    """Install a bare reliable-broadcast stack; acceptances land in
    ``accepted[pid][instance] = value``."""
    rbc = BroadcastLayer()
    process.add_module(rbc)

    def on_delivery(event: RbcDelivery, pid: ProcessId = process.pid) -> None:
        accepted.setdefault(pid, {})[event.instance] = event.value

    rbc.subscribe(on_delivery)
    return rbc


def run_broadcast(
    n: int,
    t: Optional[int] = None,
    sender: ProcessId = 0,
    value: Any = "payload",
    instance: Any = ("rbc-exp", 0),
    equivocate: Optional[tuple[Any, Any]] = None,
    silent: Sequence[ProcessId] = (),
    scheduler: Optional[Scheduler] = None,
    seed: int = 0,
    max_steps: int = 500_000,
    check: bool = True,
) -> Dict[str, Any]:
    """One reliable-broadcast instance under optional faults.

    If ``equivocate`` is given, the sender is Byzantine and INITs the two
    values to two halves of the system; ``silent`` marks additional
    crash-at-start processes.  Returns acceptance maps and metrics, and
    (with ``check=True``) asserts consistency — no two correct processes
    accept different values — plus totality: if anyone accepted, all
    correct processes accepted.
    """
    params = for_system(n, t)
    outside = sorted({sender, *silent} - set(range(n)))
    if outside:
        raise ConfigError(
            f"sender/silent pids {outside} are outside 0..{n - 1}"
        )
    fault_pids = set(silent) | ({sender} if equivocate else set())
    if len(fault_pids) > params.t:
        raise ConfigError(f"{len(fault_pids)} faults exceed t={params.t}")

    sim = Simulation(seed=seed, scheduler=scheduler)
    accepted: Dict[ProcessId, Dict[Any, Any]] = {}
    layers: Dict[ProcessId, BroadcastLayer] = {}
    for pid in range(n):
        if pid in fault_pids and pid != sender:
            sim.network.register(SilentBehavior(pid, sim.network, params))
        elif pid == sender and equivocate is not None:
            behavior = EquivocatingBroadcaster(
                pid, sim.network, params,
                instance=instance,
                value_a=equivocate[0],
                value_b=equivocate[1],
                group_a=[q for q in range(n) if q != pid][: (n - 1) // 2],
            )
            sim.network.register(behavior)
        else:
            process = Process(pid, sim.network, params)
            layers[pid] = broadcast_stack(process, accepted)

    sim.start()
    if equivocate is None and sender in layers:
        layers[sender].broadcast(instance, value)
    sim.run(max_steps=max_steps)

    outcomes = {pid: accepted.get(pid, {}).get(instance) for pid in layers}
    accepted_values = {v for v in outcomes.values() if v is not None}
    report: Dict[str, Any] = {
        "outcomes": outcomes,
        "accepted_values": accepted_values,
        "messages": sim.network.sent,
        "steps": sim.steps,
        "violations": [],
    }
    if len(accepted_values) > 1:
        message = f"correct processes accepted {accepted_values}"
        report["violations"].append(message)
        if check:
            raise BroadcastConsistencyViolation(message)
    if accepted_values:
        missing = [pid for pid, v in outcomes.items() if v is None]
        if missing:
            message = f"totality broken: {missing} never accepted"
            report["violations"].append(message)
            if check:
                raise BroadcastConsistencyViolation(message)
    return report
