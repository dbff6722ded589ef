"""System assembly and checked execution of protocol runs.

The functions here are the library's "main()": they wire the simulator,
network, protocol stacks, coin scheme, and fault injection together,
execute a seeded run, and verify the paper's safety properties on the
result.  Tests, benchmarks, and examples all go through this module, so
every experiment in the repository gets safety checking for free.

Specifying runs:

* ``proposals`` — ``None`` (split ``pid % 2``), a single bit (unanimous),
  a sequence indexed by pid, or a mapping.
* ``coin`` — ``"local"`` (paper's base model), ``"dealer"`` (oracle
  common coin), ``"shares"`` (distributed Rabin coin), or any
  :class:`~repro.core.coin.CoinScheme` instance.
* ``faults`` — mapping from pid to a behavior spec: a kind string
  (``"silent"``, ``"crash"``, ``"two_faced"``, ``"fuzzer"``,
  ``"stubborn"``) or a dict
  ``{"kind": ..., **kwargs}``.
* ``scheduler`` — any :class:`~repro.sim.scheduler.Scheduler`; default
  uniform random.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Union

from ..adversary.behaviors import (
    ByzantineBehavior,
    SilentBehavior,
    dispatch_behavior,
)
from ..core.broadcast import BroadcastLayer, RbcDelivery
from ..core.coin import CoinScheme, DealerCoin, LocalCoin, ShareCoinProvider
from ..core.consensus import BrachaConsensus
from ..errors import ConfigError, EventBudgetExceeded
from ..outcome import NodeReport, build_result
from ..params import ProtocolParams, for_system
from ..sim.process import Process, ProtocolModule
from ..sim.rng import derive_seed
from ..sim.runner import Simulation
from ..sim.scheduler import Scheduler
from ..types import Bit, ProcessId, RunResult

FaultSpec = Union[str, Mapping[str, Any]]
ProposalSpec = Union[None, int, Sequence[int], Mapping[int, int]]
StackFactory = Callable[[Process, CoinScheme], Any]
"""Builds a protocol stack on a process; returns the consensus-like module
(anything with ``propose``/``decided``/``decision``/``halted``/``stats``/
``invariant_flags``).  The default is the Bracha stack; the baseline
harness passes Ben-Or and MMR-14 builders."""


# ---------------------------------------------------------------------------
# Stack builders
# ---------------------------------------------------------------------------


class _Proposer(ProtocolModule):
    """Injects a proposal when the simulation starts.

    Used for the honest stacks inside fault behaviors (crash, two-faced):
    proposing at construction time would send messages before every
    process is registered, so the proposal is deferred to ``start()``.
    """

    def __init__(self, consensus: Any, bit: Bit):
        super().__init__(f"_proposer-{consensus.module_id}")
        self._consensus = consensus
        self._bit = bit

    def start(self) -> None:
        self._consensus.propose(self._bit)

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        pass


def build_consensus_stack(process: Process, coin_scheme: CoinScheme) -> BrachaConsensus:
    """Install the full Bracha stack (RBC + coin + consensus) on a process."""
    rbc = BroadcastLayer()
    process.add_module(rbc)
    coin_source = coin_scheme.attach(process)
    consensus = BrachaConsensus(rbc, coin_source)
    process.add_module(consensus)
    return consensus


def ablation_stack(validate: bool = True, amplify_decides: bool = True) -> StackFactory:
    """A Bracha stack factory with ablation switches (experiments only).

    ``validate=False`` removes the justification machinery — the A1
    experiment shows a single Byzantine process then breaking strong
    validity.  ``amplify_decides=False`` removes the halting layer — the
    A2 experiment shows executions that never quiesce.
    """

    def factory(process: Process, coin_scheme: CoinScheme) -> BrachaConsensus:
        rbc = BroadcastLayer()
        process.add_module(rbc)
        coin_source = coin_scheme.attach(process)
        consensus = BrachaConsensus(
            rbc, coin_source, validate=validate, amplify_decides=amplify_decides
        )
        process.add_module(consensus)
        return consensus

    return factory


def broadcast_stack(process: Process, accepted: Dict[ProcessId, Dict[Any, Any]]) -> BroadcastLayer:
    """Install a bare reliable-broadcast stack; acceptances land in
    ``accepted[pid][instance] = value``."""
    rbc = BroadcastLayer()
    process.add_module(rbc)

    def on_delivery(event: RbcDelivery, pid: ProcessId = process.pid) -> None:
        accepted.setdefault(pid, {})[event.instance] = event.value

    rbc.subscribe(on_delivery)
    return rbc


def make_coin(coin: Union[str, CoinScheme], n: int, t: int, seed: int) -> CoinScheme:
    """Resolve a coin specification to a scheme instance."""
    if isinstance(coin, CoinScheme):
        return coin
    coin_seed = derive_seed(seed, "coin")
    if coin == "local":
        return LocalCoin()
    if coin == "dealer":
        return DealerCoin(n, t, coin_seed)
    if coin == "shares":
        return ShareCoinProvider(n, t, coin_seed)
    raise ConfigError(f"unknown coin scheme {coin!r}")


# ---------------------------------------------------------------------------
# Proposal and fault normalization
# ---------------------------------------------------------------------------


def normalize_proposals(proposals: ProposalSpec, n: int) -> Dict[ProcessId, Bit]:
    if proposals is None:
        return {pid: pid % 2 for pid in range(n)}
    if isinstance(proposals, int):
        return {pid: proposals for pid in range(n)}
    if isinstance(proposals, Mapping):
        table = dict(proposals)
    else:
        table = {pid: bit for pid, bit in enumerate(proposals)}
    for pid in range(n):
        if pid not in table:
            raise ConfigError(f"no proposal for pid {pid}")
        if table[pid] not in (0, 1):
            raise ConfigError(f"proposal for pid {pid} must be a bit")
    return {pid: table[pid] for pid in range(n)}


def _normalize_fault(spec: FaultSpec) -> Dict[str, Any]:
    if isinstance(spec, str):
        return {"kind": spec}
    out = dict(spec)
    if "kind" not in out:
        raise ConfigError(f"fault spec needs a 'kind': {spec!r}")
    return out


# ---------------------------------------------------------------------------
# Assembled run handle
# ---------------------------------------------------------------------------


@dataclass
class ConsensusRun:
    """Everything assembled for one consensus execution."""

    sim: Simulation
    params: ProtocolParams
    coin_scheme: CoinScheme
    proposals: Dict[ProcessId, Bit]
    consensus: Dict[ProcessId, Any] = field(default_factory=dict)
    behaviors: Dict[ProcessId, ByzantineBehavior] = field(default_factory=dict)

    @property
    def correct_pids(self) -> list[ProcessId]:
        return sorted(self.consensus)

    def all_decided(self) -> bool:
        return all(c.decided for c in self.consensus.values())

    def all_halted(self) -> bool:
        return all(c.halted for c in self.consensus.values())

    def propose_all(self) -> None:
        for pid in self.correct_pids:
            self.consensus[pid].propose(self.proposals[pid])


def setup_consensus(
    n: int,
    t: Optional[int] = None,
    proposals: ProposalSpec = None,
    coin: Union[str, CoinScheme] = "local",
    scheduler: Optional[Scheduler] = None,
    faults: Optional[Mapping[ProcessId, FaultSpec]] = None,
    seed: int = 0,
    trace: bool = False,
    stack: Optional[StackFactory] = None,
    allow_excess_faults: bool = False,
) -> ConsensusRun:
    """Assemble (but do not run) a complete consensus execution.

    ``stack`` selects the protocol implementation (default: Bracha).
    ``allow_excess_faults`` permits injecting more than ``t`` faults —
    used by the resilience-boundary experiments that demonstrate what
    breaks beyond the bound; combine with ``check=False``.
    """
    stack_factory = stack if stack is not None else build_consensus_stack
    params = for_system(n, t)
    faults = dict(faults or {})
    for pid in faults:
        if not 0 <= pid < n:
            raise ConfigError(f"fault pid {pid} out of range")
    if len(faults) > params.t and not allow_excess_faults:
        raise ConfigError(
            f"{len(faults)} faults injected but t={params.t}; "
            "pass allow_excess_faults=True if the excess is intentional"
        )

    sim = Simulation(seed=seed, scheduler=scheduler, trace=trace)
    coin_scheme = make_coin(coin, n, params.t, seed)
    table = normalize_proposals(proposals, n)
    run = ConsensusRun(sim, params, coin_scheme, table)

    for pid in range(n):
        if pid in faults:
            run.behaviors[pid] = _build_behavior(
                pid, faults[pid], sim, params, coin_scheme, table, stack_factory
            )
        else:
            process = Process(pid, sim.network, params)
            run.consensus[pid] = stack_factory(process, coin_scheme)
    return run


def _build_behavior(
    pid: ProcessId,
    spec: FaultSpec,
    sim: Simulation,
    params: ProtocolParams,
    coin_scheme: CoinScheme,
    proposals: Dict[ProcessId, Bit],
    stack_factory: StackFactory,
) -> ByzantineBehavior:
    def honest_factory(process: Process, bit: Bit) -> None:
        consensus = stack_factory(process, coin_scheme)
        process.add_module(_Proposer(consensus, bit))

    behavior = dispatch_behavior(
        pid, _normalize_fault(spec), sim.network, params,
        honest_factory, proposals[pid],
    )
    sim.network.register(behavior)
    return behavior


# ---------------------------------------------------------------------------
# Checked execution
# ---------------------------------------------------------------------------


def run_consensus(
    n: int,
    t: Optional[int] = None,
    proposals: ProposalSpec = None,
    coin: Union[str, CoinScheme] = "local",
    scheduler: Optional[Scheduler] = None,
    faults: Optional[Mapping[ProcessId, FaultSpec]] = None,
    seed: int = 0,
    max_steps: int = 2_000_000,
    trace: bool = False,
    check: bool = True,
    stop: str = "decided",
    stack: Optional[StackFactory] = None,
    allow_excess_faults: bool = False,
) -> RunResult:
    """Assemble, execute, and safety-check one consensus run.

    ``stop`` is ``"decided"`` (all correct processes decided — the usual
    measurement point), ``"halted"`` (all correct processes reached
    their halting quorum), or ``"quiescent"`` (drain every message).

    With ``check=True`` any violation of agreement, validity, or
    integrity raises the corresponding :class:`~repro.errors.SafetyViolation`
    subclass, and failing to finish raises
    :class:`~repro.errors.LivenessFailure`.  With ``check=False`` the
    violations are recorded in ``result.violations`` instead — used by
    the over-resilience experiments that *expect* breakage.
    """
    run = setup_consensus(
        n, t, proposals=proposals, coin=coin, scheduler=scheduler,
        faults=faults, seed=seed, trace=trace, stack=stack,
        allow_excess_faults=allow_excess_faults,
    )
    sim = run.sim
    sim.start()
    run.propose_all()

    if stop == "decided":
        until = run.all_decided
    elif stop == "halted":
        until = run.all_halted
    elif stop == "quiescent":
        until = None
    else:
        raise ConfigError(f"unknown stop condition {stop!r}")

    failures = []
    try:
        sim.run(until=until, max_steps=max_steps)
    except EventBudgetExceeded:
        if check:
            raise
        failures.append("event budget exhausted (possible livelock)")

    reports = []
    for pid in range(n):
        module = run.consensus.get(pid)
        if module is None:
            reports.append(NodeReport.from_modules(pid, None, sim.metrics))
        else:
            reports.append(NodeReport.from_modules(
                pid, [module], sim.metrics,
                module_decisions=int(module.decided),
            ))
    return build_result(
        reports, correct=run.consensus, faulty=run.behaviors,
        proposals=run.proposals, params=run.params, check=check,
        elapsed=sim.now, failures=failures,
        messages_by_kind=sim.metrics.sent_by_kind,
    )


def repeat_consensus(trials: int, seed: int = 0, **kwargs: Any) -> list[RunResult]:
    """Run ``trials`` independent seeded executions of one configuration."""
    return [
        run_consensus(seed=derive_seed(seed, "trial", i), **kwargs)
        for i in range(trials)
    ]


# ---------------------------------------------------------------------------
# Reliable-broadcast harness
# ---------------------------------------------------------------------------


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
    from ..adversary.behaviors import EquivocatingBroadcaster

    params = for_system(n, t)
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
    sim.run_to_quiescence(max_steps=max_steps)

    outcomes = {pid: accepted.get(pid, {}).get(instance) for pid in layers}
    accepted_values = {v for v in outcomes.values() if v is not None}
    report: Dict[str, Any] = {
        "outcomes": outcomes,
        "accepted_values": accepted_values,
        "messages": sim.metrics.sent,
        "steps": sim.steps,
        "violations": [],
    }
    if len(accepted_values) > 1:
        message = f"correct processes accepted {accepted_values}"
        report["violations"].append(message)
        if check:
            from ..errors import BroadcastConsistencyViolation

            raise BroadcastConsistencyViolation(message)
    if accepted_values:
        missing = [pid for pid, v in outcomes.items() if v is None]
        if missing:
            message = f"totality broken: {missing} never accepted"
            report["violations"].append(message)
            if check:
                from ..errors import BroadcastConsistencyViolation

                raise BroadcastConsistencyViolation(message)
    return report
