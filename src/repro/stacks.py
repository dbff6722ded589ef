"""Fabric-agnostic protocol stack plans.

A :class:`ProtocolPlan` captures *what* runs on each process — the
protocol choice (Bracha, Ben-Or and its crash variant, MMR-14, ACS),
per-instance coin schemes, and multi-instance batching — without caring
*where* it runs.  The discrete-event simulator (the scenario runner's
``sim`` fabric) and the asyncio runtime cluster both assemble their
per-process stacks through the same plan, so a configuration executes
byte-for-byte the same protocol code on every fabric and the results
are comparable stack-for-stack.

The plan builds onto a :class:`~repro.sim.process.Process`, which is
happy on either world's network (anything satisfying
:class:`~repro.sim.network.NetworkAPI`).  The stacks a plan assembles
are sans-I/O engines: their sends are effects drained from the process
outbox by whichever driver hosts them (see :mod:`repro.sim.effects`),
so fabric-level concerns — the scenario's ``batching`` field included —
are applied entirely by the driver, never by protocol code.

Only Bracha's engine (:mod:`repro.core`) is imported with this module.
The Ben-Or, MMR-14 and ACS engines and the Byzantine behaviors are
imported by the builders that use them, so a process loads the code of
the protocol and faults its scenarios name.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Union,
)

from .core.broadcast import BroadcastLayer
from .core.coin import CoinScheme, DealerCoin, LocalCoin, ShareCoinProvider
from .core.consensus import BrachaConsensus
from .errors import ConfigError
from .params import ProtocolParams
from .sim.network import NetworkAPI
from .sim.process import Process, ProtocolModule
from .sim.rng import derive_seed
from .types import Bit, ProcessId

if TYPE_CHECKING:
    from .adversary.behaviors import ByzantineBehavior
    from .baselines.mmr14 import Mmr14Consensus

PROTOCOLS = ("bracha", "benor", "benor-crash", "mmr14", "acs")

#: A fault is a behavior kind (``"silent"``, ``"crash"``, ``"two_faced"``,
#: ``"fuzzer"``, ``"stubborn"``, ``"squat"``) or ``{"kind": ..., **kwargs}``.
FaultSpec = Union[str, Mapping[str, Any]]
#: ``None`` (split ``pid % 2``), one bit (unanimous), a sequence indexed
#: by pid, or a pid → bit mapping.
ProposalSpec = Union[None, int, Sequence[int], Mapping[int, int]]
#: Builds a single-instance stack on a process; returns the
#: consensus-like module (anything with ``propose`` / ``decided`` /
#: ``decision`` / ``halted`` / ``stats`` / ``invariant_flags``).  Its
#: ``decided`` may turn on in any activation: the sim stop predicate
#: polls a stack passed in after every step
#: (:attr:`ProtocolPlan.decides_by_effect`).
StackFactory = Callable[[Process, CoinScheme], Any]


# ---------------------------------------------------------------------------
# Single-instance stack builders
# ---------------------------------------------------------------------------


def ablation_stack(validate: bool = True, amplify_decides: bool = True) -> StackFactory:
    """The Bracha stack (RBC + coin + consensus), with ablation switches.

    The defaults are the real protocol.  ``validate=False`` removes the
    justification machinery — the A1 experiment shows a single Byzantine
    process then breaking strong validity.  ``amplify_decides=False``
    removes the halting layer — the A2 experiment shows executions that
    never quiesce.
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


def voting_stack(crash: bool = False) -> StackFactory:
    """The Ben-Or shape: bare links + coin, no broadcast layer.
    ``crash`` selects the crash-fault variant (``t < n/2``)."""

    def factory(process: Process, coin_scheme: CoinScheme) -> Any:
        from .baselines.benor import BenOrConsensus, BenOrCrashConsensus

        engine = BenOrCrashConsensus if crash else BenOrConsensus
        consensus = engine(coin_scheme.attach(process))
        process.add_module(consensus)
        return consensus

    return factory


def mmr14_stack(process: Process, coin_scheme: CoinScheme) -> Mmr14Consensus:
    """Install the MMR-14 stack: BV-broadcast + common coin + agreement."""
    from .baselines.bv_broadcast import BinaryValueBroadcast
    from .baselines.mmr14 import Mmr14Consensus

    bv = BinaryValueBroadcast()
    process.add_module(bv)
    coin_source = coin_scheme.attach(process)
    consensus = Mmr14Consensus(bv, coin_source)
    process.add_module(consensus)
    return consensus


#: The single source of single-instance stack builders: every fabric
#: assembles byte-for-byte the same stack, so measured differences
#: between protocols are attributable to the protocols.
STACKS: Dict[str, StackFactory] = {
    "bracha": ablation_stack(),
    "benor": voting_stack(),
    "benor-crash": voting_stack(crash=True),  # t < n/2, benign faults
    "mmr14": mmr14_stack,
}

#: Default coin per protocol: Bracha and Ben-Or are defined for local
#: coins; MMR-14's termination argument requires a common coin.
DEFAULT_COIN = {
    "bracha": "local",
    "benor": "local",
    "benor-crash": "local",
    "mmr14": "dealer",
}


# ---------------------------------------------------------------------------
# Coin and proposal specs
# ---------------------------------------------------------------------------


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


def normalize_proposals(proposals: ProposalSpec, n: int) -> Dict[ProcessId, Bit]:
    """The validated pid → bit table of a proposal spec."""
    if proposals is None:
        return {pid: pid % 2 for pid in range(n)}
    if isinstance(proposals, int):
        if isinstance(proposals, bool) or proposals not in (0, 1):
            raise ConfigError(f"scalar proposal must be 0 or 1, got {proposals!r}")
        return {pid: proposals for pid in range(n)}
    if isinstance(proposals, Mapping):
        table = dict(proposals)
    else:
        table = dict(enumerate(proposals))
    for pid in range(n):
        if pid not in table:
            raise ConfigError(f"no proposal for pid {pid}")
        if table[pid] not in (0, 1):
            raise ConfigError(f"proposal for pid {pid} must be a bit")
    return {pid: table[pid] for pid in range(n)}


def instance_coin_seed(seed: int, index: int) -> int:
    """The derived seed of consensus instance ``index``'s coin scheme.

    One rule, used both when a plan builds its coins in-process and when
    the multi-process dealer (:mod:`repro.mp.bundle`) materialises the
    same setup into per-node bundle files — a node can therefore check a
    bundle's coin material against the scenario it claims to serve.
    """
    return derive_seed(seed, "inst-coin", index)


def coin_seeds(protocol: str, seed: int, instances: int, n: int) -> tuple:
    """Every instance-coin seed a plan derives, in instance order.

    ACS runs one ABA (hence one coin scheme) per node; the other
    protocols run one per parallel instance.
    """
    count = n if protocol == "acs" else instances
    return tuple(instance_coin_seed(seed, i) for i in range(count))


def instance_coin(
    coin: Union[str, CoinScheme], n: int, t: int, seed: int, index: int
) -> CoinScheme:
    """An independent coin scheme for consensus instance ``index``.

    Instance coins must be independent (the ACS construction relies on
    it), so string specs are re-derived per instance; explicit scheme
    objects are only accepted for a single instance.
    """
    if isinstance(coin, CoinScheme):
        if index > 0:
            raise ConfigError("pass a coin *name* when running multiple instances")
        return coin
    if coin == "local":
        return LocalCoin(salt=("inst", index)) if index else LocalCoin()
    return make_coin(coin, n, t, instance_coin_seed(seed, index))


class ProtocolPlan:
    """How to build, propose to, and read out one protocol choice."""

    def __init__(
        self,
        protocol: str,
        params: ProtocolParams,
        coin: Union[str, CoinScheme],
        seed: int,
        instances: int,
        stack: Optional[StackFactory] = None,
    ):
        if protocol not in PROTOCOLS:
            raise ConfigError(
                f"unknown protocol {protocol!r}; choose from {sorted(PROTOCOLS)}"
            )
        if instances < 1:
            raise ConfigError(f"need at least one instance, got {instances}")
        if instances > 1 and protocol not in ("bracha", "benor"):
            raise ConfigError(f"multiple instances are not supported for {protocol!r}")
        if coin == "shares" and (instances > 1 or protocol == "acs"):
            # Each share-coin attaches a module under one id; parallel
            # instances would collide.  Salted local / dealer coins give
            # the independence parallel instances need.
            raise ConfigError(
                "the share-based coin supports a single instance; "
                "use 'local' or 'dealer' for parallel instances and ACS"
            )
        #: Every module's ``decided`` turns on only in an activation that
        #: issues its Decide effect (``Process.on_decide`` sees it): true
        #: of the built-in binary stacks, not of ACS, whose output can
        #: land on a proposal delivery, nor of a caller's ``stack``.
        self.decides_by_effect = stack is None and protocol != "acs"
        if stack is None:
            stack = STACKS.get(protocol)
        elif instances > 1 or protocol == "acs":
            raise ConfigError(
                "a stack factory replaces the single-instance stack; "
                f"{protocol!r} x{instances} does not build one"
            )
        self.protocol = protocol
        self.params = params
        self.instances = instances
        self._stack = stack
        n, t = params.n, params.t
        if protocol == "acs":
            # One coin scheme per ABA index, shared by every node —
            # the same assembly on every fabric.
            self._acs_coins = [
                instance_coin(coin, n, t, seed, j) for j in range(n)
            ]
        else:
            self._coins = [
                instance_coin(coin, n, t, seed, i) for i in range(instances)
            ]

    @classmethod
    def for_scenario(
        cls,
        scenario: Any,
        coin: Optional[CoinScheme] = None,
        stack: Optional[StackFactory] = None,
    ) -> "ProtocolPlan":
        """The plan a :class:`~repro.scenario.Scenario` declares.

        ``coin`` (a live scheme object in place of the scenario's coin
        name) and ``stack`` are what a scenario cannot spell as data.
        """
        return cls(
            scenario.protocol, scenario.params, coin or scenario.coin_name,
            scenario.seed, scenario.instances, stack=stack,
        )

    # -- builders ------------------------------------------------------------

    def build(self, process: Process) -> List[Any]:
        """Install the stack on ``process``; return decision modules."""
        if self.protocol == "acs":
            from .app.acs import AcsInstance

            rbc = BroadcastLayer()
            process.add_module(rbc)
            acs = AcsInstance(
                process, rbc, coin_factory=lambda j: self._acs_coins[j]
            )
            return [acs]
        if self.instances == 1:
            return [self._stack(process, self._coins[0])]
        # bracha instances share one broadcast layer; benor (the only
        # other multi-instance protocol, guarded above) has none.
        rbc = None
        if self.protocol == "bracha":
            rbc = BroadcastLayer()
            process.add_module(rbc)
        else:
            from .baselines.benor import BenOrConsensus
        modules = []
        for i, coin in enumerate(self._coins):
            source, module_id = coin.attach(process), f"{self.protocol}-{i}"
            if rbc is not None:
                consensus = BrachaConsensus(rbc, source, module_id=module_id)
            else:
                consensus = BenOrConsensus(source, module_id=module_id)
            process.add_module(consensus)
            modules.append(consensus)
        return modules

    def propose(self, modules: List[Any], pid: ProcessId, proposal: Any) -> None:
        if self.protocol == "acs":
            modules[0].propose(proposal)
        else:
            for module in modules:
                module.propose(proposal)

    def default_proposals(self, proposals: Any = None) -> Dict[ProcessId, Any]:
        """The proposal table every fabric uses for this plan.

        ACS proposes per-node request payloads; the binary protocols
        normalize ``proposals`` (:func:`normalize_proposals`).
        """
        if self.protocol == "acs":
            return {pid: f"req-p{pid}" for pid in range(self.params.n)}
        return normalize_proposals(proposals, self.params.n)

    # -- readouts ------------------------------------------------------------

    # The sim runner polls one of these after every step: plain loops,
    # not ``all(<genexpr>)``, which builds a generator per call.

    def decided(self, modules: List[Any]) -> bool:
        if self.protocol == "acs":
            return modules[0].done
        for module in modules:
            if not module.decided:
                return False
        return True

    def halted(self, modules: List[Any]) -> bool:
        if self.protocol == "acs":
            return modules[0].done
        for module in modules:
            if not module.halted:
                return False
        return True


class PlanProposer(ProtocolModule):
    """Start-time proposer covering every instance of a plan's stack.

    Behaviors wrapping honest stacks (crash, two-faced) cannot be told
    to propose from outside, so the proposal is injected by a module's
    ``start()`` hook — on every fabric alike.
    """

    def __init__(self, modules: List[Any], plan: ProtocolPlan, bit: Any):
        tag = getattr(modules[0], "module_id", plan.protocol)
        super().__init__(f"_proposer-{tag}")
        self._modules = modules
        self._plan = plan
        self._bit = bit

    def start(self) -> None:
        self._plan.propose(self._modules, -1, self._bit)

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        pass


def build_plan_behavior(
    pid: ProcessId,
    spec: FaultSpec,
    network: NetworkAPI,
    params: ProtocolParams,
    plan: ProtocolPlan,
    proposals: Dict[ProcessId, Any],
) -> ByzantineBehavior:
    """Build a Byzantine behavior whose honest faces run the plan's stack.

    The returned behavior is *not* registered with the network; the
    caller owns that (the simulator registers it directly, the runtime
    wraps it in a node).
    """
    from .adversary.behaviors import dispatch_behavior

    def honest_factory(process: Process, bit: Any) -> None:
        modules = plan.build(process)
        process.add_module(PlanProposer(modules, plan, bit))

    return dispatch_behavior(
        pid, spec, network, params, honest_factory, proposals[pid]
    )


__all__ = [
    "DEFAULT_COIN",
    "FaultSpec",
    "PROTOCOLS",
    "PlanProposer",
    "ProposalSpec",
    "ProtocolPlan",
    "STACKS",
    "StackFactory",
    "ablation_stack",
    "build_plan_behavior",
    "coin_seeds",
    "instance_coin",
    "instance_coin_seed",
    "make_coin",
    "normalize_proposals",
]
