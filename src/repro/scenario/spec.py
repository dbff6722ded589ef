"""Declarative scenario specifications.

A :class:`Scenario` is a frozen, validated value object capturing
everything that defines one protocol execution: protocol, system size,
proposals, coin scheme, fault injection, network conditions, execution
fabric, instance batching, seed, and stop condition.  Experiments are
*data*: the same object round-trips through JSON (``to_dict`` /
``from_dict``), serves as a dictionary key (scenarios are hashable),
and executes unchanged on every fabric via
:func:`repro.scenario.run`.

The :data:`SCHEDULERS` registry behind :func:`make_scheduler` (the
``sim`` fabric's network conditions) lives here too.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import ConfigError, SimulationError
from ..netem.models import NetemConfig
from ..obs import OBSERVE_MODES, PROFILE_MODES, parse_observe, parse_profile
from ..params import ProtocolParams, for_system
from ..recovery import RECOVERY_MODES, parse_recovery
from ..sim.effects import BATCHING_MODES, parse_batching
from ..sim.scheduler import (
    FifoScheduler,
    RandomDelayScheduler,
    RoundRobinScheduler,
    Scheduler,
    ScriptedScheduler,
)
from ..stacks import DEFAULT_COIN, PROTOCOLS, normalize_proposals

FABRICS = ("sim", "local", "tcp", "mp")
STOPS = ("decided", "halted", "quiescent")
COINS = ("local", "dealer", "shares")

#: Fault kinds that exist only on some fabrics:
#: kind -> (supported fabrics, what it does, nearest kind elsewhere).
#: The behavior kinds (:data:`~repro.adversary.behaviors.BEHAVIOR_KINDS`)
#: run everywhere; a kind of neither sort is rejected at construction.
FAULT_KIND_FABRICS: Dict[str, Tuple[Tuple[str, ...], str, str]] = {
    "kill": (("mp",), "SIGKILL the node's OS process", "crash"),
    "restart": (
        ("sim", "mp"),
        "crash a correct node, then bring it back via recovery replay",
        "crash",
    ),
}

#: The fabric-only fault kinds -> the options a spec may carry besides
#: ``kind``; a behavior kind's are in ``BEHAVIOR_KINDS`` (:func:`_fault_options`).
FABRIC_FAULT_OPTIONS: Dict[str, Tuple[str, ...]] = {
    "kill": ("after",),
    "restart": ("after", "down", "max_restarts"),
}

#: Canonical in-object form of one fault spec: ``(("kind", k), ...)``.
CanonicalFault = Tuple[Tuple[str, Any], ...]


# ---------------------------------------------------------------------------
# Scheduler registry (the "network conditions" knob)
# ---------------------------------------------------------------------------


def _pids(n: int, pids: Any) -> frozenset:
    """``pids`` as a set, every one of them in ``range(n)``."""
    outside = sorted(frozenset(pids) - frozenset(range(n)), key=repr)
    if outside:
        raise ValueError(f"pid(s) {outside} out of range for n={n}")
    return frozenset(pids)


def _strategies() -> Any:
    """:mod:`repro.adversary.strategies`, imported when a scenario names
    one of its schedulers."""
    from ..adversary import strategies

    return strategies


#: name -> factory(n, **args) -> Scheduler | None (None = fair random).
SCHEDULERS: Dict[str, Any] = {
    "random": lambda n, **args: None,
    "fifo": lambda n, **args: FifoScheduler(**args),
    "round-robin": lambda n, **args: RoundRobinScheduler(**args),
    "delay": lambda n, **args: RandomDelayScheduler(**args),
    "victim": lambda n, victims=(0,), **args: _strategies().DelayVictimScheduler(
        _pids(n, victims), **args
    ),
    "split": lambda n, group_a=None, **args: _strategies().SplitBrainScheduler(
        _pids(n, group_a if group_a is not None else range(n // 2)), **args
    ),
    "partition": lambda n, group_a=None, **args: _strategies().PartitionScheduler(
        _pids(n, group_a if group_a is not None else range(n // 2)), **args
    ),
    "script": lambda n, **args: ScriptedScheduler(**args),
}


def make_scheduler(
    name: Optional[str], n: int, **args: Any
) -> Optional[Scheduler]:
    """Resolve a scheduler name (plus keyword arguments) to an instance.

    ``None``/``"random"`` return ``None`` — the simulator's fair default.
    Unknown names and every argument the constructor refuses (a missing
    or unknown keyword, a bad value, a pid outside ``range(n)``) raise
    :class:`~repro.errors.ConfigError`.
    """
    name = name or "random"
    factory = SCHEDULERS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        )
    try:
        return factory(n, **args)
    except (TypeError, ValueError, SimulationError) as exc:
        raise ConfigError(f"bad scheduler_args for scheduler {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Canonicalization helpers
# ---------------------------------------------------------------------------


def _freeze(value: Any) -> Any:
    """Lists/tuples become tuples, recursively — hashable canonical form."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: Any) -> Any:
    """Tuples become lists, recursively — the JSON-facing form."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


def _number(
    what: str, value: Any, low: float, high: Optional[int] = None,
    kinds: Any = int, strict: bool = False,
) -> None:
    """Require an int (``kinds=(int, float)``: a number) that is not a
    bool and is ``>= low`` (``strict``: ``> low``) and ``<= high``; a
    :class:`ConfigError` naming ``what`` otherwise."""
    ok = isinstance(value, kinds) and not isinstance(value, bool)
    if ok:
        ok = value > low if strict else value >= low
    if ok and high is not None:
        ok = value <= high
    if not ok:
        bound = f"in {low}..{high}" if high is not None else (
            f"> {low}" if strict else f">= {low}")
        noun = "an integer" if kinds is int else "a number"
        raise ConfigError(f"need {what} {bound} ({noun}), got {value!r}")


def _bit(what: str, value: Any, n: int) -> None:
    _number(what, value, 0, 1)


def _pid_list(what: str, value: Any, n: int) -> None:
    if not (isinstance(value, tuple) and all(
            isinstance(p, int) and not isinstance(p, bool) and 0 <= p < n
            for p in value)):
        raise ConfigError(
            f"need {what} a list of pids in range({n}), got {_thaw(value)!r}"
        )


def _text(what: str, value: Any, n: int) -> None:
    if not isinstance(value, str):
        raise ConfigError(f"need {what} a string, got {value!r}")


#: Fault-spec option -> ``check(what, value, n)``, a :class:`ConfigError`
#: naming ``what`` on a bad value.
_FAULT_OPTION_CHECKS: Dict[str, Callable[[str, Any, int], None]] = {
    # kill / restart: seconds on mp; deliveries for restart on sim.
    "after": lambda what, v, n: _number(what, v, 0, kinds=(int, float)),
    "down": lambda what, v, n: _number(
        what, v, 0, kinds=(int, float), strict=True),
    "max_restarts": lambda what, v, n: _number(what, v, 1),
    "crash_after": lambda what, v, n: _number(what, v, 0),
    "mutate_p": lambda what, v, n: _number(what, v, 0, 1, kinds=(int, float)),
    "fanout": lambda what, v, n: _number(what, v, 0),
    "horizon": lambda what, v, n: _number(what, v, 0),
    "proposal": _bit, "bit": _bit, "bit_a": _bit, "bit_b": _bit,
    "group_a": _pid_list,
    "module_id": _text,
}


def _fault_options(kind: str) -> Tuple[str, ...]:
    """The options a ``kind`` fault spec may carry besides ``kind``; a
    :class:`ConfigError` if ``kind`` is no fault kind.  Only a kind that
    is not fabric-only imports the behaviors."""
    options = FABRIC_FAULT_OPTIONS.get(kind)
    if options is not None:
        return options
    from ..adversary.behaviors import BEHAVIOR_KINDS

    if kind not in BEHAVIOR_KINDS:
        raise ConfigError(
            f"unknown fault kind {kind!r}; choose from "
            f"{sorted({**BEHAVIOR_KINDS, **FABRIC_FAULT_OPTIONS})}"
        )
    return BEHAVIOR_KINDS[kind]


def _check_fault_options(kind: str, table: Dict[str, Any], n: int) -> None:
    """Refuse an unknown ``kind``, an option it does not take, or a bad
    option value — here, not at build time: on ``mp`` a fault is built
    inside the faulty node's own process, whose death the orchestrator
    tolerates."""
    allowed = _fault_options(kind)
    unknown = sorted(set(table) - {"kind"} - set(allowed))
    if unknown:
        raise ConfigError(
            f"{kind} fault has unknown field(s) {unknown}; "
            f"allowed: {list(allowed)}"
        )
    for key in allowed:
        if key in table:
            _FAULT_OPTION_CHECKS[key](f"{kind} fault {key!r}", table[key], n)


def _pairs(field: str, value: Any) -> Dict[Any, Any]:
    """A mapping, or a sequence of ``(key, value)`` pairs, as a dict."""
    try:
        return dict(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{field} must be a mapping (or a sequence of (key, value) "
            f"pairs), got {value!r}"
        ) from None


def _canonical_fault(spec: Any) -> CanonicalFault:
    if isinstance(spec, str):
        return (("kind", spec),)
    table = _pairs("a non-string fault spec", spec)
    kind = table.pop("kind", None)
    if not isinstance(kind, str) or not kind:
        raise ConfigError(f"fault spec needs a 'kind': {spec!r}")
    return (("kind", kind),) + tuple(
        (key, _freeze(table[key])) for key in sorted(table, key=str)
    )


def _canonical_faults(faults: Any) -> Tuple[Tuple[int, CanonicalFault], ...]:
    if faults is None:
        return ()
    table = {}
    for pid, spec in _pairs("faults", faults).items():
        try:
            pid = int(pid)
        except (TypeError, ValueError):
            raise ConfigError(f"fault pid must be an integer, got {pid!r}") from None
        table[pid] = _canonical_fault(spec)
    return tuple(sorted(table.items()))


def _canonical_args(field: str, args: Any) -> Tuple[Tuple[str, Any], ...]:
    if args is None:
        return ()
    return tuple(sorted(
        ((str(k), _freeze(v)) for k, v in _pairs(field, args).items()),
        key=lambda pair: pair[0],
    ))


def _canonical_partitions(partitions: Any) -> Tuple[Tuple[Tuple[str, Any], ...], ...]:
    """Partition specs stay in declaration order (it is a timeline); each
    window canonicalizes to sorted ``(key, value)`` pairs."""
    if partitions is None:
        return ()
    if not isinstance(partitions, (list, tuple)):
        raise ConfigError(
            "partitions must be a list of {'start', 'stop', 'groups'} "
            f"mappings, got {partitions!r}"
        )
    return tuple(_canonical_args("a partitions entry", spec) for spec in partitions)


def _canonical_proposals(proposals: Any, n: int) -> Any:
    if proposals is None:
        return None
    try:
        table = normalize_proposals(proposals, n)  # validates coverage and bits
    except TypeError:
        raise ConfigError(
            "proposals must be a bit, a sequence of n bits or a pid -> bit "
            f"mapping, got {proposals!r}"
        ) from None
    if isinstance(proposals, int):
        return proposals
    return tuple(table[pid] for pid in range(n))


# ---------------------------------------------------------------------------
# The scenario
# ---------------------------------------------------------------------------


def _known_fields(names: Any) -> None:
    """Reject a name that is no :class:`Scenario` field, so a typo in a
    scenario file or an override fails loudly instead of being ignored."""
    known = {field.name for field in dataclasses.fields(Scenario)}
    unknown = sorted(set(names) - known)
    if unknown:
        raise ConfigError(
            f"unknown scenario field(s) {unknown}; known fields: {sorted(known)}"
        )


@dataclass(frozen=True)
class Scenario:
    """One declarative, fabric-agnostic protocol execution.

    Construction canonicalizes (mappings/lists become sorted tuples) and
    validates; two scenarios built from equivalent specs compare equal
    and hash equally, and ``from_dict(to_dict(s)) == s`` always holds.

    Fields:
        protocol: ``bracha`` | ``benor`` | ``benor-crash`` | ``mmr14`` | ``acs``.
        n, t: system size and fault bound (``t=None`` → ``⌊(n−1)/3⌋``).
        proposals: ``None`` (split ``pid % 2``), a bit (unanimous), a
            sequence, or a pid→bit mapping; must be ``None`` for ACS
            (nodes propose request payloads).
        coin: ``local`` | ``dealer`` | ``shares``; ``None`` picks the
            protocol's default (dealer for MMR-14, local otherwise).
        faults: pid → behavior spec (kind string or ``{"kind": ..., **kw}``).
        scheduler, scheduler_args: network conditions; ``sim`` fabric only
            (real transports schedule themselves), built once here to
            validate; ``script`` replays a ``sim.schedule`` as ``ranks``.
        link: netem link conditions for the runtime fabrics — a flat
            mapping of :class:`~repro.netem.LinkModel` fields (``delay``,
            ``jitter``, ``loss``, ``duplicate``, ``reorder``,
            ``reorder_extra``) plus the retransmission knobs
            (``retransmit``, ``rto``, ``max_retries``); see docs/netem.md.
        partitions: scripted partition windows for the runtime fabrics —
            a list of ``{"start", "stop", "groups"}`` mappings.
        fabric: ``sim`` (discrete-event), ``local`` (asyncio queues),
            ``tcp`` (authenticated binary frames over TCP, one interpreter), or
            ``mp`` (one OS process per node over the same TCP transport,
            bootstrapped by a dealer bundle — see docs/deployment.md).
        instances: parallel consensus instances per process (batching).
        batching: wire-frame coalescing — ``off`` (one frame per
            message) or ``flush`` (one frame per destination per pump
            flush, at most 64 messages a frame).
            It is a wire setting: on the ``sim`` fabric every mode
            drains the outbox per activation, so a fixed seed decides
            and traces bit-for-bit the same in each.
        codec: a validated constant — ``binary`` is the only wire
            format of the runtime fabrics (docs/performance.md) and the
            only legal value; ``json`` is rejected by name.  Kept only
            because the frozen ``benchmarks/e2e`` workloads still pass
            it; goes once a benchmark-only PR stops doing so.
        observe: structured-event capture — ``off`` (default, no
            observer), ``ring``/``ring:N`` (in-memory ring buffer of the
            newest N events, attached to ``meta["obs_events"]``), or
            ``jsonl``/``jsonl:PATH`` (JSONL trace file readable by
            ``repro report``); see docs/observability.md.
        profile: hot-path span profiling — ``off`` (default, hot paths
            pay one ``None`` check) or ``on`` (wall-clock span timers
            recorded into the run's metrics histograms as ``span_*``
            entries, rendered by ``repro run``).  Profiling never
            touches virtual time, the rng, or the event stream, so a
            fixed-seed sim run stays bit-identical.  Not available on
            ``mp`` (node-side registries stay in the node processes);
            see docs/observability.md.
        recovery: crash-recovery WAL logging on the runtime fabrics —
            ``off`` (default), ``wal`` (per-node write-ahead logs in a
            run-scoped scratch directory), or ``wal:DIR`` (logs kept in
            ``DIR`` as run artifacts).  Required on ``mp`` when a fault
            uses kind ``restart``; see docs/recovery.md.
        stop: ``decided`` | ``halted`` | ``quiescent`` (sim only).
        max_steps / timeout: liveness budget (sim steps / runtime seconds).
        host, base_port: TCP fabric placement (0 = pick free ports).
    """

    name: str = ""
    description: str = ""
    protocol: str = "bracha"
    n: int = 4
    t: Optional[int] = None
    proposals: Any = None
    coin: Optional[str] = None
    faults: Any = ()
    scheduler: str = "random"
    scheduler_args: Any = ()
    link: Any = ()
    partitions: Any = ()
    fabric: str = "sim"
    instances: int = 1
    batching: str = "off"
    codec: str = "binary"
    observe: str = "off"
    profile: str = "off"
    recovery: str = "off"
    seed: int = 0
    stop: str = "decided"
    max_steps: int = 2_000_000
    timeout: float = 60.0
    host: str = "127.0.0.1"
    base_port: int = 0
    allow_excess_faults: bool = False

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if isinstance(field.default, str):  # name, fabric, observe, host, ...
                value = getattr(self, field.name)
                if not isinstance(value, str):
                    raise ConfigError(
                        f"{field.name} must be a string, got {value!r}"
                    )
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"unknown protocol {self.protocol!r}; choose from {sorted(PROTOCOLS)}"
            )
        if self.fabric not in FABRICS:
            raise ConfigError(
                f"unknown fabric {self.fabric!r}; choose from {list(FABRICS)}"
            )
        if self.stop not in STOPS:
            raise ConfigError(
                f"unknown stop condition {self.stop!r}; choose from {list(STOPS)}"
            )
        if self.coin is not None and self.coin not in COINS:
            raise ConfigError(
                f"unknown coin scheme {self.coin!r}; choose from {list(COINS)}"
            )
        _number("n", self.n, 1)
        if self.t is not None:
            _number("t", self.t, 0)
        _number("instances", self.instances, 1)
        _number("seed", self.seed, 0)
        _number("max_steps", self.max_steps, 1)
        _number("timeout", self.timeout, 0, kinds=(int, float), strict=True)
        _number("base_port", self.base_port, 0, 65535)
        parse_batching(self.batching)  # validates off | flush
        if self.codec != "binary":
            raise ConfigError(
                f"unknown wire codec {self.codec!r}: binary is the only wire "
                "format (the JSON wire format was removed) — drop the "
                "'codec' field"
            )
        parse_observe(self.observe)  # validates off | ring[:N] | jsonl[:PATH]
        if parse_profile(self.profile) != "off" and self.fabric == "mp":
            raise ConfigError(
                "span profiling ('profile: on') is not available on the "
                "'mp' fabric: each node process keeps its own metrics "
                "registry and only events travel back to the orchestrator "
                "— profile on 'sim', 'local', or 'tcp' instead"
            )
        if self.instances > 1 and self.protocol not in ("bracha", "benor"):
            raise ConfigError(
                f"multiple instances are not supported for {self.protocol!r}"
            )
        params = for_system(self.n, self.t)  # validates n and t

        object.__setattr__(self, "faults", _canonical_faults(self.faults))
        object.__setattr__(
            self, "scheduler_args",
            _canonical_args("scheduler_args", self.scheduler_args),
        )
        object.__setattr__(self, "link", _canonical_args("link", self.link))
        object.__setattr__(
            self, "partitions", _canonical_partitions(self.partitions)
        )
        if self.protocol == "acs":
            if self.proposals is not None:
                raise ConfigError(
                    "ACS scenarios take no proposals; nodes propose request payloads"
                )
        else:
            object.__setattr__(
                self, "proposals", _canonical_proposals(self.proposals, self.n)
            )

        restart_pids = []
        for pid, spec in self.faults:
            if not 0 <= pid < self.n:
                raise ConfigError(f"fault pid {pid} out of range")
            table = dict(spec)
            kind = table["kind"]
            _check_fault_options(kind, table, self.n)
            constraint = FAULT_KIND_FABRICS.get(kind)
            if constraint is not None:
                fabrics, what, nearest = constraint
                if self.fabric not in fabrics:
                    names = " or ".join(f"'{f}' fabric" for f in fabrics)
                    raise ConfigError(
                        f"fault kind {kind!r} ({what}) runs only on the "
                        f"{names}, not {self.fabric!r}; the nearest kind "
                        f"supported there is {nearest!r}"
                    )
            if kind == "restart":
                restart_pids.append(pid)
        recovery_mode, _ = parse_recovery(self.recovery)
        if recovery_mode != "off" and self.fabric == "sim":
            raise ConfigError(
                "recovery WAL logging needs a runtime fabric ('local', "
                "'tcp', or 'mp'); the sim fabric's 'restart' fault replays "
                "from memory and takes no 'recovery' setting"
            )
        if restart_pids and self.fabric == "mp":
            if recovery_mode == "off":
                raise ConfigError(
                    "a 'restart' fault on the 'mp' fabric needs recovery "
                    "enabled (recovery='wal' or 'wal:DIR') so the respawned "
                    "process can replay its write-ahead log"
                )
            netem = self.netem_config()
            if netem is None or not netem.retransmit:
                raise ConfigError(
                    "a 'restart' fault on the 'mp' fabric needs link "
                    "retransmission so peers re-deliver the frames the node "
                    "missed while down — set link={'retransmit': True} "
                    "(tune 'rto'/'max_retries' to cover the down window)"
                )
        if len(self.faults) > params.t and not self.allow_excess_faults:
            raise ConfigError(
                f"{len(self.faults)} faults injected but t={params.t}; "
                "set allow_excess_faults if the excess is intentional"
            )
        if self.scheduler not in SCHEDULERS:
            raise ConfigError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {sorted(SCHEDULERS)}"
            )
        if self.scheduler == "random" and self.scheduler_args:
            raise ConfigError(
                "scheduler_args given but the scheduler is 'random' "
                "(the fair default takes no arguments) — name a scheduler"
            )
        if self.fabric != "sim" and self.scheduler != "random":
            raise ConfigError(
                f"scheduler {self.scheduler!r} needs the 'sim' fabric; "
                "on the runtime fabrics declare adverse network conditions "
                "with the 'link' / 'partitions' netem spec instead "
                "(e.g. link={'loss': 0.1, 'delay': 0.005}; see docs/netem.md)"
            )
        if self.fabric == "sim":
            self.build_scheduler()  # its constructor's refusals, as ConfigError
        if self.fabric == "sim" and (self.link or self.partitions):
            raise ConfigError(
                "'link' / 'partitions' model real-transport conditions and "
                "need the 'local', 'tcp', or 'mp' fabric; on the 'sim' "
                "fabric use a scheduler (e.g. scheduler='delay' or "
                "scheduler='partition')"
            )
        self.netem_config()  # validates link fields and partition windows
        if self.fabric != "sim" and self.stop == "quiescent":
            raise ConfigError("stop condition 'quiescent' needs the 'sim' fabric")

    # -- derived views -------------------------------------------------------

    @property
    def params(self) -> ProtocolParams:
        return for_system(self.n, self.t)

    @property
    def coin_name(self) -> str:
        """The effective coin scheme (protocol default when unset)."""
        return self.coin or DEFAULT_COIN.get(self.protocol, "local")

    def faults_dict(self) -> Dict[int, Any]:
        """Fault table in the dispatcher's shape: pid → kind or dict."""
        out: Dict[int, Any] = {}
        for pid, spec in self.faults:
            table = dict(spec)
            if len(table) == 1:
                out[pid] = table["kind"]
            else:
                out[pid] = {k: _thaw(v) for k, v in table.items()}
        return out

    def fault_specs(self, kind: str) -> Dict[int, Dict[str, Any]]:
        """The faults of one ``kind`` only: pid → their other fields
        (``{"after", "down", ...}`` for ``restart``; ``{}`` for a bare
        kind string)."""
        out: Dict[int, Dict[str, Any]] = {}
        for pid, spec in self.faults:
            table = {k: _thaw(v) for k, v in spec}
            if table.pop("kind") == kind:
                out[pid] = table
        return out

    def scheduler_args_dict(self) -> Dict[str, Any]:
        return {k: _thaw(v) for k, v in self.scheduler_args}

    def link_dict(self) -> Dict[str, Any]:
        """The ``link`` spec in its JSON-facing mapping shape."""
        return {k: _thaw(v) for k, v in self.link}

    def partitions_list(self) -> list:
        """The ``partitions`` spec in its JSON-facing list-of-dicts shape."""
        return [{k: _thaw(v) for k, v in spec} for spec in self.partitions]

    def build_scheduler(self) -> Optional[Scheduler]:
        """Instantiate the declared network conditions (``sim`` fabric)."""
        return make_scheduler(self.scheduler, self.n, **self.scheduler_args_dict())

    def netem_config(self) -> Optional[NetemConfig]:
        """The declared link conditions as a validated
        :class:`~repro.netem.NetemConfig`; ``None`` when netem is off."""
        config = NetemConfig.from_spec(self.link_dict(), self.partitions_list())
        if config is not None:
            config.validate_pids(self.n)
        return config

    def replace(self, **changes: Any) -> "Scenario":
        """A copy with fields changed — revalidated and recanonicalized."""
        _known_fields(changes)
        return dataclasses.replace(self, **changes)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict, omitting fields left at their defaults."""
        out: Dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value == field.default:
                continue
            if field.name == "faults":
                value = {str(pid): spec for pid, spec in self.faults_dict().items()}
            elif field.name == "scheduler_args":
                value = self.scheduler_args_dict()
            elif field.name == "link":
                value = self.link_dict()
            elif field.name == "partitions":
                value = self.partitions_list()
            else:
                value = _thaw(value)
            out[field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Build a scenario from a (JSON-decoded) mapping.

        Unknown keys raise :class:`~repro.errors.ConfigError` so typos in
        scenario files fail loudly rather than silently using defaults.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(f"scenario spec must be a mapping, got {type(data).__name__}")
        _known_fields(data)
        return cls(**dict(data))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(data)


def load_scenario(path: Any) -> Scenario:
    """Read a scenario from a JSON file; all failure modes (missing file,
    bad JSON, unknown fields, invalid values) raise
    :class:`~repro.errors.ConfigError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        return Scenario.from_json(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


__all__ = [
    "BATCHING_MODES",
    "COINS",
    "FABRICS",
    "FAULT_KIND_FABRICS",
    "OBSERVE_MODES",
    "PROFILE_MODES",
    "RECOVERY_MODES",
    "SCHEDULERS",
    "STOPS",
    "Scenario",
    "load_scenario",
    "make_scheduler",
]
