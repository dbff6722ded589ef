"""The run spine: per-node reports in, one verified ``RunResult`` out.

Every way of executing a protocol — the scenario runner's ``sim``
fabric, the asyncio :class:`~repro.runtime.cluster.Cluster` (``local``
and ``tcp``) and the multi-process orchestrator (``mp``) — ends the
same way: read each node out into a plain-data :class:`NodeReport`
(:meth:`NodeReport.from_modules`), hand the reports to
:func:`build_result`.  The builder sums the counters, fills
``decisions`` / ``meta`` / the metrics snapshot, and applies the paper's
properties — agreement, validity, integrity and liveness per instance;
subset agreement, the ``n − t`` size bound and completion for ACS —
directly on the report data (:func:`violations`), so one checker holds
every fabric to the same standard.

The builder is *told* which pids are correct; it never infers the set
from the reports that happened to arrive, so a correct node without a
report is a named failure instead of a smaller quorum.
:meth:`NodeReport.to_dict` is the mp fabric's ``result`` control
message: what crosses the process boundary is exactly what the
in-process fabrics hand over directly.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    AgreementViolation,
    IntegrityViolation,
    LivenessFailure,
    ReproError,
    ValidityViolation,
)
from .netem.policy import LinkCounters
from .obs.metrics import MetricsRegistry
from .params import ProtocolParams
from .types import Decision, ProcessId, RunResult

#: ReliableLink counters folded into ``meta["netem"]`` beside the
#: LinkPolicy verdict counts.
LINK_COUNTERS = ("retransmitted", "abandoned", "duplicates_filtered", "acks_sent")


@dataclass(frozen=True)
class InstanceOutcome:
    """One consensus instance's outcome at one node."""

    decided: bool
    value: Any
    round: Optional[int]
    invariant_flags: Tuple[str, ...] = ()


@dataclass
class NodeReport:
    """Everything one node contributes to a run's result — plain data.

    A binary-protocol node carries one :class:`InstanceOutcome` per
    parallel instance (undecided ones included); an ACS node carries
    none and sets ``acs`` to its output's ``(pid, payload)`` pairs once
    done.  Faulty nodes report counters only.  ``decide_time`` is on the
    fabric's own clock (virtual time on ``sim``, seconds since the start
    barrier elsewhere); ``frames_sent`` is ``None`` where the fabric has
    no wire frames; ``netem_per_link`` (this node's outbound links) and
    ``link`` (its ReliableLink counters) are ``None`` without netem.
    """

    pid: ProcessId
    correct: bool
    decide_time: Optional[float] = None
    instances: Tuple[InstanceOutcome, ...] = ()
    acs: Optional[Tuple[Tuple[ProcessId, Any], ...]] = None
    halted: bool = False
    rounds: int = 0
    coin_flips: int = 0
    module_decisions: int = 0
    sent: int = 0
    delivered: int = 0
    activations: int = 0
    sent_by_kind: Dict[str, int] = field(default_factory=dict)
    frames_sent: Optional[int] = None
    wire_messages_sent: int = 0
    frames_rejected: int = 0
    netem_per_link: Optional[Dict[str, Dict[str, int]]] = None
    link: Optional[Dict[str, Any]] = None

    @classmethod
    def from_modules(
        cls,
        pid: ProcessId,
        modules: Optional[Sequence[Any]],
        sent_by_kind: Mapping[str, int],
        *,
        delivered: int = 0,
        decide_time: Optional[float] = None,
        module_decisions: int = 0,
        node: Any = None,
        transport: Any = None,
        policy: Any = None,
    ) -> "NodeReport":
        """Read one node out of its live objects.

        ``modules`` is the plan's decision-module list (``None`` for a
        faulty node); ``sent_by_kind`` and ``delivered`` are what the
        network tallied for this pid (``Network.sent_by_kind[pid]`` /
        ``.delivered[pid]`` on the simulator, a runtime node's own
        table and pump count).  ``module_decisions`` is the node's count
        of Decide effects.  Runtime fabrics add their ``node`` pump, its
        ``transport`` and the netem ``policy`` (shared or per-process).
        """
        report = cls(
            pid, modules is not None,
            decide_time=decide_time, module_decisions=module_decisions,
            sent=sum(sent_by_kind.values()), sent_by_kind=dict(sent_by_kind),
            # Without a node pump every delivery is one activation.
            delivered=delivered, activations=delivered,
        )
        if node is not None:
            report.activations = node.activations
            report.frames_sent = node.frames_sent
            report.wire_messages_sent = node.wire_messages_sent
            report.frames_rejected = (
                getattr(transport, "rejected", 0) + node.unroutable
            )
        if policy is not None:
            # Only a runtime fabric has a policy, and it has loaded the
            # asyncio-based retransmission layer already.
            from .netem.reliable import ReliableLink

            report.netem_per_link = {
                name: stats for name, stats in policy.per_link().items()
                if name.startswith(f"{pid}->")
            }
            if isinstance(transport, ReliableLink):
                report.link = {
                    name: getattr(transport, name) for name in LINK_COUNTERS
                }
                report.link["retransmitted_by_dest"] = {
                    str(dest): count
                    for dest, count in transport.retransmitted_by_dest.items()
                }
        if modules is None:
            return report
        # Only a process that has loaded the ACS engine can hold one.
        acs = sys.modules.get(f"{__package__}.app.acs")
        if acs is not None and isinstance(modules[0], acs.AcsInstance):
            if modules[0].done:
                report.acs = tuple(modules[0].output.proposals)
            return report
        report.instances = tuple(
            InstanceOutcome(
                m.decided, m.decision, m.decision_round, tuple(m.invariant_flags)
            )
            for m in modules
        )
        report.halted = all(m.halted for m in modules)
        report.rounds = max(m.stats["rounds"] for m in modules)
        report.coin_flips = sum(m.stats["coin_flips"] for m in modules)
        return report

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-safe ``result`` control message of the mp fabric."""
        out = dataclasses.asdict(self)
        out["type"] = "result"
        out["node"] = out.pop("pid")
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NodeReport":
        names = {f.name for f in dataclasses.fields(cls)}
        try:
            kwargs = {k: v for k, v in data.items() if k in names}
            kwargs["pid"] = int(data["node"])
            kwargs["instances"] = tuple(
                InstanceOutcome(
                    bool(d["decided"]), d["value"], d["round"],
                    tuple(d["invariant_flags"]),
                )
                for d in data.get("instances", ())
            )
            if data.get("acs") is not None:
                kwargs["acs"] = tuple(
                    (int(p), payload) for p, payload in data["acs"]
                )
            return cls(**kwargs)
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed node report: {exc!r}") from exc

    @property
    def values(self) -> List[Any]:
        """Per-instance decision values (``None`` where undecided); an
        ACS node's single value is the agreed pid subset."""
        if self.instances:
            return [outcome.value for outcome in self.instances]
        return [None if self.acs is None else tuple(p for p, _ in self.acs)]


def build_result(
    reports: Iterable[NodeReport],
    *,
    correct: Iterable[ProcessId],
    faulty: Iterable[ProcessId],
    proposals: Mapping[ProcessId, Any],
    params: ProtocolParams,
    check: bool = True,
    elapsed: float = 0.0,
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[Mapping[str, Any]] = None,
    failures: Sequence[str] = (),
) -> RunResult:
    """Assemble and verify the result of one finished run.

    ``reports`` holds whatever nodes reported (faulty ones too, for
    their counters); outcomes are read for the pids in ``correct`` only.
    ``elapsed`` is the run's length on the fabric's clock, ``registry``
    the run's live metrics (span histograms, fabric counters) when the
    fabric kept one, ``meta`` the fabric's own descriptive keys and
    ``failures`` liveness failures it already established (a timeout, an
    exhausted step budget), judged like any other violation.

    With ``check=True`` the first violated property raises its
    :mod:`repro.errors` class; otherwise every violation is recorded in
    ``result.violations``.
    """
    by_pid = {report.pid: report for report in reports}
    correct = sorted(correct)
    registry = registry if registry is not None else MetricsRegistry()
    result = RunResult(virtual_time=elapsed)
    result.meta.update(meta or {})

    def fail(exc_cls: type, message: str) -> None:
        result.violations.append(message)
        if check:
            raise exc_cls(message)

    for message in failures:
        fail(LivenessFailure, message)

    # -- counters: every report, correct or not ------------------------------
    kinds: Dict[str, int] = {}
    netem = dict(LinkCounters().as_dict(), **dict.fromkeys(LINK_COUNTERS, 0))
    per_link: Dict[str, Dict[str, int]] = {}
    for pid, report in sorted(by_pid.items()):
        result.messages_sent += report.sent
        result.messages_delivered += report.delivered
        result.steps += report.activations
        for kind, count in report.sent_by_kind.items():
            kinds[kind] = kinds.get(kind, 0) + count
        for name, stats in (report.netem_per_link or {}).items():
            slot = per_link.setdefault(name, {})
            for key, value in stats.items():
                slot[key] = slot.get(key, 0) + value
                netem[key] = netem.get(key, 0) + value
        link = report.link or {}
        for key in LINK_COUNTERS:
            netem[key] += link.get(key, 0)
        for dest, count in link.get("retransmitted_by_dest", {}).items():
            slot = per_link.setdefault(f"{pid}->{dest}", {})
            slot["retransmitted"] = slot.get("retransmitted", 0) + count
    framed = [r for r in by_pid.values() if r.frames_sent is not None]
    if framed:
        frames = sum(r.frames_sent for r in framed)
        wire = sum(r.wire_messages_sent for r in framed)
        registry.count("frames_sent", frames)
        registry.count("wire_messages_sent", wire)
        registry.count("frames_rejected", sum(r.frames_rejected for r in framed))
        registry.gauge("messages_per_frame", wire / frames if frames else 0.0)
    if any(r.netem_per_link is not None for r in by_pid.values()):
        for name, value in netem.items():
            registry.count(f"netem_{name}", value)
        result.meta["netem"] = netem
        result.meta["netem_per_link"] = per_link

    # -- outcomes: correct pids only -----------------------------------------
    for pid in correct:
        if pid not in by_pid:
            fail(LivenessFailure, f"node {pid} returned no result")
    judged = [by_pid[pid] for pid in correct if pid in by_pid]
    latency: Dict[ProcessId, float] = {}
    for report in judged:
        pid = report.pid
        if report.decide_time is not None:
            latency[pid] = float(report.decide_time)
            registry.observe("decision_latency", latency[pid])
        if report.instances:
            decided, round_ = report.instances[0].decided, report.instances[0].round
        else:
            decided, round_ = report.acs is not None, 0
        if decided:
            result.decisions[pid] = Decision(
                pid, report.values[0], round_, latency.get(pid, elapsed)
            )
        if report.halted:
            result.halted.add(pid)
        result.rounds = max(result.rounds, report.rounds)

    result.meta["coin_flips"] = sum(r.coin_flips for r in judged)
    result.meta["proposals"] = dict(proposals)
    result.meta["faulty"] = sorted(faulty)
    result.meta["messages_by_kind"] = kinds
    result.meta["decision_rounds"] = {
        pid: d.round for pid, d in result.decisions.items()
    }
    result.meta["decision_latency"] = latency
    result.meta["instance_decisions"] = {r.pid: r.values for r in judged}
    registry.count("messages_sent", result.messages_sent)
    registry.count("messages_delivered", result.messages_delivered)
    registry.count("decisions", len(result.decisions))
    registry.count("module_decisions", sum(r.module_decisions for r in judged))
    registry.gauge("virtual_time", elapsed)
    result.metrics = registry.snapshot()

    # -- the paper's properties ----------------------------------------------
    for exc_cls, message in violations(judged, {proposals[p] for p in correct}, params):
        fail(exc_cls, message)
    return result


def violations(
    reports: Sequence[NodeReport], correct_proposals: set, params: ProtocolParams
) -> Iterable[Tuple[type, str]]:
    """Each violated property of correct nodes' ``reports``, as its
    :mod:`repro.errors` class and message, in :func:`build_result`'s
    order.  All but :class:`LivenessFailure` hold after any step."""
    binary = [r for r in reports if r.instances]
    for i in range(len(binary[0].instances) if binary else 0):
        where = f"instance {i}: " if i else ""
        outcomes = {r.pid: r.instances[i] for r in binary}
        decided = {p: o.value for p, o in outcomes.items() if o.decided}
        if len(set(decided.values())) > 1:
            yield (AgreementViolation,
                   f"{where}correct processes decided {sorted(set(decided.values()))}")
        for pid, value in decided.items():
            if value not in correct_proposals:
                yield (ValidityViolation,
                       f"{where}p{pid} decided {value}, "
                       "proposed by no correct process")
        for pid, outcome in outcomes.items():
            if outcome.invariant_flags:
                yield (IntegrityViolation,
                       f"{where}p{pid}: {'; '.join(outcome.invariant_flags)}")
        if len(decided) < len(outcomes):
            yield (LivenessFailure,
                   f"{where}processes never decided: "
                   f"{sorted(set(outcomes) - set(decided))}")

    # -- ACS: subset agreement, n - t size bound, completion -----------------
    acs_nodes = [r for r in reports if not r.instances]
    outputs = {r.acs for r in acs_nodes if r.acs is not None}
    if len(outputs) > 1:
        yield AgreementViolation, f"ACS outputs diverge: {outputs}"
    if outputs and min(map(len, outputs)) < params.step_quorum:
        yield (AgreementViolation,
               f"ACS output has {min(map(len, outputs))} elements, "
               f"need >= {params.step_quorum}")
    unfinished = sorted(r.pid for r in acs_nodes if r.acs is None)
    if unfinished:
        yield LivenessFailure, f"ACS never completed at: {unfinished}"


__all__ = ["InstanceOutcome", "NodeReport", "build_result", "violations"]
