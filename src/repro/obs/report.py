"""The one trace reader: every table ``repro report FILE`` prints.

Given the JSONL trace a run produced under ``observe: jsonl``,
:func:`render_report` sorts the stream once, builds one
:class:`CausalDag` from it, and renders every table from that DAG:

* **correlation** — how many stamped sends the trace holds and how many
  delivers name one of them (dangling, duplicate and unstamped counts
  when nonzero);
* **event totals** — counts by kind, including retransmissions, netem
  verdicts, and wire frames when those layers were active;
* **per-instance decision latency** — for each protocol instance, when
  each node decided (relative to the run's first event), with exact
  p50/p95/p99 across nodes;
* **per-round timing** — for each ``(instance, round)`` with traffic,
  the time window between its first and last protocol message and the
  message count, which is the round-based view Crain'20-style analyses
  need;
* **phase breakdown** — the same windows per ``(instance, round,
  phase)`` over deliveries (e.g. Bracha ``ECHO`` vs ``READY`` gating,
  extracted from payload classnames/steps);
* **per-decision critical paths** — *which chain of messages gated this
  decision?*  Causal message ids on ``send``/``deliver`` events (the
  :class:`~repro.sim.effects.CausalStamper` detail ``{"msg": id,
  "payload": ...}``) make the trace a happens-before graph; the path is
  its latest-arriving enabling chain (:meth:`CausalDag.critical_path`),
  the causal-DAG view PARSEC-style analyses build on;
* **queue-vs-processing split** — per delivered message, how long it
  spent in flight versus how long the receiving node worked before its
  next event, which on the runtime fabrics separates network/queue time
  from handler time.

Everything degrades observationally: traces from unobserved stamping
eras (no ``msg`` details) yield empty DAGs and empty tables, never
errors.  Corrupt input does error: a malformed causal id on a path walk
raises :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.tables import format_table
from ..errors import ConfigError
from ..sim.effects import parse_mid
from .events import Event


def event_mid(event: Event) -> Optional[str]:
    """The causal message id carried by a send/deliver event, if any."""
    detail = event.detail
    if isinstance(detail, dict):
        mid = detail.get("msg")
        if isinstance(mid, str):
            return mid
    return None


def event_payload_repr(event: Event) -> Optional[str]:
    """The payload rendering of a send/deliver event, stamped or not."""
    detail = event.detail
    if isinstance(detail, dict):
        payload = detail.get("payload")
        return payload if isinstance(payload, str) else None
    return detail if isinstance(detail, str) else None


@dataclass(frozen=True)
class PathHop:
    """One message on a critical path: ``src`` sent it, ``dest`` got it.

    ``send_time`` is ``None`` for a dangling hop — the deliver named an
    id whose send event is not in the trace (e.g. the sender crashed
    before its event ring was shipped).
    """

    mid: str
    src: int
    dest: int
    send_time: Optional[float]
    deliver_time: float
    instance: Optional[str]
    round: Optional[int]
    payload: Optional[str]


class CausalDag:
    """The delivery DAG reconstructed from one event stream.

    Events are stably sorted by time — the mp fabric merges per-node
    rings whose clocks are independent, so a loaded trace can interleave
    slightly out of order; ties keep stream order, which is emission
    order per node.  ``zero`` is the first event's time.  The events are
    indexed and cross-linked: ``sends`` and ``delivers`` map causal ids
    to event indices, and every event knows its node's nearest preceding
    delivery — the happens-before edge the backward walks follow.
    """

    def __init__(self, events: Sequence[Event]):
        self.events: List[Event] = sorted(events, key=lambda e: e.time)
        self.zero = self.events[0].time if self.events else 0.0
        self.sends: Dict[str, int] = {}
        self.delivers: Dict[str, List[int]] = {}
        #: send/deliver events carrying no causal id (pre-stamping trace
        #: or an unobserved sender) — visible so coverage gaps are loud.
        self.unstamped = 0
        self._prev_deliver: Dict[int, int] = {}
        last_deliver: Dict[Any, int] = {}
        for index, event in enumerate(self.events):
            node = event.node
            if node is not None and node in last_deliver:
                self._prev_deliver[index] = last_deliver[node]
            if event.kind == "send":
                mid = event_mid(event)
                if mid is None:
                    self.unstamped += 1
                elif mid not in self.sends:  # first wins; dups counted below
                    self.sends[mid] = index
            elif event.kind == "deliver":
                mid = event_mid(event)
                if mid is None:
                    self.unstamped += 1
                else:
                    self.delivers.setdefault(mid, []).append(index)
                if node is not None:
                    last_deliver[node] = index

    # -- correlation accounting ---------------------------------------------

    def matched_delivers(self) -> int:
        """Delivers whose id names a send present in the trace."""
        return sum(
            len(indices) for mid, indices in self.delivers.items()
            if mid in self.sends
        )

    def dangling_delivers(self) -> int:
        """Delivers whose send event is missing from the trace."""
        return sum(
            len(indices) for mid, indices in self.delivers.items()
            if mid not in self.sends
        )

    def duplicate_delivers(self) -> int:
        """Extra deliveries of an already-delivered id (netem duplicates)."""
        return sum(
            len(indices) - 1 for indices in self.delivers.values()
            if len(indices) > 1
        )

    # -- the walks -----------------------------------------------------------

    def critical_path(self, index: int) -> List[PathHop]:
        """The latest-arriving enabling chain behind ``events[index]``.

        ``index`` is usually a decide event; the returned hops run
        oldest-first and the final hop's ``dest`` is the event's node.
        An empty list means the event had no prior delivery (or the
        trace carries no causal ids).
        """
        hops: List[PathHop] = []
        visited = set()
        cursor: Optional[int] = index
        # A revisit is a merged-clock anomaly (a send stamped after its
        # delivery); the walk stops there rather than loop.
        while cursor is not None and cursor not in visited:
            visited.add(cursor)
            deliver_index = self._prev_deliver.get(cursor)
            if deliver_index is None:
                break
            deliver = self.events[deliver_index]
            mid = event_mid(deliver)
            if mid is None:
                break  # unstamped era: the chain is unknowable past here
            cursor = self.sends.get(mid)
            if cursor is None:
                # Dangling: the sender's events are lost (e.g. it was
                # killed before shipping its ring).  The id still names
                # the true sender, and the walk ends here.
                src, send_time = parse_mid(mid)[0], None
            else:
                send = self.events[cursor]
                src, send_time = send.node, send.time
            hops.append(PathHop(
                mid=mid, src=src, dest=deliver.node,
                send_time=send_time, deliver_time=deliver.time,
                instance=deliver.instance, round=deliver.round,
                payload=event_payload_repr(deliver),
            ))
        hops.reverse()
        return hops

    def critical_paths(self) -> List[Tuple[Event, List[PathHop]]]:
        """``(decide event, path)`` for every decide, in stream order."""
        return [
            (event, self.critical_path(index))
            for index, event in enumerate(self.events)
            if event.kind == "decide"
        ]


# ---------------------------------------------------------------------------
# Shared table helpers
# ---------------------------------------------------------------------------


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f}"


def _limited(
    headers: Sequence[str], rows: List[List[Any]], title: str, limit: int,
    noun: str,
) -> str:
    """The first ``limit`` rows as a table, plus a count of the rest."""
    table = format_table(headers, rows[:limit], title=title)
    if len(rows) > limit:
        table += f"\n... {len(rows) - limit} more {noun}"
    return table


def _window_rows(
    dag: CausalDag,
    key: Callable[[Event], Optional[Tuple[Any, ...]]],
    order: Optional[Callable[[Tuple[Any, ...]], Any]] = None,
) -> List[List[Any]]:
    """``[*key, count, first ms, last ms, span ms]`` per distinct key.

    ``key`` maps an event to its window (``None`` = not counted); times
    are relative to the trace's first event, and rows come out sorted by
    ``order`` over the keys.
    """
    windows: Dict[Tuple[Any, ...], List[Any]] = {}
    for event in dag.events:
        k = key(event)
        if k is None:
            continue
        t = event.time - dag.zero
        window = windows.get(k)
        if window is None:
            windows[k] = [1, t, t]
        else:
            window[0] += 1
            window[2] = t  # time-ordered events: first stays, last advances
    rows = []
    for k in sorted(windows, key=order):
        count, first, last = windows[k]
        rows.append([*k, count, _ms(first), _ms(last), _ms(last - first)])
    return rows


def _percentile(values: Sequence[float], q: float) -> float:
    """Exact percentile (nearest-rank with interpolation) of a small set."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    position = q * (len(data) - 1)
    lo = int(position)
    hi = min(lo + 1, len(data) - 1)
    fraction = position - lo
    return data[lo] + fraction * (data[hi] - data[lo])


# ---------------------------------------------------------------------------
# The tables, in report order
# ---------------------------------------------------------------------------


def correlation_summary(dag: CausalDag) -> str:
    """One-paragraph send/deliver correlation accounting."""
    lines = [
        f"correlation: {len(dag.sends)} stamped sends, "
        f"{dag.matched_delivers()} matched delivers",
    ]
    dangling = dag.dangling_delivers()
    duplicates = dag.duplicate_delivers()
    if dangling:
        lines.append(
            f"  {dangling} dangling delivers (sender events missing — "
            "crashed node or truncated ring)"
        )
    if duplicates:
        lines.append(f"  {duplicates} duplicate deliveries (netem)")
    if dag.unstamped:
        lines.append(
            f"  {dag.unstamped} unstamped send/deliver events "
            "(trace predates causal ids?)"
        )
    return "\n".join(lines)


def kind_totals_table(dag: CausalDag) -> str:
    counts = Counter(event.kind for event in dag.events)
    rows = [[kind, counts[kind]] for kind in sorted(counts)]
    return format_table(
        ["kind", "events"], rows,
        title=f"Event totals ({len(dag.events)} events)",
    )


def decision_latency_table(dag: CausalDag) -> str:
    """Per-instance decision latency across nodes, from decide events."""
    by_instance: Dict[str, List[float]] = {}
    for event in dag.events:
        if event.kind == "decide":
            instance = event.instance or "<protocol>"
            by_instance.setdefault(instance, []).append(event.time - dag.zero)
    if not by_instance:
        return "no decide events in trace"
    rows = []
    for instance in sorted(by_instance):
        latencies = by_instance[instance]
        rows.append([
            instance, len(latencies),
            *(_ms(_percentile(latencies, q)) for q in (0.50, 0.95, 0.99)),
            _ms(max(latencies)),
        ])
    return format_table(
        ["instance", "deciders", "p50 ms", "p95 ms", "p99 ms", "max ms"],
        rows,
        title="Per-instance decision latency (relative to first event)",
    )


def round_timing_table(dag: CausalDag, limit: int = 40) -> str:
    """First/last message time and count per ``(instance, round)``."""

    def key(event: Event) -> Optional[Tuple[str, int]]:
        if (event.kind in ("send", "deliver") and event.instance is not None
                and event.round is not None):
            return (event.instance, event.round)
        return None

    rows = _window_rows(dag, key)
    if not rows:
        return "no round-tagged protocol messages in trace"
    return _limited(
        ["instance", "round", "messages", "first ms", "last ms", "span ms"],
        rows, "Per-round timing (protocol message windows)", limit,
        "(instance, round) rows",
    )


_CLASS_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\(")
_STEP_RE = re.compile(r"(?:step|phase)=<?[A-Za-z_]*\.?([A-Z_]+)")


def phase_of(event: Event) -> Optional[str]:
    """A best-effort phase label for a protocol message event.

    Message classnames separate protocol stages by construction
    (``PVote`` vs ``RVote``, ``BvValue`` vs ``AuxMsg``); Bracha's
    :class:`~repro.core.broadcast.RbcMessage` multiplexes its stages
    through a ``step`` field, surfaced as ``RbcMessage/ECHO`` etc.
    """
    payload = event_payload_repr(event)
    if not payload:
        return None
    match = _CLASS_RE.match(payload)
    if match is None:
        return None
    label = match.group(1)
    step = _STEP_RE.search(payload)
    if step is not None:
        label += "/" + step.group(1)
    return label


def phase_table(dag: CausalDag, limit: int = 40) -> str:
    """Delivered-message windows per ``(instance, round, phase)``."""

    def key(event: Event) -> Optional[Tuple[str, Any, str]]:
        phase = phase_of(event) if event.kind == "deliver" else None
        if phase is None:
            return None
        round_ = "-" if event.round is None else event.round
        return (event.instance or "<protocol>", round_, phase)

    rows = _window_rows(
        dag, key, order=lambda k: (k[0], -1 if k[1] == "-" else k[1], k[2]),
    )
    if not rows:
        return "no phase-classifiable deliveries in trace"
    return _limited(
        ["instance", "round", "phase", "delivered", "first ms", "last ms",
         "span ms"],
        rows, "Per-round phase breakdown (delivery windows)", limit,
        "(instance, round, phase) rows",
    )


def _render_path(hops: List[PathHop], max_hops: int = 6) -> str:
    if not hops:
        return "(no enabling delivery)"
    shown = hops[-max_hops:]
    parts = [f"p{shown[0].src}"]
    for hop in shown:
        parts.append(f"-[{hop.mid}]-> p{hop.dest}")
    prefix = f"... {len(hops) - len(shown)} earlier hops, " if len(hops) > len(shown) else ""
    return prefix + " ".join(parts)


def critical_path_table(dag: CausalDag, limit: int = 40) -> str:
    """Per-decision critical paths, one row per decide event."""
    paths = dag.critical_paths()
    if not paths:
        return "no decide events in trace"
    rows = []
    for decide, hops in paths:
        if hops:
            start = hops[0].send_time
            if start is None:
                start = hops[0].deliver_time
            span_ms = _ms(hops[-1].deliver_time - start)
        else:
            span_ms = "-"
        rows.append([
            f"p{decide.node}",
            decide.instance or "<protocol>",
            repr(decide.detail),
            _ms(decide.time - dag.zero),
            len(hops),
            span_ms,
            _render_path(hops),
        ])
    return _limited(
        ["node", "instance", "value", "decided ms", "hops", "path span ms",
         "critical path (latest-arriving chain)"],
        rows, "Per-decision critical paths", limit, "decisions",
    )


def queue_split(dag: CausalDag) -> Dict[int, Dict[str, List[float]]]:
    """Per-node ``{"wait": [...], "processing": [...]}`` samples.

    *Wait* is a message's in-flight time (deliver − send, matched by
    causal id).  *Processing* is the gap from a delivery to the
    receiving node's next event — how long the handler (and anything it
    triggered) ran before the node surfaced again.  On the runtime
    fabrics the split separates network/queue time from compute; on the
    simulator both are virtual-time views of the schedule.
    """
    samples: Dict[int, Dict[str, List[float]]] = {}
    next_time: Dict[int, float] = {}
    # Walk backwards so each event knows its node's next-event time.
    following: List[Optional[float]] = [None] * len(dag.events)
    for index in range(len(dag.events) - 1, -1, -1):
        node = dag.events[index].node
        if node is None:
            continue
        following[index] = next_time.get(node)
        next_time[node] = dag.events[index].time
    for mid, indices in dag.delivers.items():
        send_index = dag.sends.get(mid)
        for index in indices:
            deliver = dag.events[index]
            if deliver.node is None:
                continue
            per_node = samples.setdefault(
                deliver.node, {"wait": [], "processing": []}
            )
            if send_index is not None:
                wait = deliver.time - dag.events[send_index].time
                per_node["wait"].append(max(0.0, wait))
            after = following[index]
            if after is not None:
                per_node["processing"].append(max(0.0, after - deliver.time))
    return samples


def queue_split_table(dag: CausalDag) -> str:
    """The queue-vs-processing split rendered per node."""
    samples = queue_split(dag)
    if not samples:
        return "no correlated deliveries in trace (run with observe on)"

    def stats(values: List[float]) -> Tuple[str, str]:
        if not values:
            return ("-", "-")
        ordered = sorted(values)
        return (_ms(ordered[len(ordered) // 2]), _ms(ordered[-1]))

    rows = []
    total: Dict[str, List[float]] = {"wait": [], "processing": []}
    for node in sorted(samples):
        wait, processing = samples[node]["wait"], samples[node]["processing"]
        total["wait"] += wait
        total["processing"] += processing
        rows.append([f"p{node}", len(wait), *stats(wait), *stats(processing)])
    rows.append([
        "all", len(total["wait"]),
        *stats(total["wait"]), *stats(total["processing"]),
    ])
    return format_table(
        ["node", "messages", "wait p50 ms", "wait max ms",
         "processing p50 ms", "processing max ms"],
        rows,
        title="Queue vs processing split (in-flight wait / handler time)",
    )


def render_report(events: Sequence[Event], limit: int = 40) -> str:
    """The full ``repro report`` output for one trace.

    ``limit`` caps the rows of each of the per-round, phase and
    critical-path tables; below 1 it is a :class:`ConfigError`.
    """
    if limit < 1:
        raise ConfigError(f"report limit must be at least 1, got {limit}")
    if not events:
        return "empty trace (no events)"
    dag = CausalDag(events)
    span = dag.events[-1].time - dag.zero
    return "\n".join([
        f"trace: {len(dag.events)} events spanning {_ms(span)} ms",
        correlation_summary(dag),
        "",
        kind_totals_table(dag),
        "",
        decision_latency_table(dag),
        "",
        round_timing_table(dag, limit=limit),
        "",
        phase_table(dag, limit=limit),
        "",
        critical_path_table(dag, limit=limit),
        "",
        queue_split_table(dag),
    ])


__all__ = [
    "CausalDag",
    "PathHop",
    "correlation_summary",
    "critical_path_table",
    "decision_latency_table",
    "event_mid",
    "event_payload_repr",
    "kind_totals_table",
    "phase_of",
    "phase_table",
    "queue_split",
    "queue_split_table",
    "render_report",
    "round_timing_table",
]
