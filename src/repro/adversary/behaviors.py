"""Byzantine process behaviors.

A behavior object stands in for a corrupted process: the network delivers
the process's inbound traffic to it, and anything it sends is attributed
to the corrupted pid (it cannot forge other identities — authenticated
links).  Behaviors range from benign-looking (silence, crash) to actively
malicious (two-faced execution, protocol fuzzing).

Behaviors live on the *driver* side of the engine/driver split: they
call ``network.send`` directly (no effect outbox — an adversary is not
required to be well-structured), while any honest stacks they wrap run
as ordinary :class:`~repro.sim.process.Process` engines whose outboxes
drain at their own activation boundaries.

The two-faced behavior deserves a note: it runs *two complete honest
protocol stacks* for the same pid, one proposing 0 and one proposing 1,
and partitions the correct processes into two groups — group A talks to
face A, group B to face B.  This is the strongest "natural" equivocation
attack: every individual message is perfectly well-formed, only the
global picture is inconsistent.  Bracha's reliable broadcast is exactly
the mechanism that defeats it.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from ..params import ProtocolParams
from ..sim.network import NetworkAPI
from ..sim.process import Process
from ..types import Phase, ProcessId, StepValue

ProcessFactory = Callable[[Process], None]
"""Installs a full protocol stack on a (possibly unregistered) process."""


class ByzantineBehavior:
    """Base class: a corrupted process that does nothing (silent fault).

    Silence is itself a legal Byzantine behavior (and models a crash at
    time zero); subclasses override :meth:`deliver` and :meth:`start`.
    """

    def __init__(self, pid: ProcessId, network: NetworkAPI, params: ProtocolParams):
        self.pid = pid
        self.network = network
        self.params = params

    @property
    def is_faulty(self) -> bool:
        return True

    def start(self) -> None:
        """Hook called when the simulation starts."""

    def deliver(self, sender: ProcessId, payload: Any) -> None:
        """Inbound message — default: ignore everything."""

    # -- helpers for subclasses ---------------------------------------

    def send(self, dest: ProcessId, payload: Any) -> None:
        self.network.send(self.pid, dest, payload)

    def broadcast(self, payload: Any) -> None:
        for dest in range(self.params.n):
            self.send(dest, payload)

    def rng(self) -> random.Random:
        return self.network.rng.stream("byzantine", self.pid)


class SilentBehavior(ByzantineBehavior):
    """Fails right at the start: sends nothing, ever."""


class CrashBehavior(ByzantineBehavior):
    """Behaves correctly, then crashes after ``crash_after`` deliveries.

    Wraps an honest protocol stack built by ``factory``; once the
    delivery counter passes the threshold, the inner stack is cut off —
    messages already handed to the network stay in flight (a crash does
    not recall packets), but nothing further is processed or sent.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: NetworkAPI,
        params: ProtocolParams,
        factory: ProcessFactory,
        crash_after: int = 0,
    ):
        super().__init__(pid, network, params)
        self.crash_after = crash_after
        self._delivered = 0
        self.inner = Process(pid, network, params, register=False)
        factory(self.inner)

    @property
    def crashed(self) -> bool:
        return self._delivered >= self.crash_after

    def start(self) -> None:
        if not self.crashed:
            self.inner.start()

    def deliver(self, sender: ProcessId, payload: Any) -> None:
        if self.crashed:
            return
        self._delivered += 1
        self.inner.deliver(sender, payload)

    def close(self) -> None:
        """Unlink the wrapped honest stack (end of run)."""
        self.inner.close()


class _FaceNet:
    """Network shim for one face of a two-faced process.

    Forwards sends only to the face's destination group (plus the other
    groups' traffic is handled by the other face), delegating everything
    else to the real network.
    """

    def __init__(self, real: NetworkAPI, allowed: frozenset[ProcessId], face: str):
        self._real = real
        self._allowed = allowed
        self._face = face

    def send(self, source: ProcessId, dest: ProcessId, payload: Any) -> None:
        if dest in self._allowed:
            self._real.send(source, dest, payload)

    def register(self, process: Any) -> None:  # inner stacks never register
        raise AssertionError("a face must not register with the network")

    @property
    def rng(self):
        return self._real.rng.child("face", self._face)

    def now(self) -> float:
        return self._real.now()

    def trace_note(self, pid: Optional[ProcessId], detail: Any) -> None:
        self._real.trace_note(pid, f"[face {self._face}] {detail}")


class TwoFacedBehavior(ByzantineBehavior):
    """Runs two honest stacks, showing a different face to each group.

    Args:
        factory_a / factory_b: build the stacks of the two faces (e.g.
            consensus instances proposing 0 and 1 respectively).
        group_a: pids served by face A; everyone else is served by B.

    Inbound messages are delivered to *both* faces — each face sees a
    consistent world in which the other group is merely slow, which is
    indistinguishable from asynchrony.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: NetworkAPI,
        params: ProtocolParams,
        factory_a: ProcessFactory,
        factory_b: ProcessFactory,
        group_a: Iterable[ProcessId],
    ):
        super().__init__(pid, network, params)
        members_a = frozenset(group_a)
        members_b = frozenset(range(params.n)) - members_a
        self.face_a = Process(pid, _FaceNet(network, members_a, "A"), params, register=False)  # type: ignore[arg-type]
        self.face_b = Process(pid, _FaceNet(network, members_b, "B"), params, register=False)  # type: ignore[arg-type]
        factory_a(self.face_a)
        factory_b(self.face_b)

    def start(self) -> None:
        self.face_a.start()
        self.face_b.start()

    def deliver(self, sender: ProcessId, payload: Any) -> None:
        self.face_a.deliver(sender, payload)
        self.face_b.deliver(sender, payload)

    def close(self) -> None:
        """Unlink both faces' honest stacks (end of run)."""
        self.face_a.close()
        self.face_b.close()


class EquivocatingBroadcaster(ByzantineBehavior):
    """A faulty *originator* for reliable-broadcast experiments.

    Sends ``INIT value_a`` to one half of the system and ``INIT value_b``
    to the other, then echoes both values to their respective groups —
    the textbook equivocation that consistency must defeat.  The message
    objects are built from the broadcast layer's own wire format so
    receivers cannot tell anything is wrong locally.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: NetworkAPI,
        params: ProtocolParams,
        instance: Any,
        value_a: Any,
        value_b: Any,
        group_a: Sequence[ProcessId],
        module_id: str = "rbc",
    ):
        super().__init__(pid, network, params)
        self.instance = instance
        self.value_a = value_a
        self.value_b = value_b
        self.group_a = frozenset(group_a)
        self.module_id = module_id

    def _rbc(self, phase: Phase, value: Any):
        from ..core.broadcast import RbcMessage

        return (self.module_id, RbcMessage(self.instance, self.pid, phase, value))

    def start(self) -> None:
        for dest in range(self.params.n):
            if dest == self.pid:
                continue
            value = self.value_a if dest in self.group_a else self.value_b
            self.send(dest, self._rbc(Phase.INIT, value))

    def deliver(self, sender: ProcessId, payload: Any) -> None:
        # Echo each face's value to its own group, maximizing confusion.
        if sender == self.pid:
            return  # never converse with ourselves (avoids self-loops)
        if sender in self.group_a:
            self.send(sender, self._rbc(Phase.ECHO, self.value_a))
        else:
            self.send(sender, self._rbc(Phase.ECHO, self.value_b))


class StubbornBidder(ByzantineBehavior):
    """Pushes one bit into every round of a Bracha consensus instance.

    For rounds ``1..horizon`` it reliably broadcasts well-formed step
    messages carrying ``bit`` — plain in steps 1 and 2, a decide
    proposal ``(d, bit)`` in step 3 — regardless of anything it receives.
    Against the *validated* protocol all of it is held pending forever
    whenever the honest majority holds the other bit; against the
    no-validation ablation the same messages poison step quorums and can
    steer a unanimous system to the adversary's bit (experiment A1).
    """

    def __init__(
        self,
        pid: ProcessId,
        network: NetworkAPI,
        params: ProtocolParams,
        bit: int = 0,
        horizon: int = 12,
        module_id: str = "bracha",
    ):
        super().__init__(pid, network, params)
        self.bit = bit
        self.horizon = horizon
        self.module_id = module_id

    def start(self) -> None:
        from ..core.broadcast import RbcMessage

        for round_ in range(1, self.horizon + 1):
            for step in (1, 2, 3):
                instance = (self.module_id, round_, step, self.pid)
                value = StepValue(self.bit, decide=(step == 3))
                self.broadcast(
                    ("rbc", RbcMessage(instance, self.pid, Phase.INIT, value))
                )

    def deliver(self, sender: ProcessId, payload: Any) -> None:
        # Participate in the broadcast layer just enough to stay
        # plausible: echo whatever arrives back as its own READY vote is
        # unnecessary — the n−t correct processes complete every wave.
        pass


#: The consensus module whose broadcast names :class:`SquatBehavior`
#: claims, and how many of its rounds.
_SQUAT_MODULE = "bracha"
_SQUAT_HORIZON = 12


class SquatBehavior(ByzantineBehavior):
    """Claims the next process's Bracha consensus broadcasts by name.

    The names ``("bracha", round, step, victim)`` are predictable, so for
    rounds ``1.._SQUAT_HORIZON`` the squatter INITs each of its victim's
    — ``(pid + 1) % n`` — under its *own* pid with ``bit``, before the
    victim can, and answers the first ECHO of each with a READY claiming
    ``originator=victim``.  Keyed by name alone, a broadcast layer would
    leave the victim's own INITs unechoed and could accept the
    squatter's value as the victim's; keyed by ``(instance,
    originator)``, both are inert.
    """

    def __init__(
        self, pid: ProcessId, network: NetworkAPI, params: ProtocolParams,
        bit: int,
    ):
        super().__init__(pid, network, params)
        self.victim = (pid + 1) % params.n
        #: Squatted name -> its value, until that name's READY is out.
        self._unreadied = {
            (_SQUAT_MODULE, round_, step, self.victim):
                StepValue(bit, decide=(step == 3))
            for round_ in range(1, _SQUAT_HORIZON + 1) for step in (1, 2, 3)
        }

    def start(self) -> None:
        from ..core.broadcast import RbcMessage

        for instance, value in self._unreadied.items():
            self.broadcast(
                ("rbc", RbcMessage(instance, self.pid, Phase.INIT, value))
            )

    def deliver(self, sender: ProcessId, payload: Any) -> None:
        from ..core.broadcast import RbcMessage

        if not (isinstance(payload, tuple) and len(payload) == 2):
            return
        message = payload[1]
        if (not isinstance(message, RbcMessage)
                or message.phase is not Phase.ECHO
                or message.originator != self.pid):
            return  # only the echoes of its own squatting INITs
        try:
            value = self._unreadied.pop(message.instance, None)
        except TypeError:
            return  # an unhashable name is none of ours
        if value is not None:
            self.broadcast(("rbc", RbcMessage(
                message.instance, self.victim, Phase.READY, value)))


class FuzzerBehavior(ByzantineBehavior):
    """Replays mutated copies of whatever it receives.

    For every inbound message the fuzzer forwards, with probability
    ``mutate_p``, a structurally similar but corrupted payload to a
    random destination: wrong phases, wrong rounds, wrong instance tags.
    It exercises the defensive ``isinstance``/range checks of every
    protocol module — a correct implementation must shrug all of it off.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: NetworkAPI,
        params: ProtocolParams,
        mutate_p: float = 0.5,
        fanout: int = 2,
    ):
        super().__init__(pid, network, params)
        self.mutate_p = mutate_p
        self.fanout = fanout

    def deliver(self, sender: ProcessId, payload: Any) -> None:
        rng = self.rng()
        for _ in range(self.fanout):
            if rng.random() > self.mutate_p:
                continue
            dest = rng.randrange(self.params.n)
            self.send(dest, self._mutate(payload, rng))

    def _mutate(self, payload: Any, rng: random.Random) -> Any:
        from ..core.broadcast import RbcMessage

        choice = rng.randrange(4)
        if choice == 0:
            return payload  # replay verbatim (duplicates must be idempotent)
        if choice == 1 and isinstance(payload, tuple) and len(payload) == 2:
            module_id, inner = payload
            if isinstance(inner, RbcMessage):
                phase = rng.choice([Phase.INIT, Phase.ECHO, Phase.READY])
                return (module_id, RbcMessage(inner.instance, inner.originator, phase, inner.value))
            return (module_id, inner)
        if choice == 2 and isinstance(payload, tuple) and len(payload) == 2:
            module_id, inner = payload
            if isinstance(inner, RbcMessage) and isinstance(inner.value, StepValue):
                flipped = StepValue(1 - inner.value.bit, inner.value.decide)
                return (module_id, RbcMessage(inner.instance, inner.originator, inner.phase, flipped))
            return (module_id, "garbage")
        return ("no-such-module", rng.random())


#: Every fault kind :func:`dispatch_behavior` builds, on every fabric,
#: with the options its spec may carry besides ``kind``.
BEHAVIOR_KINDS: Dict[str, Tuple[str, ...]] = {
    "silent": (),
    "crash": ("crash_after", "proposal"),
    "two_faced": ("group_a", "bit_a", "bit_b"),
    "fuzzer": ("mutate_p", "fanout"),
    "stubborn": ("bit", "horizon", "module_id"),
    "squat": (),
}


def dispatch_behavior(
    pid: ProcessId,
    spec: Any,
    network: NetworkAPI,
    params: ProtocolParams,
    honest_factory: Callable[[Process, Any], None],
    default_proposal: Any,
) -> ByzantineBehavior:
    """Build a behavior from a fault spec — the single dispatcher every
    fabric shares (through :func:`repro.stacks.build_plan_behavior`).

    ``spec`` is a kind string or a mapping with a ``kind`` key plus
    kwargs.  ``honest_factory(process, bit)`` installs a complete honest
    stack (with a deferred start-time proposal of ``bit``) on an inner
    process — how that stack is assembled is the only thing the two
    execution worlds do differently.
    """
    from ..errors import ConfigError

    config = {"kind": spec} if isinstance(spec, str) else dict(spec)
    kind = config.pop("kind", None)
    if kind is None:
        raise ConfigError(f"fault spec needs a 'kind': {spec!r}")
    if kind == "silent":
        return SilentBehavior(pid, network, params)
    if kind == "crash":
        crash_after = config.pop("crash_after", 50)
        proposal = config.pop("proposal", default_proposal)
        return CrashBehavior(
            pid, network, params,
            lambda process: honest_factory(process, proposal),
            crash_after=crash_after, **config,
        )
    if kind == "two_faced":
        group_a = config.pop("group_a", None)
        bit_a = config.pop("bit_a", 0)
        bit_b = config.pop("bit_b", 1)
        if group_a is None:
            others = [q for q in range(params.n) if q != pid]
            group_a = others[: len(others) // 2]
        return TwoFacedBehavior(
            pid, network, params,
            factory_a=lambda process: honest_factory(process, bit_a),
            factory_b=lambda process: honest_factory(process, bit_b),
            group_a=group_a, **config,
        )
    if kind == "fuzzer":
        return FuzzerBehavior(pid, network, params, **config)
    if kind == "stubborn":
        return StubbornBidder(pid, network, params, **config)
    if kind == "squat":
        # Squat with the bit this process was not dealt.
        bit = 0 if default_proposal == 1 else 1
        return SquatBehavior(pid, network, params, bit, **config)
    raise ConfigError(
        f"unknown fault kind {kind!r}; choose from {list(BEHAVIOR_KINDS)}"
    )
