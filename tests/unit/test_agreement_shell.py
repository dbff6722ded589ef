"""The binary-agreement shell, checked once against every engine on it.

Proposing, counting DECIDEs, relaying, halting and the second-decision
flag are written once, in :class:`~repro.core.consensus.BinaryAgreement`;
each case here runs against all four engines at n=7, t=2, where the
Byzantine thresholds (relay t+1 = 3, halt 2t+1 = 5) and the crash ones
(relay 1, halt t+1 = 3) all differ.
"""

import pytest

from repro.baselines.benor import BenOrConsensus, BenOrCrashConsensus
from repro.baselines.bv_broadcast import BinaryValueBroadcast
from repro.baselines.mmr14 import Mmr14Consensus
from repro.core.broadcast import BroadcastLayer
from repro.core.consensus import (
    BinaryAgreement, BrachaConsensus, DecisionEvent, HaltEvent,
)

from ..conftest import make_member

N, T = 7, 2


class SilentCoin:
    """A coin that never lands: no round can end on a flip."""

    def request(self, round_, callback):
        pass


ENGINES = {
    "bracha": lambda p: BrachaConsensus(p.add_module(BroadcastLayer()), SilentCoin()),
    "benor": lambda p: BenOrConsensus(SilentCoin()),
    "benor-crash": lambda p: BenOrCrashConsensus(SilentCoin()),
    "mmr14": lambda p: Mmr14Consensus(p.add_module(BinaryValueBroadcast()), SilentCoin()),
}
#: Engine -> (DECIDEs that trigger a relay, DECIDEs that halt).
THRESHOLDS = {
    "bracha": (T + 1, 2 * T + 1),
    "benor": (T + 1, 2 * T + 1),
    "benor-crash": (1, T + 1),  # nobody lies in the crash model
    "mmr14": (T + 1, 2 * T + 1),
}


@pytest.fixture(params=sorted(ENGINES))
def engine(request):
    """(name, module, stub network) for one engine at pid 0."""
    process, stub = make_member(n=N, t=T)
    module = process.add_module(ENGINES[request.param](process))
    assert isinstance(module, BinaryAgreement)
    return request.param, module, stub


def decides_sent(stub, module):
    return [p for _s, _d, (_m, p) in stub.sent if isinstance(p, module.DECIDE)]


class TestPropose:
    @pytest.mark.parametrize("bad", [2, -1, None, "1"],
                             ids=["two", "minus-one", "none", "string"])
    def test_a_non_bit_proposal_is_refused(self, engine, bad):
        _name, module, stub = engine
        with pytest.raises(ValueError, match="0 or 1"):
            module.propose(bad)
        assert module.proposal is None and stub.sent == []

    def test_a_second_propose_is_refused(self, engine):
        _name, module, stub = engine
        module.propose(1)
        sent = len(stub.sent)
        with pytest.raises(RuntimeError, match="called twice"):
            module.propose(0)
        assert module.proposal == 1 and len(stub.sent) == sent


class TestDecideVotes:
    def test_a_senders_repeated_decide_counts_once(self, engine):
        name, module, stub = engine
        module.propose(0)
        for _ in range(THRESHOLDS[name][1] + 1):
            module.on_message(1, module.DECIDE(1))
        # One vote: below every relay threshold but the crash model's.
        relayed = name == "benor-crash"
        assert len(decides_sent(stub, module)) == (N if relayed else 0)
        assert not module.decided and not module.halted

    def test_relay_and_halt_come_at_their_thresholds(self, engine):
        name, module, stub = engine
        relay, halt = THRESHOLDS[name]
        assert (module.relay_at(), module.halt_at()) == (relay, halt)
        module.propose(0)
        relayed_at = halted_at = None
        for votes, sender in enumerate(range(1, N), start=1):
            module.on_message(sender, module.DECIDE(1))
            if relayed_at is None and decides_sent(stub, module):
                relayed_at = votes
            if halted_at is None and module.halted:
                halted_at = votes
        assert (relayed_at, halted_at) == (relay, halt)
        # The relay went to all, once, and halting decided the voted bit.
        sent = decides_sent(stub, module)
        assert len(sent) == N and {d.bit for d in sent} == {1}
        assert module.decided and module.decision == 1

    def test_halting_is_logged_once(self, engine):
        """Halting from the vote check inside ``_decide`` re-enters
        ``_halt``; the note and Bracha's HaltEvent still come once."""
        name, module, stub = engine
        notes, events = [], []
        stub.trace_note = lambda _pid, detail: notes.append(detail)
        module.subscribe(events.append)
        module.propose(0)
        for sender in range(1, N):
            module.on_message(sender, module.DECIDE(1))
        notes = [n for n in notes if isinstance(n, str)]  # not Decide effects
        assert [n for n in notes if "decide 1" in n] == [
            f"{module.NOTE} 1 in round 1"]
        halts = [n for n in notes if n.startswith("halt")]
        assert len(halts) == (1 if name == "bracha" else 0)
        assert len([e for e in events if isinstance(e, HaltEvent)]) == len(halts)

    def test_a_non_bit_decide_is_ignored(self, engine):
        _name, module, stub = engine
        module.propose(0)
        for sender in range(1, N):
            module.on_message(sender, module.DECIDE(7))
        assert decides_sent(stub, module) == [] and not module.halted


class TestDeciding:
    def test_deciding_announces_once(self, engine):
        _name, module, stub = engine
        events = []
        module.subscribe(events.append)
        module.propose(1)
        module._decide(1, 3)
        module._decide(1, 4)
        assert (module.decided, module.decision, module.decision_round) == (True, 1, 3)
        assert [e for e in events if isinstance(e, DecisionEvent)] == [
            DecisionEvent(0, 1, 3)]
        assert len(decides_sent(stub, module)) == N
        assert module.invariant_flags == []

    def test_deciding_twice_differently_raises_the_second_decision_flag(self, engine):
        _name, module, _stub = engine
        module.propose(1)
        module._decide(1, 1)
        module._decide(0, 2)
        assert module.decision == 1 and module.decision_round == 1
        assert module.invariant_flags == ["second decision 0 != 1"]
