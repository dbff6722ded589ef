"""Consensus step transitions, driven through a stub network.

These tests feed the consensus module reliable-broadcast *deliveries*
directly (bypassing the wire) to pin down each transition of the state
machine: majority, decide-proposal, decide/adopt/coin and pinning.  n=4,
t=1.  Proposing and DECIDE amplification, shared by every engine, are
checked once in ``test_agreement_shell.py``.
"""

from repro.core.broadcast import BroadcastLayer, RbcDelivery, RbcMessage
from repro.core.coin import LocalCoin
from repro.core.consensus import BrachaConsensus, DecideMsg, DecisionEvent
from repro.types import Phase, Step, StepValue

from ..conftest import make_member


class FixedCoin:
    """Coin source whose flips are scripted by the test."""

    def __init__(self, bits):
        self.bits = dict(bits)
        self.requests = []

    def request(self, round_, callback):
        self.requests.append(round_)
        if round_ in self.bits:
            callback(round_, self.bits[round_])


def make_consensus(pid=0, coin=None):
    process, stub = make_member(pid=pid)
    rbc = process.add_module(BroadcastLayer())
    coin = coin if coin is not None else FixedCoin({r: 0 for r in range(1, 50)})
    consensus = BrachaConsensus(rbc, coin)
    process.add_module(consensus)
    events = []
    consensus.subscribe(events.append)
    return consensus, rbc, stub, events, coin


def feed(consensus, round_, step, originator, value):
    """Inject an accepted broadcast into the consensus module."""
    instance = (consensus.module_id, round_, int(step), originator)
    consensus._on_rbc(RbcDelivery(instance, originator, value))


def my_broadcasts(stub, consensus):
    """(round, step, value) of every step message this process originated."""
    out = []
    for _s, dest, (module, msg) in stub.sent:
        if module != "rbc" or not isinstance(msg, RbcMessage):
            continue
        if msg.phase is not Phase.INIT or dest != 0:
            continue
        tag, round_, step, origin = msg.instance
        if tag == consensus.module_id:
            out.append((round_, step, msg.value))
    return out


class TestProposal:
    def test_propose_broadcasts_step1(self):
        consensus, _rbc, stub, _events, _coin = make_consensus()
        consensus.propose(1)
        assert my_broadcasts(stub, consensus) == [(1, 1, StepValue(1))]


class TestStepOne:
    def test_majority_moves_to_step_two(self):
        consensus, _rbc, stub, _events, _coin = make_consensus()
        consensus.propose(0)
        for originator, bit in ((0, 0), (1, 1), (2, 1)):
            feed(consensus, 1, Step.ONE, originator, StepValue(bit))
        sent = my_broadcasts(stub, consensus)
        assert (1, 2, StepValue(1)) in sent  # majority of {0,1,1} is 1

    def test_no_transition_below_quorum(self):
        consensus, _rbc, stub, _events, _coin = make_consensus()
        consensus.propose(0)
        feed(consensus, 1, Step.ONE, 0, StepValue(0))
        feed(consensus, 1, Step.ONE, 1, StepValue(1))
        assert len(my_broadcasts(stub, consensus)) == 1  # still only step 1


class TestStepTwo:
    def _to_step_two(self, consensus, bits=(1, 1, 1)):
        consensus.propose(bits[0])
        for originator, bit in enumerate(bits):
            feed(consensus, 1, Step.ONE, originator, StepValue(bit))

    def test_global_majority_marks_decide(self):
        consensus, _rbc, stub, _events, _coin = make_consensus()
        self._to_step_two(consensus)
        for originator in range(3):
            feed(consensus, 1, Step.TWO, originator, StepValue(1))
        sent = my_broadcasts(stub, consensus)
        assert (1, 3, StepValue(1, decide=True)) in sent

    def test_no_global_majority_keeps_plain(self):
        consensus, _rbc, stub, _events, _coin = make_consensus()
        consensus.propose(1)
        # step-1 set holds two of each bit, so both step-2 bits are
        # justifiable; the first-quorum majority ({1,1,0}) is 1.
        for originator, bit in ((0, 1), (1, 1), (2, 0), (3, 0)):
            feed(consensus, 1, Step.ONE, originator, StepValue(bit))
        # 2×1 + 1×0 < majority 3 → plain value (its step-1 majority: 1)
        feed(consensus, 1, Step.TWO, 0, StepValue(1))
        feed(consensus, 1, Step.TWO, 1, StepValue(1))
        feed(consensus, 1, Step.TWO, 2, StepValue(0))
        sent = my_broadcasts(stub, consensus)
        assert (1, 3, StepValue(1)) in sent

    def test_coin_requested_on_entering_step_three(self):
        consensus, _rbc, _stub, _events, coin = make_consensus()
        self._to_step_two(consensus)
        for originator in range(3):
            feed(consensus, 1, Step.TWO, originator, StepValue(1))
        assert coin.requests == [1]


class TestStepThree:
    def _to_step_three(self, consensus, bit=1):
        consensus.propose(bit)
        for originator in range(3):
            feed(consensus, 1, Step.ONE, originator, StepValue(bit))
        for originator in range(3):
            feed(consensus, 1, Step.TWO, originator, StepValue(bit))

    def test_decide_quorum_decides(self):
        consensus, _rbc, _stub, events, _coin = make_consensus()
        self._to_step_three(consensus)
        for originator in range(3):
            feed(consensus, 1, Step.THREE, originator, StepValue(1, decide=True))
        assert consensus.decided and consensus.decision == 1
        assert consensus.decision_round == 1
        assert any(isinstance(e, DecisionEvent) for e in events)

    def test_adopt_below_decide_quorum(self):
        consensus, _rbc, stub, _events, _coin = make_consensus()
        self._to_step_three(consensus)
        feed(consensus, 1, Step.THREE, 0, StepValue(1, decide=True))
        feed(consensus, 1, Step.THREE, 1, StepValue(1, decide=True))
        feed(consensus, 1, Step.THREE, 2, StepValue(1))
        assert not consensus.decided
        assert (2, 1, StepValue(1)) in my_broadcasts(stub, consensus)
        assert consensus.stats["adoptions"] == 1

    def test_coin_branch_on_no_proposals(self):
        consensus, _rbc, stub, _events, _coin = make_consensus(
            coin=FixedCoin({1: 0})
        )
        self._to_step_three(consensus)
        for originator in range(3):
            feed(consensus, 1, Step.THREE, originator, StepValue(1))
        assert (2, 1, StepValue(0)) in my_broadcasts(stub, consensus)
        assert consensus.stats["coin_flips"] == 1

    def test_waits_for_coin(self):
        late_coin = FixedCoin({})  # never answers
        consensus, _rbc, stub, _events, _coin = make_consensus(coin=late_coin)
        self._to_step_three(consensus)
        for originator in range(3):
            feed(consensus, 1, Step.THREE, originator, StepValue(1))
        assert all(r == 1 for r, _s, _v in my_broadcasts(stub, consensus))
        # now the coin arrives: round 2 starts
        consensus._on_coin(1, 1)
        assert (2, 1, StepValue(1)) in my_broadcasts(stub, consensus)

    def test_decision_broadcasts_decide_msg(self):
        consensus, _rbc, stub, _events, _coin = make_consensus()
        self._to_step_three(consensus)
        for originator in range(3):
            feed(consensus, 1, Step.THREE, originator, StepValue(1, decide=True))
        decides = [p for _s, _d, (m, p) in stub.sent
                   if m == consensus.module_id and isinstance(p, DecideMsg)]
        assert len(decides) == 4 and all(d.bit == 1 for d in decides)

    def test_pinned_after_decision(self):
        """A decided process proposes its decision forever, ignoring coins."""
        consensus, _rbc, stub, _events, _coin = make_consensus(
            coin=FixedCoin({1: 1, 2: 0})
        )
        self._to_step_three(consensus)
        for originator in range(3):
            feed(consensus, 1, Step.THREE, originator, StepValue(1, decide=True))
        # round 2, no proposals → coin says 0, but the pin forces 1
        for originator in range(3):
            feed(consensus, 2, Step.ONE, originator, StepValue(1))
        for originator in range(3):
            feed(consensus, 2, Step.TWO, originator, StepValue(1))
        for originator in range(3):
            feed(consensus, 2, Step.THREE, originator, StepValue(1))
        assert (3, 1, StepValue(1)) in my_broadcasts(stub, consensus)


class TestMonotoneDecide:
    def test_decides_on_cumulative_evidence_across_rounds(self):
        """Evidence for an old round decides even while in a later round."""
        consensus, _rbc, _stub, _events, _coin = make_consensus()
        consensus.propose(1)
        for originator in range(3):
            feed(consensus, 1, Step.ONE, originator, StepValue(1))
        for originator in range(3):
            feed(consensus, 1, Step.TWO, originator, StepValue(1))
        # two proposals + one plain: adopt, move to round 2
        feed(consensus, 1, Step.THREE, 0, StepValue(1, decide=True))
        feed(consensus, 1, Step.THREE, 1, StepValue(1, decide=True))
        feed(consensus, 1, Step.THREE, 2, StepValue(1))
        assert not consensus.decided and consensus.round == 2
        # the third proposal arrives late — decide on round-1 evidence
        feed(consensus, 1, Step.THREE, 3, StepValue(1, decide=True))
        assert consensus.decided and consensus.decision_round == 1


class TestWireDefenses:
    def test_instance_tag_mismatch_ignored(self):
        consensus, _rbc, _stub, _events, _coin = make_consensus()
        consensus.propose(1)
        consensus._on_rbc(
            RbcDelivery(("other", 1, 1, 0), 0, StepValue(1))
        )
        assert consensus.validator.validated_count(1, Step.ONE) == 0

    def test_forged_origin_in_instance_ignored(self):
        consensus, _rbc, _stub, _events, _coin = make_consensus()
        consensus.propose(1)
        # instance names origin 2, but the broadcast's originator was 3
        consensus._on_rbc(
            RbcDelivery((consensus.module_id, 1, 1, 2), 3, StepValue(1))
        )
        assert consensus.validator.validated_count(1, Step.ONE) == 0

    def test_garbage_value_ignored(self):
        consensus, _rbc, _stub, _events, _coin = make_consensus()
        consensus.propose(1)
        consensus._on_rbc(
            RbcDelivery((consensus.module_id, 1, 1, 2), 2, "not-a-stepvalue")
        )
        assert consensus.validator.validated_count(1, Step.ONE) == 0

    def test_decide_mark_outside_step3_ignored(self):
        consensus, _rbc, _stub, _events, _coin = make_consensus()
        consensus.propose(1)
        consensus._on_rbc(
            RbcDelivery((consensus.module_id, 1, 1, 2), 2, StepValue(1, True))
        )
        assert consensus.validator.validated_count(1, Step.ONE) == 0

    def test_decide_votes_with_a_float_bit_are_ignored(self):
        # 0.0 == 0, so a float passes ``bit in BINARY_VALUES``; counted,
        # it would index the vote tally and raise out of the receiver.
        consensus, _rbc, stub, _events, _coin = make_consensus()
        consensus.propose(1)
        for sender in (1, 2, 3):
            consensus.on_message(sender, DecideMsg(0.0))
        assert consensus._decide_votes == {}
        assert not consensus.decided and not consensus.halted
        assert not [p for _s, _d, (_m, p) in stub.sent if isinstance(p, DecideMsg)]

    def test_bad_round_or_step_ignored(self):
        consensus, _rbc, _stub, _events, _coin = make_consensus()
        consensus.propose(1)
        consensus._on_rbc(
            RbcDelivery((consensus.module_id, 0, 1, 2), 2, StepValue(1))
        )
        consensus._on_rbc(
            RbcDelivery((consensus.module_id, 1, 9, 2), 2, StepValue(1))
        )
        assert consensus.validator.validated_count(1, Step.ONE) == 0
