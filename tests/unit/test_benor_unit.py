"""Ben-Or phase transitions through a stub network (n=6, t=1).

n=6, t=1: quorum n−t=5, super-majority >(n+t)/2 → ≥ 4.
"""

import pytest

from repro.baselines.benor import BenOrConsensus, PVote, RVote

from ..conftest import make_member


class FixedCoin:
    def __init__(self, bits):
        self.bits = dict(bits)

    def request(self, round_, callback):
        if round_ in self.bits:
            callback(round_, self.bits[round_])


def make_benor(pid=0, n=6, t=1, coin=None):
    process, stub = make_member(n=n, t=t, pid=pid)
    coin = coin if coin is not None else FixedCoin({r: 0 for r in range(1, 40)})
    consensus = BenOrConsensus(coin)
    process.add_module(consensus)
    return consensus, stub


def sent_of(stub, cls):
    return [p for _s, _d, (_m, p) in stub.sent if isinstance(p, cls)]


class TestPhases:
    def test_propose_sends_r_votes(self):
        consensus, stub = make_benor()
        consensus.propose(1)
        rvotes = sent_of(stub, RVote)
        assert len(rvotes) == 6 and all(v.bit == 1 for v in rvotes)

    def test_super_majority_proposes_value(self):
        consensus, stub = make_benor()
        consensus.propose(1)
        for sender in range(5):
            consensus.on_message(sender, RVote(1, 1))
        pvotes = sent_of(stub, PVote)
        assert pvotes and all(v.bit == 1 for v in pvotes)

    def test_split_r_votes_propose_bottom(self):
        consensus, stub = make_benor()
        consensus.propose(1)
        for sender, bit in ((0, 1), (1, 1), (2, 1), (3, 0), (4, 0)):
            consensus.on_message(sender, RVote(1, bit))
        pvotes = sent_of(stub, PVote)
        assert pvotes and all(v.bit is None for v in pvotes)

    def test_decides_on_p_super_majority(self):
        consensus, _stub = make_benor()
        consensus.propose(1)
        for sender in range(5):
            consensus.on_message(sender, RVote(1, 1))
        for sender in range(5):
            consensus.on_message(sender, PVote(1, 1))
        assert consensus.decided and consensus.decision == 1

    def test_adopts_on_few_proposals(self):
        consensus, stub = make_benor()
        consensus.propose(0)
        for sender in range(5):
            consensus.on_message(sender, RVote(1, 0))
        for sender, bit in ((0, 1), (1, 1), (2, None), (3, None), (4, None)):
            consensus.on_message(sender, PVote(1, bit))
        assert not consensus.decided
        assert consensus.round == 2
        assert consensus.value == 1  # adopted the t+1 proposals
        assert consensus.stats["adoptions"] == 1

    def test_coin_on_no_proposals(self):
        consensus, _stub = make_benor(coin=FixedCoin({1: 1}))
        consensus.propose(0)
        for sender in range(5):
            consensus.on_message(sender, RVote(1, 0))
        for sender in range(5):
            consensus.on_message(sender, PVote(1, None))
        assert consensus.round == 2 and consensus.value == 1
        assert consensus.stats["coin_flips"] == 1

    def test_waits_for_coin(self):
        consensus, _stub = make_benor(coin=FixedCoin({}))
        consensus.propose(0)
        for sender in range(5):
            consensus.on_message(sender, RVote(1, 0))
        for sender in range(5):
            consensus.on_message(sender, PVote(1, None))
        assert consensus.round == 1  # stuck awaiting the coin
        consensus._on_coin(1, 0)
        assert consensus.round == 2


class TestVoteBookkeeping:
    def test_first_vote_per_sender_counts(self):
        consensus, _stub = make_benor()
        consensus.propose(1)
        for _ in range(10):
            consensus.on_message(0, RVote(1, 1))
        assert consensus.round == 1  # one sender is not a quorum

    def test_garbage_ignored(self):
        consensus, stub = make_benor()
        consensus.propose(1)
        consensus.on_message(1, "junk")
        consensus.on_message(1, RVote(1, 5))
        consensus.on_message(1, PVote(1, 9))
        assert consensus.round == 1 and len(sent_of(stub, PVote)) == 0

    @pytest.mark.parametrize("round_", [[1], {"r": 1}, 0, -1, "1", None, 1.0])
    def test_a_round_that_is_not_a_positive_int_is_garbage(self, round_):
        """``RVote([1], 1)`` survives the wire codec; a vote table cannot
        be keyed by it, and raising would crash the receiver."""
        consensus, stub = make_benor()
        consensus.propose(1)
        for sender in range(1, 6):
            consensus.on_message(sender, RVote(round_, 1))
            consensus.on_message(sender, PVote(round_, 1))
        assert consensus._votes == {}
        assert consensus.round == 1 and len(sent_of(stub, PVote)) == 0
