"""Crash-fault Ben-Or state machine (n=5, t=2: quorum 3, majority 3)."""

import pytest

from repro.baselines.benor import BenOrCrashConsensus, PVote, RVote

from ..conftest import make_member


class FixedCoin:
    def __init__(self, bits):
        self.bits = dict(bits)

    def request(self, round_, callback):
        if round_ in self.bits:
            callback(round_, self.bits[round_])


def make_crash(pid=0, n=5, t=2, coin=None):
    process, stub = make_member(n=n, t=t, pid=pid)
    coin = coin if coin is not None else FixedCoin({r: 0 for r in range(1, 40)})
    consensus = BenOrCrashConsensus(coin)
    process.add_module(consensus)
    return consensus, stub


def sent_of(stub, cls):
    return [p for _s, _d, (_m, p) in stub.sent if isinstance(p, cls)]


class TestPhases:
    def test_propose_sends_reports(self):
        consensus, stub = make_crash()
        consensus.propose(1)
        assert len(sent_of(stub, RVote)) == 5

    def test_majority_report_becomes_proposal(self):
        consensus, stub = make_crash()
        consensus.propose(1)
        for sender in range(3):
            consensus.on_message(sender, RVote(1, 1))
        proposals = sent_of(stub, PVote)
        assert proposals and all(p.bit == 1 for p in proposals)

    def test_split_reports_propose_bottom(self):
        consensus, stub = make_crash()
        consensus.propose(1)
        consensus.on_message(0, RVote(1, 1))
        consensus.on_message(1, RVote(1, 0))
        consensus.on_message(2, RVote(1, 1))
        proposals = sent_of(stub, PVote)
        assert proposals and all(p.bit is None for p in proposals)

    def test_decides_on_t_plus_1_proposals(self):
        consensus, _stub = make_crash()
        consensus.propose(1)
        for sender in range(3):
            consensus.on_message(sender, RVote(1, 1))
        for sender in range(3):
            consensus.on_message(sender, PVote(1, 1))
        assert consensus.decided and consensus.decision == 1

    def test_adopts_single_proposal(self):
        consensus, _stub = make_crash()
        consensus.propose(0)
        for sender in range(3):
            consensus.on_message(sender, RVote(1, 0))
        consensus.on_message(0, PVote(1, 1))
        consensus.on_message(1, PVote(1, None))
        consensus.on_message(2, PVote(1, None))
        assert not consensus.decided
        assert consensus.round == 2 and consensus.value == 1

    def test_coin_on_all_bottom(self):
        consensus, _stub = make_crash(coin=FixedCoin({1: 1}))
        consensus.propose(0)
        for sender in range(3):
            consensus.on_message(sender, RVote(1, 0))
        for sender in range(3):
            consensus.on_message(sender, PVote(1, None))
        assert consensus.round == 2 and consensus.value == 1
        assert consensus.stats["coin_flips"] == 1


class TestHalting:
    def test_garbage_ignored(self):
        consensus, _stub = make_crash()
        consensus.propose(0)
        consensus.on_message(1, "junk")
        consensus.on_message(1, RVote(1, 9))
        assert consensus.round == 1

    @pytest.mark.parametrize("round_", [[1], {"r": 1}, 0, -1, "1", None, 1.0])
    def test_a_round_that_is_not_a_positive_int_is_garbage(self, round_):
        consensus, stub = make_crash()
        consensus.propose(0)
        for sender in range(1, 5):
            consensus.on_message(sender, RVote(round_, 0))
            consensus.on_message(sender, PVote(round_, 0))
        assert consensus._votes == {}
        assert consensus.round == 1 and len(sent_of(stub, PVote)) == 0
