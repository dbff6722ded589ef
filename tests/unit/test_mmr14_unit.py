"""MMR-14 agreement state machine, driven directly (n=4, t=1)."""

from repro.baselines.bv_broadcast import BinaryValueBroadcast, BvValue
from repro.baselines.mmr14 import AuxMsg, Mmr14Consensus

from ..conftest import make_member


class FixedCoin:
    def __init__(self, bits):
        self.bits = dict(bits)
        self.requests = []

    def request(self, round_, callback):
        self.requests.append(round_)
        if round_ in self.bits:
            callback(round_, self.bits[round_])


def make_mmr(pid=0, coin=None):
    process, stub = make_member(pid=pid)
    bv = process.add_module(BinaryValueBroadcast())
    coin = coin if coin is not None else FixedCoin({r: 1 for r in range(1, 30)})
    consensus = Mmr14Consensus(bv, coin)
    process.add_module(consensus)
    return consensus, bv, stub, coin


def feed_bin_value(bv, round_, bit):
    """Push a bit into bin_values via 2t+1 VALUE messages."""
    for sender in (1, 2, 3):
        bv.on_message(sender, BvValue(round_, bit))


def sent_of(stub, cls):
    return [p for _s, _d, (_m, p) in stub.sent if isinstance(p, cls)]


class TestBvIntegration:
    def test_propose_broadcasts_value(self):
        consensus, _bv, stub, _coin = make_mmr()
        consensus.propose(1)
        values = sent_of(stub, BvValue)
        assert len(values) == 4 and all(v.bit == 1 for v in values)

    def test_bv_delivery_triggers_aux(self):
        consensus, bv, stub, _coin = make_mmr()
        consensus.propose(1)
        feed_bin_value(bv, 1, 1)
        aux = sent_of(stub, AuxMsg)
        assert len(aux) == 4 and all(a.bit == 1 and a.round == 1 for a in aux)

    def test_aux_sent_once_per_bit(self):
        consensus, bv, stub, _coin = make_mmr()
        consensus.propose(1)
        feed_bin_value(bv, 1, 1)
        feed_bin_value(bv, 1, 1)
        assert len(sent_of(stub, AuxMsg)) == 4


class TestRoundProgress:
    def _ready_round_one(self, consensus, bv, vals=(1, 1, 1)):
        consensus.propose(1)
        for bit in set(vals):
            feed_bin_value(bv, 1, bit)
        for sender, bit in enumerate(vals):
            consensus.on_message(sender, AuxMsg(1, bit))

    def test_aux_outside_bin_values_does_not_count(self):
        consensus, bv, _stub, coin = make_mmr()
        consensus.propose(1)
        feed_bin_value(bv, 1, 1)
        # AUX votes for 0, which is not in bin_values: senders invalid
        for sender in range(3):
            consensus.on_message(sender, AuxMsg(1, 0))
        assert coin.requests == []  # no valid support yet

    def test_singleton_matching_coin_decides(self):
        consensus, bv, _stub, _coin = make_mmr(coin=FixedCoin({1: 1}))
        self._ready_round_one(consensus, bv)
        assert consensus.decided and consensus.decision == 1
        assert consensus.decision_round == 1

    def test_singleton_mismatching_coin_adopts(self):
        consensus, bv, _stub, _coin = make_mmr(coin=FixedCoin({1: 0}))
        self._ready_round_one(consensus, bv)
        assert not consensus.decided
        assert consensus.round == 2
        assert consensus.est == 1  # kept the singleton, not the coin
        assert consensus.stats["adoptions"] == 1

    def test_two_values_adopt_coin(self):
        consensus, bv, _stub, _coin = make_mmr(coin=FixedCoin({1: 0}))
        consensus.propose(1)
        feed_bin_value(bv, 1, 1)
        feed_bin_value(bv, 1, 0)
        consensus.on_message(0, AuxMsg(1, 1))
        consensus.on_message(1, AuxMsg(1, 0))
        consensus.on_message(2, AuxMsg(1, 1))
        assert consensus.round == 2
        assert consensus.est == 0  # the coin
        assert consensus.stats["coin_flips"] == 1

    def test_waits_for_coin(self):
        consensus, bv, _stub, coin = make_mmr(coin=FixedCoin({}))
        self._ready_round_one(consensus, bv)
        assert consensus.round == 1
        consensus._on_coin(1, 1)
        assert consensus.decided


class TestDefenses:
    def test_garbage_ignored(self):
        consensus, _bv, _stub, _coin = make_mmr()
        consensus.propose(1)
        consensus.on_message(1, "junk")
        consensus.on_message(1, AuxMsg(1, 7))
        consensus.on_message(1, AuxMsg(0, 1))
        consensus.on_message(1, AuxMsg("x", 1))
        consensus.on_message(1, AuxMsg([1], 1))  # unhashable, off the wire
        assert consensus.round == 1
