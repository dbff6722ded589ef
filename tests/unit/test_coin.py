"""Coin schemes: distribution, matching, unpredictability interfaces."""

from repro.core.coin import (
    CoinShareMsg,
    DealerCoin,
    LocalCoin,
    ShareCoinModule,
    ShareCoinProvider,
)
from repro.crypto.dealer import CoinDealer, SignedShare
from repro.crypto.shamir import Share
from repro.params import ProtocolParams
from repro.sim.process import Process
from repro.sim.runner import Simulation

from ..conftest import StubNetwork, make_member


def attach_local(pid, stub=None, salt=""):
    process, stub = make_member(pid=pid, stub=stub)
    return LocalCoin(salt=salt).attach(process)


def flip(source, round_):
    out = {}
    source.request(round_, lambda r, b: out.setdefault(r, b))
    return out[round_]


class TestLocalCoin:
    def test_immediate_callback(self):
        source = attach_local(0)
        got = []
        source.request(1, lambda r, b: got.append((r, b)))
        assert len(got) == 1 and got[0][0] == 1

    def test_deterministic_per_round(self):
        source = attach_local(0)
        assert flip(source, 3) == flip(source, 3)

    def test_rounds_vary(self):
        source = attach_local(0)
        bits = {flip(source, r) for r in range(50)}
        assert bits == {0, 1}

    def test_processes_independent(self):
        stub = StubNetwork(4)
        a = attach_local(0, stub)
        b = attach_local(1, stub)
        seq_a = [flip(a, r) for r in range(40)]
        seq_b = [flip(b, r) for r in range(40)]
        assert seq_a != seq_b

    def test_salt_separates_instances(self):
        stub = StubNetwork(4)
        a = attach_local(0, stub, salt="x")
        b = attach_local(0, stub, salt="y")
        assert [flip(a, r) for r in range(40)] != [flip(b, r) for r in range(40)]

    def test_roughly_unbiased(self):
        source = attach_local(0)
        ones = sum(flip(source, r) for r in range(600))
        assert 220 < ones < 380

    def test_not_common(self):
        assert not LocalCoin().common


class TestDealerCoin:
    def test_all_processes_match(self):
        scheme = DealerCoin(4, 1, seed=3)
        stub = StubNetwork(4)
        sources = []
        for pid in range(4):
            process, _ = make_member(pid=pid, stub=stub)
            sources.append(scheme.attach(process))
        for round_ in range(10):
            bits = {flip(s, round_) for s in sources}
            assert len(bits) == 1

    def test_peek_before_release_hidden(self):
        scheme = DealerCoin(4, 1, seed=3)
        assert scheme.peek(5) is None

    def test_peek_after_release_visible(self):
        scheme = DealerCoin(4, 1, seed=3)
        process, _ = make_member(pid=0)
        source = scheme.attach(process)
        bit = flip(source, 5)
        assert scheme.peek(5) == bit

    def test_value_oracle_matches_release(self):
        scheme = DealerCoin(4, 1, seed=7)
        process, _ = make_member(pid=0)
        source = scheme.attach(process)
        assert flip(source, 2) == scheme.value(2)

    def test_is_common(self):
        assert DealerCoin(4, 1).common

    def test_round_values_order_independent(self):
        a = DealerCoin(4, 1, seed=9)
        b = DealerCoin(4, 1, seed=9)
        forward = [a.value(r) for r in range(10)]
        backward = [b.value(r) for r in reversed(range(10))]
        assert forward == list(reversed(backward))


class TestShareCoinModule:
    def _module(self, pid=0, dealer=None):
        dealer = dealer or CoinDealer(4, 1, seed=1)
        process, stub = make_member(pid=pid)
        module = ShareCoinModule(dealer)
        process.add_module(module)
        return module, dealer, stub

    def test_request_broadcasts_own_share(self):
        module, dealer, stub = self._module()
        module.request(1, lambda r, b: None)
        shares = [p for _s, _d, (_m, p) in stub.sent if isinstance(p, CoinShareMsg)]
        assert len(shares) == 4  # to everyone
        assert all(dealer.verify(s.share) for s in shares)

    def test_reconstruction_at_t_plus_1(self):
        module, dealer, _ = self._module()
        got = []
        module.request(1, lambda r, b: got.append(b))
        module.on_message(1, CoinShareMsg(1, dealer.share_for(1, 1)))
        assert got == []  # 1 share < t+1 = 2
        module.on_message(2, CoinShareMsg(1, dealer.share_for(2, 1)))
        assert got == [dealer.coin_value(1)]

    def test_forged_share_rejected(self):
        module, dealer, _ = self._module()
        got = []
        module.request(1, lambda r, b: got.append(b))
        forged = SignedShare(1, 1, Share(2, 999), b"\x00" * 32)
        module.on_message(1, CoinShareMsg(1, forged))
        module.on_message(2, CoinShareMsg(1, dealer.share_for(2, 1)))
        assert got == []  # forged share did not count

    def test_share_with_a_retyped_coordinate_never_reaches_interpolation(self):
        """p1's own share with ``x`` as text renders to the same MAC
        input; counted, it would raise out of the reconstruction at the
        receiver."""
        module, dealer, _ = self._module()
        got = []
        module.request(1, lambda r, b: got.append(b))
        own = dealer.share_for(1, 1)
        retyped = SignedShare(1, 1, Share(str(own.share.x), own.share.y), own.tag)
        module.on_message(1, CoinShareMsg(1, retyped))
        module.on_message(2, CoinShareMsg(1, dealer.share_for(2, 1)))
        assert got == []  # one legitimate share so far
        module.on_message(3, CoinShareMsg(1, dealer.share_for(3, 1)))
        assert got == [dealer.coin_value(1)]

    def test_share_submitted_by_wrong_holder_rejected(self):
        """p3 relaying p1's (valid) share must not count as p3's."""
        module, dealer, _ = self._module()
        got = []
        module.request(1, lambda r, b: got.append(b))
        module.on_message(3, CoinShareMsg(1, dealer.share_for(1, 1)))
        module.on_message(1, CoinShareMsg(1, dealer.share_for(1, 1)))
        assert got == []  # only one distinct legitimate holder so far

    def test_value_cached_for_later_requests(self):
        module, dealer, _ = self._module()
        module.request(1, lambda r, b: None)
        module.on_message(1, CoinShareMsg(1, dealer.share_for(1, 1)))
        module.on_message(2, CoinShareMsg(1, dealer.share_for(2, 1)))
        got = []
        module.request(1, lambda r, b: got.append(b))  # immediate now
        assert got == [dealer.coin_value(1)]


class TestShareCoinEndToEnd:
    def test_all_processes_reconstruct_same_bit(self):
        sim = Simulation(seed=21)
        params = ProtocolParams(4, 1)
        provider = ShareCoinProvider(4, 1, seed=2)
        sources = []
        for pid in range(4):
            process = Process(pid, sim.network, params)
            sources.append(provider.attach(process))
        outputs = {}
        sim.start()
        for pid, source in enumerate(sources):
            source.request(1, lambda r, b, pid=pid: outputs.setdefault(pid, b))
        sim.run()
        assert len(outputs) == 4
        assert len(set(outputs.values())) == 1
        assert outputs[0] == provider.dealer.coin_value(1)
