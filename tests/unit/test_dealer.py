"""The coin dealer: authenticated shares, reconstruction, unpredictability."""

import pytest

from repro.crypto.dealer import CoinDealer, SignedShare
from repro.crypto.shamir import Share
from repro.errors import AuthenticationError, ConfigError


@pytest.fixture
def dealer():
    return CoinDealer(n=4, t=1, seed=5)


class TestIssuance:
    def test_each_process_gets_its_own_share(self, dealer):
        shares = [dealer.share_for(pid, 1) for pid in range(4)]
        assert len({s.share.x for s in shares}) == 4

    def test_shares_memoized(self, dealer):
        assert dealer.share_for(2, 1) == dealer.share_for(2, 1)

    def test_rounds_independent(self, dealer):
        assert dealer.share_for(0, 1) != dealer.share_for(0, 2)

    def test_pid_range_checked(self, dealer):
        with pytest.raises(ConfigError):
            dealer.share_for(9, 1)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            CoinDealer(0, 0)
        with pytest.raises(ConfigError):
            CoinDealer(4, 4)


class TestVerification:
    def test_issued_shares_verify(self, dealer):
        assert dealer.verify(dealer.share_for(1, 3))

    def test_tampered_value_rejected(self, dealer):
        good = dealer.share_for(1, 3)
        bad = SignedShare(good.holder, good.round, Share(good.share.x, good.share.y + 1), good.tag)
        assert not dealer.verify(bad)

    def test_reassigned_holder_rejected(self, dealer):
        """p2 cannot present p1's share as its own."""
        good = dealer.share_for(1, 3)
        stolen = SignedShare(2, good.round, good.share, good.tag)
        assert not dealer.verify(stolen)

    def test_cross_round_replay_rejected(self, dealer):
        good = dealer.share_for(1, 3)
        replay = SignedShare(good.holder, 4, good.share, good.tag)
        assert not dealer.verify(replay)

    @pytest.mark.parametrize("hostile", [
        dict(share="not-a-share"), dict(share=[1, 2]), dict(tag="text"),
        dict(tag=[0] * 32), dict(holder="1"), dict(round="3"),
        dict(x=str), dict(y=str),
    ], ids=["str-share", "list-share", "str-tag", "list-tag", "str-holder",
            "str-round", "str-x", "str-y"])
    def test_wire_shaped_garbage_is_rejected_not_raised(self, dealer, hostile):
        """The wire codec checks no field types, and the MAC covers a
        rendering — ``x="3"`` renders as ``x=3`` does, and would reach
        the interpolation with the genuine tag."""
        good = dealer.share_for(1, 3)
        fields = dict(holder=good.holder, round=good.round,
                      share=good.share, tag=good.tag)
        for axis in ("x", "y"):
            if axis in hostile:
                coords = dict(x=good.share.x, y=good.share.y)
                coords[axis] = hostile.pop(axis)(coords[axis])
                fields["share"] = Share(**coords)
        fields.update(hostile)
        assert not dealer.verify(SignedShare(**fields))

    def test_require_raises(self, dealer):
        good = dealer.share_for(1, 3)
        bad = SignedShare(good.holder, good.round, good.share, b"\x00" * 32)
        with pytest.raises(AuthenticationError):
            dealer.require(bad)


class TestReconstruction:
    def test_t_plus_1_shares_reconstruct(self, dealer):
        shares = [dealer.share_for(pid, 7) for pid in range(2)]  # t+1 = 2
        secret, bit = dealer.reconstruct(shares)
        assert bit == dealer.coin_value(7)
        assert secret & 1 == bit

    def test_any_t_plus_1_subset_matches(self, dealer):
        all_shares = [dealer.share_for(pid, 9) for pid in range(4)]
        bits = set()
        for subset in ([0, 1], [1, 2], [2, 3], [0, 3]):
            _s, bit = dealer.reconstruct([all_shares[i] for i in subset])
            bits.add(bit)
        assert len(bits) == 1

    def test_too_few_shares_rejected(self, dealer):
        with pytest.raises(AuthenticationError):
            dealer.reconstruct([dealer.share_for(0, 1)])

    def test_forged_shares_do_not_count(self, dealer):
        good = dealer.share_for(0, 1)
        forged = SignedShare(1, 1, Share(2, 12345), b"\x00" * 32)
        with pytest.raises(AuthenticationError):
            dealer.reconstruct([good, forged])

    def test_mixed_round_shares_rejected(self, dealer):
        with pytest.raises(AuthenticationError):
            dealer.reconstruct([dealer.share_for(0, 1), dealer.share_for(1, 2)])


class TestCoinDistribution:
    def test_coin_roughly_unbiased(self):
        dealer = CoinDealer(4, 1, seed=11)
        ones = sum(dealer.coin_value(r) for r in range(400))
        assert 140 < ones < 260

    def test_different_seeds_different_sequences(self):
        a = [CoinDealer(4, 1, seed=1).coin_value(r) for r in range(40)]
        b = [CoinDealer(4, 1, seed=2).coin_value(r) for r in range(40)]
        assert a != b

    def test_same_seed_reproducible(self):
        a = [CoinDealer(4, 1, seed=3).coin_value(r) for r in range(20)]
        b = [CoinDealer(4, 1, seed=3).coin_value(r) for r in range(20)]
        assert a == b
