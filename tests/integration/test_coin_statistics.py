"""Statistical checks of the coin abstractions through the network.

Definition 7-style properties (termination, matching, no bias) are
asserted over many rounds of the *distributed* share coin and the
oracle coins, end to end — not just on the dealer object.
"""

from repro.core.coin import DealerCoin, LocalCoin, ShareCoinProvider
from repro.params import ProtocolParams
from repro.sim.process import Process
from repro.sim.runner import Simulation


def reconstruct_rounds(provider_factory, n_rounds, seed, n=4, t=1):
    """Run one simulation in which all processes request many rounds."""
    sim = Simulation(seed=seed)
    params = ProtocolParams(n, t)
    provider = provider_factory()
    outputs = {}
    sources = []
    for pid in range(n):
        process = Process(pid, sim.network, params)
        sources.append((pid, provider.attach(process)))
    sim.start()
    for round_ in range(1, n_rounds + 1):
        for pid, source in sources:
            source.request(
                round_, lambda r, b, pid=pid: outputs.setdefault((pid, r), b)
            )
    sim.run(max_steps=2_000_000)
    return outputs


class TestShareCoinStatistics:
    def test_matching_over_many_rounds(self):
        outputs = reconstruct_rounds(
            lambda: ShareCoinProvider(4, 1, seed=11), n_rounds=40, seed=1
        )
        for round_ in range(1, 41):
            bits = {outputs[(pid, round_)] for pid in range(4)}
            assert len(bits) == 1, f"coin mismatch in round {round_}"

    def test_termination_every_round(self):
        outputs = reconstruct_rounds(
            lambda: ShareCoinProvider(4, 1, seed=13), n_rounds=25, seed=2
        )
        assert len(outputs) == 4 * 25

    def test_no_bias_roughly(self):
        outputs = reconstruct_rounds(
            lambda: ShareCoinProvider(4, 1, seed=17), n_rounds=120, seed=3
        )
        ones = sum(outputs[(0, r)] for r in range(1, 121))
        assert 36 <= ones <= 84  # ±5 sigma around 60

    def test_share_coin_matches_dealer_secret(self):
        provider = ShareCoinProvider(4, 1, seed=19)
        outputs = reconstruct_rounds(lambda: provider, n_rounds=10, seed=4)
        for round_ in range(1, 11):
            assert outputs[(0, round_)] == provider.dealer.coin_value(round_)


class TestOracleCoinStatistics:
    def test_dealer_matching_and_no_bias(self):
        outputs = reconstruct_rounds(
            lambda: DealerCoin(4, 1, seed=23), n_rounds=200, seed=5
        )
        for round_ in range(1, 201):
            assert len({outputs[(pid, round_)] for pid in range(4)}) == 1
        ones = sum(outputs[(0, r)] for r in range(1, 201))
        assert 70 <= ones <= 130

    def test_local_coins_disagree_sometimes(self):
        """Local coins are private: across enough rounds, processes must
        differ — this is exactly why they cost extra rounds."""
        outputs = reconstruct_rounds(
            lambda: LocalCoin(), n_rounds=60, seed=6
        )
        mismatched = sum(
            1
            for round_ in range(1, 61)
            if len({outputs[(pid, round_)] for pid in range(4)}) > 1
        )
        assert mismatched > 20  # expected ≈ 60 · (1 − 2/16)
