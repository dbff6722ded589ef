"""Full consensus runs: the paper's properties over the configuration matrix.

Every run below goes through the checked scenario runner, so agreement, strong
validity, integrity, and completion are asserted implicitly; tests add
shape assertions (round counts, unanimity fast path) on top.
"""

import pytest

from repro.scenario import Scenario, repeat, run


class TestUnanimousFastPath:
    @pytest.mark.parametrize("n", [4, 7, 10])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_unanimous_decides_that_bit_in_round_one(self, n, bit):
        result = run(Scenario(n=n, proposals=bit, seed=n * 10 + bit))
        assert result.decided_values == {bit}
        assert all(d.round == 1 for d in result.decisions.values())

    def test_unanimity_beats_byzantine_noise(self):
        """A two-faced process cannot shake a unanimous correct majority."""
        for seed in range(5):
            result = run(Scenario(
                n=4, proposals=1, faults={3: "two_faced"}, seed=seed
            ))
            assert result.decided_values == {1}


class TestSplitInputs:
    @pytest.mark.parametrize("seed", range(12))
    def test_split_inputs_agree(self, seed):
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], seed=seed))
        assert len(result.decided_values) == 1

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_split_inputs_scale(self, n):
        proposals = [pid % 2 for pid in range(n)]
        result = run(Scenario(n=n, proposals=proposals, seed=n))
        assert len(result.decided_values) == 1

    def test_decision_round_recorded(self):
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], seed=3))
        assert result.decision_round() >= 1
        assert result.rounds >= result.decision_round()


class TestCoins:
    @pytest.mark.parametrize("coin", ["local", "dealer", "shares"])
    def test_all_coin_schemes_terminate(self, coin):
        result = run(Scenario(n=4, proposals=[0, 1, 1, 0], coin=coin, seed=7))
        assert len(result.decided_values) == 1

    def test_common_coin_faster_than_local_on_average(self):
        """With adversarial-ish split inputs the common coin converges in
        fewer rounds on average (the paper's Rabin comparison)."""
        local = repeat(Scenario(
            n=7, proposals=[0, 1, 0, 1, 0, 1, 0], coin="local", seed=1
        ), 12)
        common = repeat(Scenario(
            n=7, proposals=[0, 1, 0, 1, 0, 1, 0], coin="dealer", seed=1
        ), 12)
        mean_local = sum(r.rounds for r in local) / len(local)
        mean_common = sum(r.rounds for r in common) / len(common)
        assert mean_common <= mean_local + 1  # common never much worse

    def test_share_coin_adds_coin_traffic_but_same_outcome(self):
        oracle = run(Scenario(n=4, proposals=[0, 1, 1, 0], coin="dealer", seed=9))
        shares = run(Scenario(n=4, proposals=[0, 1, 1, 0], coin="shares", seed=9))
        assert "coin/CoinShareMsg" not in oracle.meta["messages_by_kind"]
        assert shares.meta["messages_by_kind"]["coin/CoinShareMsg"] > 0
        assert len(shares.decided_values) == 1


class TestScale:
    def test_n13_t4(self):
        result = run(Scenario(n=13, proposals=[pid % 2 for pid in range(13)], seed=13))
        assert len(result.decided_values) == 1

    def test_minimum_system_n1(self):
        result = run(Scenario(n=1, proposals=1, seed=0))
        assert result.decided_values == {1}

    def test_n2_t0(self):
        result = run(Scenario(n=2, t=0, proposals=[1, 1], seed=0))
        assert result.decided_values == {1}

    def test_suboptimal_t_smaller_than_max(self):
        """Using t=1 in a 7-process system (more slack) still works."""
        result = run(Scenario(n=7, t=1, proposals=[0, 1, 0, 1, 0, 1, 0], seed=4))
        assert len(result.decided_values) == 1


class TestDeterminism:
    def test_same_seed_same_everything(self):
        a = run(Scenario(n=4, proposals=[0, 1, 1, 0], seed=42))
        b = run(Scenario(n=4, proposals=[0, 1, 1, 0], seed=42))
        assert a.decided_values == b.decided_values
        assert a.steps == b.steps
        assert a.messages_sent == b.messages_sent
        assert a.meta["decision_rounds"] == b.meta["decision_rounds"]

    def test_different_seeds_explore_different_executions(self):
        results = [
            run(Scenario(n=4, proposals=[0, 1, 1, 0], seed=s)) for s in range(6)
        ]
        assert len({r.steps for r in results}) > 1


class TestStopModes:
    def test_halted_mode_halts_everyone(self):
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], stop="halted", seed=5))
        assert result.halted == {0, 1, 2, 3}

    def test_quiescent_mode_drains(self):
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], stop="quiescent", seed=5))
        assert result.halted == {0, 1, 2, 3}
        assert result.messages_sent == result.messages_delivered + result.meta.get(
            "dropped", 0
        )

    def test_unknown_stop_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run(Scenario(n=4, stop="whenever", seed=0))


class TestResultMetadata:
    def test_meta_records_configuration(self):
        result = run(Scenario(n=4, proposals=[1, 0, 1, 0], seed=6))
        assert result.meta["proposals"] == {0: 1, 1: 0, 2: 1, 3: 0}
        assert result.meta["faulty"] == []
        assert "rbc/RbcMessage" in result.meta["messages_by_kind"]

    def test_coin_flip_accounting(self):
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], seed=8))
        assert result.meta["coin_flips"] >= 0
