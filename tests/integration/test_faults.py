"""Fault-injection matrix: every behavior against the full protocol."""

import pytest

from repro.errors import ConfigError
from repro.scenario import Scenario, run


class TestSilent:
    @pytest.mark.parametrize("n,t_faults", [(4, 1), (7, 2), (10, 3)])
    def test_max_silent_faults(self, n, t_faults):
        faults = {n - 1 - i: "silent" for i in range(t_faults)}
        proposals = [pid % 2 for pid in range(n)]
        result = run(Scenario(n=n, proposals=proposals, faults=faults, seed=n))
        assert len(result.decided_values) == 1
        assert len(result.decisions) == n - t_faults

    def test_silent_with_unanimous_inputs(self):
        result = run(Scenario(n=4, proposals=1, faults={0: "silent"}, seed=2))
        assert result.decided_values == {1}

    def test_too_many_faults_rejected_by_harness(self):
        with pytest.raises(ConfigError):
            run(Scenario(n=4, faults={2: "silent", 3: "silent"}, seed=0))


class TestCrash:
    @pytest.mark.parametrize("crash_after", [0, 5, 50, 500])
    def test_crash_at_various_points(self, crash_after):
        result = run(Scenario(
            n=4,
            proposals=[0, 1, 1, 0],
            faults={3: {"kind": "crash", "crash_after": crash_after}},
            seed=crash_after + 1,
        ))
        assert len(result.decided_values) == 1

    def test_crash_with_conflicting_proposal(self):
        """The crasher proposes the minority bit before dying."""
        result = run(Scenario(
            n=7,
            proposals=[1, 1, 1, 1, 1, 1, 0],
            faults={6: {"kind": "crash", "crash_after": 100, "proposal": 0}},
            seed=5,
        ))
        assert result.decided_values == {1}  # strong validity for the correct


class TestTwoFaced:
    @pytest.mark.parametrize("seed", range(8))
    def test_two_faced_cannot_break_agreement(self, seed):
        result = run(Scenario(
            n=4, proposals=[0, 1, 0, 1], faults={2: "two_faced"}, seed=seed
        ))
        assert len(result.decided_values) == 1

    def test_two_faced_against_unanimity(self):
        for seed in range(5):
            result = run(Scenario(
                n=7,
                proposals=0,
                faults={1: "two_faced"},
                seed=seed,
            ))
            assert result.decided_values == {0}

    def test_two_two_faced_at_n7(self):
        result = run(Scenario(
            n=7,
            proposals=[0, 1, 0, 1, 0, 1, 0],
            faults={5: "two_faced", 6: "two_faced"},
            seed=3,
        ))
        assert len(result.decided_values) == 1

    def test_custom_groups(self):
        result = run(Scenario(
            n=4,
            proposals=[1, 1, 1, 1],
            faults={0: {"kind": "two_faced", "group_a": [1], "bit_a": 0, "bit_b": 1}},
            seed=9,
        ))
        assert result.decided_values == {1}


class TestFuzzer:
    @pytest.mark.parametrize("seed", range(6))
    def test_fuzzing_is_shrugged_off(self, seed):
        result = run(Scenario(
            n=4, proposals=[0, 1, 1, 0], faults={1: "fuzzer"}, seed=seed
        ))
        assert len(result.decided_values) == 1

    def test_aggressive_fuzzer(self):
        result = run(Scenario(
            n=7,
            proposals=[0, 1, 0, 1, 0, 1, 0],
            faults={0: {"kind": "fuzzer", "mutate_p": 1.0, "fanout": 5}},
            seed=11,
        ))
        assert len(result.decided_values) == 1


class TestMixedFaults:
    def test_one_of_each_at_n10(self):
        result = run(Scenario(
            n=10,
            proposals=[pid % 2 for pid in range(10)],
            faults={7: "silent", 8: "two_faced", 9: "fuzzer"},
            seed=17,
        ))
        assert len(result.decided_values) == 1
        assert len(result.decisions) == 7

    def test_faults_with_common_coin(self):
        result = run(Scenario(
            n=7,
            proposals=[0, 1, 0, 1, 0, 1, 0],
            coin="dealer",
            faults={5: "two_faced", 6: "silent"},
            seed=19,
        ))
        assert len(result.decided_values) == 1

    def test_faults_with_share_coin(self):
        """Byzantine processes withhold their coin shares; t+1 correct
        shares still reconstruct."""
        result = run(Scenario(
            n=4,
            proposals=[0, 1, 0, 1],
            coin="shares",
            faults={3: "silent"},
            seed=23,
        ))
        assert len(result.decided_values) == 1
