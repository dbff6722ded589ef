"""The pieces every run is assembled from and checked by: proposal and
coin specs (:mod:`repro.stacks`), scenario-level fault validation, and
the one result checker (:func:`repro.outcome.build_result`)."""

import dataclasses
import json
import re

import pytest

from repro.core.coin import DealerCoin, LocalCoin, ShareCoinProvider
from repro.errors import (
    AgreementViolation,
    ConfigError,
    IntegrityViolation,
    LivenessFailure,
    ReproError,
    ValidityViolation,
)
from repro.outcome import InstanceOutcome, NodeReport, build_result
from repro.params import for_system
from repro.scenario import Scenario, assemble
from repro.stacks import make_coin, normalize_proposals


class TestNormalizeProposals:
    def test_default_split(self):
        assert normalize_proposals(None, 4) == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_scalar_unanimous(self):
        assert normalize_proposals(1, 3) == {0: 1, 1: 1, 2: 1}

    def test_sequence(self):
        assert normalize_proposals([1, 0, 1], 3) == {0: 1, 1: 0, 2: 1}

    def test_mapping(self):
        assert normalize_proposals({0: 1, 1: 0}, 2) == {0: 1, 1: 0}

    def test_missing_pid_rejected(self):
        with pytest.raises(ConfigError):
            normalize_proposals({0: 1}, 2)

    def test_non_bit_rejected(self):
        with pytest.raises(ConfigError):
            normalize_proposals([0, 2], 2)

    def test_short_sequence_rejected(self):
        with pytest.raises(ConfigError):
            normalize_proposals([0], 3)

    @pytest.mark.parametrize("scalar", [2, -1, True, False])
    def test_non_bit_scalar_rejected(self, scalar):
        """The scalar branch used to skip the bit check: ``2`` became a
        table of 2s and died as a bare ValueError inside a node."""
        with pytest.raises(ConfigError, match="scalar proposal must be 0 or 1"):
            normalize_proposals(scalar, 3)


class TestMakeCoin:
    def test_names(self):
        assert isinstance(make_coin("local", 4, 1, 0), LocalCoin)
        assert isinstance(make_coin("dealer", 4, 1, 0), DealerCoin)
        assert isinstance(make_coin("shares", 4, 1, 0), ShareCoinProvider)

    def test_passthrough_instance(self):
        scheme = DealerCoin(4, 1, seed=9)
        assert make_coin(scheme, 4, 1, 0) is scheme

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_coin("quantum", 4, 1, 0)

    def test_seed_isolation(self):
        a = make_coin("dealer", 4, 1, seed=1)
        b = make_coin("dealer", 4, 1, seed=2)
        assert [a.value(r) for r in range(20)] != [b.value(r) for r in range(20)]


class TestSetup:
    """Fault-table validation happens when the scenario is built."""

    def test_correct_and_faulty_partition(self):
        handle = assemble(Scenario(n=4, faults={3: "silent"}, seed=0))
        assert sorted(handle.stacks) == [0, 1, 2]
        assert sorted(handle.behaviors) == [3]

    def test_fault_pid_out_of_range(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={9: "silent"}, seed=0)

    def test_excess_faults_rejected_by_default(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={2: "silent", 3: "silent"}, seed=0)

    def test_excess_faults_opt_in(self):
        handle = assemble(Scenario(
            n=4, faults={2: "silent", 3: "silent"}, seed=0,
            allow_excess_faults=True,
        ))
        assert len(handle.behaviors) == 2

    def test_bad_fault_spec(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={3: {"no_kind": True}}, seed=0)
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={3: "gremlin"}, seed=0)


def _binary(pid, *values, flags=()):
    """A correct node's report: one value per instance (``None`` =
    undecided); ``flags`` are invariant flags on the last instance."""
    outcomes = [
        InstanceOutcome(value is not None, value, 1 if value is not None else None)
        for value in values
    ]
    outcomes[-1] = dataclasses.replace(outcomes[-1], invariant_flags=tuple(flags))
    return NodeReport(pid, True, instances=tuple(outcomes))


def _acs(pid, subset):
    """A correct ACS node's report; ``subset=None`` means not done."""
    output = None if subset is None else tuple((p, f"req-p{p}") for p in subset)
    return NodeReport(pid, True, acs=output)


SPLIT, ONES = (0, 1, 0, 1), (1, 1, 1, 1)

# (reports, proposals, exception under check=True, recorded violation)
VERIFY_CASES = {
    "clean": ([_binary(p, 1) for p in range(4)], SPLIT, None, None),
    "clean-multi-instance": (
        [_binary(p, 1, 0, 1) for p in range(4)], SPLIT, None, None),
    "clean-acs": ([_acs(p, (0, 1, 3)) for p in range(4)], SPLIT, None, None),
    "disagreement": (
        [_binary(0, 1), _binary(1, 0), _binary(2, 1), _binary(3, 1)], SPLIT,
        AgreementViolation, "correct processes decided [0, 1]"),
    "invalid-value": (
        [_binary(p, 0) for p in range(4)], ONES,
        ValidityViolation, "p0 decided 0, proposed by no correct process"),
    "missing-decisions": (
        [_binary(0, 1)] + [_binary(p, None) for p in (1, 2, 3)], SPLIT,
        LivenessFailure, "processes never decided: [1, 2, 3]"),
    "instance-1-disagreement": (
        [_binary(0, 1, 1), _binary(1, 1, 0), _binary(2, 1, 1), _binary(3, 1, 1)],
        SPLIT, AgreementViolation,
        "instance 1: correct processes decided [0, 1]"),
    "instance-2-undecided": (
        [_binary(p, 1, 1, 1) for p in range(3)] + [_binary(3, 1, 1, None)],
        SPLIT, LivenessFailure, "instance 2: processes never decided: [3]"),
    "flag-on-instance-2": (
        [_binary(p, 1, 1, 1) for p in range(3)]
        + [_binary(3, 1, 1, 1, flags=["decided twice"])],
        SPLIT, IntegrityViolation, "instance 2: p3: decided twice"),
    "acs-diverging": (
        [_acs(0, (0, 1, 2))] + [_acs(p, (0, 1, 3)) for p in (1, 2, 3)], SPLIT,
        AgreementViolation, "ACS outputs diverge"),
    "acs-undersized": (
        [_acs(p, (0, 1)) for p in range(4)], SPLIT,
        AgreementViolation, "ACS output has 2 elements, need >= 3"),
    "acs-incomplete": (
        [_acs(p, (0, 1, 2)) for p in range(3)] + [_acs(3, None)], SPLIT,
        LivenessFailure, "ACS never completed at: [3]"),
    # Four correct pids, three reports: the builder is told the correct
    # set, so the silent node is a failure, not a smaller quorum.
    "missing-report": (
        [_binary(p, 1) for p in range(3)], SPLIT,
        LivenessFailure, "node 3 returned no result"),
}


class TestBuildResult:
    """The one checker every fabric shares, over fabricated reports."""

    @staticmethod
    def _build(reports, proposals, check):
        return build_result(
            reports, correct=range(4), faulty=(),
            proposals=dict(enumerate(proposals)), params=for_system(4),
            check=check,
        )

    @pytest.mark.parametrize("case", sorted(VERIFY_CASES))
    def test_check_true_raises_the_named_violation(self, case):
        reports, proposals, exc, message = VERIFY_CASES[case]
        if exc is None:
            assert self._build(reports, proposals, True).violations == []
            return
        with pytest.raises(exc, match=re.escape(message)):
            self._build(reports, proposals, True)

    @pytest.mark.parametrize("case", sorted(VERIFY_CASES))
    def test_check_false_records_instead(self, case):
        reports, proposals, _exc, message = VERIFY_CASES[case]
        result = self._build(reports, proposals, False)
        if message is None:
            assert result.violations == []
        else:
            assert any(message in v for v in result.violations)

    def test_faulty_reports_count_but_are_not_judged(self):
        liar = _binary(3, 0)
        liar.sent = 7
        result = build_result(
            [_binary(p, 1) for p in range(3)] + [liar],
            correct=range(3), faulty=[3], proposals=dict(enumerate(ONES)),
            params=for_system(4),
        )
        assert sorted(result.decisions) == [0, 1, 2]
        assert result.messages_sent == 7 and result.meta["faulty"] == [3]

    @pytest.mark.parametrize("report", [
        _binary(2, 1, None, flags=["x"]), _acs(1, (0, 2, 3)), _acs(0, None),
    ])
    def test_report_survives_the_control_channel(self, report):
        wire = json.loads(json.dumps(report.to_dict()))
        assert wire["type"] == "result" and wire["node"] == report.pid
        assert NodeReport.from_dict(wire) == report

    def test_malformed_report_is_a_named_error(self):
        with pytest.raises(ReproError, match="malformed node report"):
            NodeReport.from_dict({"type": "result", "instances": [{}]})
