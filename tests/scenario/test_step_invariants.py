"""The paper's safety properties hold after every step, not only at the end.

:func:`repro.outcome.violations` is the checker :func:`build_result`
runs at the end of a run.  Every property but liveness must hold on
reports read out after any simulator step, so a mid-run caller drops
the :class:`LivenessFailure` entries (:func:`safety_violations`).
"""

import pytest

from repro.errors import (
    AgreementViolation,
    IntegrityViolation,
    LivenessFailure,
    ValidityViolation,
)
from repro.outcome import InstanceOutcome, NodeReport, violations
from repro.params import ProtocolParams
from repro.scenario import assemble, get_scenario


def safety_violations(reports, correct_proposals, params):
    return [v for v in violations(reports, correct_proposals, params)
            if v[0] is not LivenessFailure]


def reports_of(sim_run):
    return [
        NodeReport.from_modules(pid, modules, {})
        for pid, modules in sorted(sim_run.stacks.items())
    ]


@pytest.mark.parametrize("name", ["two-faced-equivocator", "acs-batch"])
def test_no_step_of_a_catalog_run_violates_safety(name):
    scenario = get_scenario(name)
    sim_run = assemble(scenario)
    correct = {sim_run.proposals[pid] for pid in sim_run.stacks}
    params = scenario.params
    try:
        sim_run.start()
        sim = sim_run.sim
        seen_decided = steps = 0
        while sim.step():
            steps += 1
            reports = reports_of(sim_run)
            assert safety_violations(reports, correct, params) == []
            seen_decided = max(seen_decided, sum(
                bool(r.acs) or any(o.decided for o in r.instances)
                for r in reports))
            if sim_run.until is not None and sim_run.until():
                break
        # The checks ran over decided nodes, and the run is the one
        # ``run(scenario)`` verifies at its end.
        assert seen_decided == len(sim_run.stacks)
        assert sim_run.result().steps == steps
    finally:
        sim_run.close()


def outcome(value, decided=True, flags=()):
    return InstanceOutcome(decided, value, 1 if decided else None, flags)


def test_each_violation_is_named_in_check_order():
    params = ProtocolParams(4, 1)
    reports = [
        NodeReport(0, True, instances=(outcome(0), outcome(1))),
        NodeReport(1, True, instances=(outcome(1), outcome(None, False))),
        NodeReport(2, True, instances=(outcome(2, flags=("bad echo",)),
                                       outcome(1))),
    ]
    assert list(violations(reports, {0, 1}, params)) == [
        (AgreementViolation, "correct processes decided [0, 1, 2]"),
        (ValidityViolation, "p2 decided 2, proposed by no correct process"),
        (IntegrityViolation, "p2: bad echo"),
        (LivenessFailure, "instance 1: processes never decided: [1]"),
    ]
    # Mid-run, an undecided instance is no violation.
    assert [exc for exc, _ in safety_violations(reports, {0, 1}, params)
            ] == [AgreementViolation, ValidityViolation, IntegrityViolation]


def test_acs_outputs_are_checked_for_agreement_and_size():
    params = ProtocolParams(4, 1)
    small = ((0, "a"), (1, "b"))
    reports = [
        NodeReport(0, True, acs=small),
        NodeReport(1, True, acs=small + ((2, "c"),)),
        NodeReport(2, True),
    ]
    found = list(violations(reports, set(), params))
    assert [exc for exc, _ in found] == [
        AgreementViolation, AgreementViolation, LivenessFailure]
    assert found[1][1] == "ACS output has 2 elements, need >= 3"
    assert found[2][1] == "ACS never completed at: [2]"
    assert [exc for exc, _ in safety_violations(reports, set(), params)
            ] == [AgreementViolation, AgreementViolation]
