"""T5 — Validation is load-bearing: t < n/5 (Ben-Or) vs t < n/3 (Bracha).

The paper's key qualitative claim: adding reliable broadcast + message
validation to Ben-Or-style rounds lifts Byzantine resilience from
``n > 5t`` to the optimal ``n > 3t``.  Three measurements:

* **T5a** — the scripted equivocation attack
  (:mod:`repro.adversary.benor_attack`) against Ben-Or at n=4, t=1
  (outside its envelope): the adversary forges a decide quorum toward
  one process and steers the rest to the opposite value; it succeeds
  whenever the two victims' local coins cooperate (≈ 1/4 of seeds) —
  i.e. *eventually*, against a protocol that is supposed to be safe
  always.
* **T5b** — the same forged message played against Bracha's validation:
  the decide-proposal needs a > n/2 majority of validated step-2
  messages, which does not exist, so it stays pending forever and the
  attack never starts.
* **T5c** — Bracha end-to-end under two-faced + split-brain scheduling
  at maximum resilience: every trial decides cleanly.
"""

from conftest import run_once

from repro.adversary.benor_attack import attack_success_rate
from repro.analysis.tables import format_table
from repro.core.validation import StepValidator
from repro.params import ProtocolParams
from repro.scenario import Scenario, run
from repro.types import Step, StepValue

TRIALS = 20


def test_t5a_benor_disagreement_attack(benchmark, table_sink):
    def experiment():
        wins, reports = attack_success_rate(TRIALS, seed=0)
        outcomes = {}
        for report in reports:
            outcomes[report.outcome] = outcomes.get(report.outcome, 0) + 1
        return wins, outcomes

    wins, outcomes = run_once(benchmark, experiment)
    rows = [[outcome, count] for outcome, count in sorted(outcomes.items())]
    table_sink(
        "t5a_benor_attack",
        format_table(
            ["outcome", "count"],
            rows,
            title=f"T5a. Scripted equivocation attack on Ben-Or at n=4,t=1 "
                  f"({TRIALS} seeds): {wins} agreement violations "
                  "(theory: ~1/4 per attempt, hence eventual certainty)",
        ),
    )
    assert wins >= 1, "the attack must land for some seeds"
    assert wins <= TRIALS // 2, "and the coins must not always cooperate"


def test_t5b_bracha_blocks_the_same_forgery(benchmark, table_sink):
    """Replay the forged decide-proposal against the validation layer."""

    def experiment():
        params = ProtocolParams(4, 1)
        validator = StepValidator(params)
        # The honest history the adversary cannot change: step-1 is split
        # and step-2 never reaches a >n/2 majority for 1.
        for pid, bit in ((0, 1), (1, 1), (2, 0)):
            validator.add(1, Step.ONE, pid, StepValue(bit))
        for pid, bit in ((0, 1), (1, 1), (2, 0)):
            validator.add(1, Step.TWO, pid, StepValue(bit))
        # p3's forged decide-proposal for 1 (what won the Ben-Or attack):
        validator.add(1, Step.THREE, 3, StepValue(1, decide=True))
        return {
            "validated": validator.validated_count(1, Step.THREE),
            "pending": validator.pending_count(1, Step.THREE),
            "decide_support": validator.decide_support(1),
        }

    state = run_once(benchmark, experiment)
    table_sink(
        "t5b_bracha_blocks",
        format_table(
            ["forged (d,1) validated", "held pending", "decide support"],
            [[state["validated"], state["pending"], str(state["decide_support"])]],
            title="T5b. The identical forgery against Bracha's validation: "
                  "pending forever, zero decide support",
        ),
    )
    assert state["validated"] == 0
    assert state["pending"] == 1
    assert state["decide_support"] == {0: 0, 1: 0}


def test_t5c_bracha_end_to_end_under_attack(benchmark, table_sink, bench_sink):
    def experiment():
        clean = 0
        for seed in range(TRIALS):
            result = run(Scenario(
                protocol="bracha", n=4, proposals=[1, 1, 0, 0],
                faults={3: "two_faced"},
                scheduler="split",
                scheduler_args={"group_a": [0, 1], "holdback": 250},
                seed=seed, max_steps=3_000_000,
            ))
            clean += int(len(result.decided_values) == 1)
        return clean

    clean = run_once(benchmark, experiment)
    table_sink(
        "t5c_bracha_control",
        format_table(
            ["trials", "clean decisions", "violations"],
            [[TRIALS, clean, TRIALS - clean]],
            title="T5c. Bracha at n=4,t=1 under two-faced + split-brain: "
                  "inside its envelope, nothing breaks",
        ),
    )
    assert clean == TRIALS
    bench_sink(
        "t5_validation",
        {"bracha_clean_decisions": clean},
        meta={"trials": TRIALS},
    )
