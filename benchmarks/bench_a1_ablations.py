"""A1/A2 — Ablations of the two design choices docs/architecture.md calls out.

* **A1: remove validation.**  One stubborn Byzantine process broadcasts
  well-formed step messages for the minority bit (with a forged decide
  proposal in step 3) in every round, while all correct processes are
  unanimous on the other bit.  With validation, none of its messages are
  ever justified (the minority bit lacks step-majority support) and the
  unanimous value wins every time.  Without validation, its messages
  poison step quorums, deny the >n/2 majority, push rounds into the coin
  branch — and the system decides a value **no correct process
  proposed**: a strong-validity violation from a single process at
  t < n/3.

* **A2: remove decide amplification.**  The textbook protocol decides
  but never halts: rounds keep executing forever.  We measure messages
  after the decision under a fixed extra budget — with amplification the
  run quiesces; without it the protocol burns the entire budget.
"""

from conftest import run_once

from repro.analysis.tables import format_table
from repro.scenario import Scenario, assemble
from repro.stacks import ProtocolPlan, ablation_stack

TRIALS = 12


def ablated(scenario, **switches):
    """The scenario assembled on an ablated Bracha stack (a live stack
    factory enters through ``assemble``'s ``plan=``)."""
    plan = ProtocolPlan.for_scenario(scenario, stack=ablation_stack(**switches))
    return assemble(scenario, plan=plan)


def liar_run(validate, seed):
    """n=4: correct p0..p2 propose 1 unanimously; p3 stubbornly
    broadcasts well-formed step messages for 0 (with a forged decide
    proposal in step 3) in every round."""
    scenario = Scenario(
        n=4, proposals=[1, 1, 1, 0],
        faults={3: {"kind": "stubborn", "bit": 0, "horizon": 16}},
        seed=seed, max_steps=1_200_000,
    )
    return ablated(scenario, validate=validate).run().result(check=False)


def test_a1_validation_ablation(benchmark, table_sink, bench_sink):
    def experiment():
        rows = []
        for validate in (True, False):
            validity_violations = 0
            decided_minority = 0
            for seed in range(TRIALS):
                result = liar_run(validate, seed)
                if 0 in result.decided_values:
                    decided_minority += 1
                if any("proposed by no correct" in v for v in result.violations):
                    validity_violations += 1
            rows.append([
                "with validation" if validate else "WITHOUT validation",
                TRIALS, decided_minority, validity_violations,
            ])
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "a1_validation_ablation",
        format_table(
            ["configuration", "trials", "decided the liar's bit",
             "strong-validity violations"],
            rows,
            title="A1. One stubborn bidder vs unanimity "
                  "(n=4: correct processes all propose 1; the fault pushes 0 "
                  "with a forged decide proposal every round)",
        ),
    )
    with_validation = rows[0]
    without_validation = rows[1]
    assert with_validation[2] == 0 and with_validation[3] == 0
    assert without_validation[3] >= 1, (
        "without validation the liar must win on some seeds"
    )
    bench_sink(
        "a1_ablations",
        {
            "with_validation_violations": with_validation[3],
            "without_validation_violations": without_validation[3],
        },
        meta={"trials": TRIALS},
    )


def test_a2_halting_ablation(benchmark, table_sink):
    extra_budget = 30_000

    def tail_traffic(amplify, seed):
        handle = ablated(
            Scenario(n=4, proposals=[0, 1, 0, 1], seed=seed),
            amplify_decides=amplify,
        ).run()
        sim = handle.sim
        stacks = [consensus for (consensus,) in handle.stacks.values()]
        at_decision = sim.network.sent
        rounds_at_decision = max(c.stats["rounds"] for c in stacks)
        try:
            sim.run(max_steps=extra_budget)  # drain or keep spinning
        except Exception:
            pass
        rounds_after = max(c.stats["rounds"] for c in stacks)
        return (
            sim.network.sent - at_decision,
            rounds_after - rounds_at_decision,
            sim.quiescent,
        )

    def experiment():
        rows = []
        for amplify in (True, False):
            tails, extra_rounds, quiescent_count = [], [], 0
            for seed in range(5):
                tail, rounds, quiescent = tail_traffic(amplify, seed)
                tails.append(tail)
                extra_rounds.append(rounds)
                quiescent_count += int(quiescent)
            rows.append([
                "with amplification" if amplify else "WITHOUT amplification",
                5, max(tails), max(extra_rounds), quiescent_count,
            ])
        return rows

    rows = run_once(benchmark, experiment)
    table_sink(
        "a2_halting_ablation",
        format_table(
            ["configuration", "trials", "max msgs after decision",
             "max extra rounds", "runs that quiesced"],
            rows,
            title=f"A2. Post-decision traffic within a {extra_budget}-step tail budget",
        ),
    )
    with_amp, without_amp = rows
    assert with_amp[4] == 5, "with amplification every run quiesces"
    assert without_amp[4] == 0, "the textbook protocol never quiesces"
    assert without_amp[2] > with_amp[2] * 3, "unbounded tail traffic"
