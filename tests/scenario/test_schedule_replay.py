"""A recorded schedule is data: every golden row replays from it.

Each fixed-seed golden row is run once to record ``sim.schedule`` (the
pending-set rank of every delivery).  The same scenario with
``scheduler="script"`` and those ranks as ``scheduler_args`` then goes
through ``to_dict`` → JSON → ``from_dict`` and must run to the row's
golden fingerprint.  The script advances virtual time by one per
delivery, as every scheduler but ``delay`` does, so on the other rows
the decision times match too.
"""

import json

import pytest

from repro.scenario import Scenario, assemble, run

from .test_fixed_seed_golden import GOLDEN, scenario_for


def fingerprint(result):
    decisions = {
        pid: (d.value, d.round) for pid, d in sorted(result.decisions.items())
    }
    return result.steps, result.messages_sent, decisions


@pytest.mark.parametrize("row", sorted(GOLDEN))
def test_golden_row_replays_from_its_schedule_through_json(row):
    scenario = scenario_for(row)
    handle = assemble(scenario).run()
    recorded = handle.result()
    schedule = handle.sim.schedule
    assert len(schedule) == recorded.steps

    scripted = scenario.replace(scheduler="script",
                                scheduler_args={"ranks": schedule})
    replay = Scenario.from_dict(json.loads(json.dumps(scripted.to_dict())))
    assert replay == scripted
    replayed = run(replay)
    assert fingerprint(replayed) == fingerprint(recorded) == GOLDEN[row]
    if scenario.scheduler != "delay":
        assert (replayed.meta["decision_latency"]
                == recorded.meta["decision_latency"])
