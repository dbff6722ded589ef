"""A run's schedule does not depend on which path its steps take.

``Simulation.run`` draws the stock random scheduler's rank itself and
pops a one-block pending set in place; every other scheduler is asked
through ``choose()`` and a set of more blocks is popped through the
checked ``PendingSet.pop``.  The digests below were taken from runs in
which every step went through ``RandomScheduler.choose``, ``pop`` and a
network-level deliver, so each path must give the same ranks in the
same order — also with blocks of eight, where most steps pop a set of
several blocks.
"""

import hashlib
import json

import pytest

from repro.scenario import Scenario, assemble
from repro.sim import events
from repro.sim.scheduler import RandomScheduler

SCRIPT = [7, 3, 12, 0, 5, 9, 1, 30, 2, 8] * 6

#: (scenario fields over a bracha n=4 run, steps, sha256 prefix of the
#: JSON schedule).
GOLDEN = [
    ({"scheduler": "random", "seed": 3}, 847, "0adab2f0ffc5fd03"),
    ({"scheduler": "random", "seed": 7}, 425, "55e797ac6de8d77f"),
    ({"scheduler": "random", "seed": 11, "faults": {3: "two_faced"}},
     886, "f2cd965d66b85894"),
    ({"scheduler": "random", "seed": 3, "observe": "ring", "profile": "on"},
     847, "0adab2f0ffc5fd03"),
    ({"scheduler": "random", "seed": 5, "n": 7, "instances": 3,
      "batching": "flush"}, 10327, "0f006f2db1458962"),
    ({"scheduler": "fifo", "seed": 3}, 871, "db8373bb1b07b806"),
    ({"scheduler": "fifo", "seed": 7}, 475, "bdf1d6d670abac66"),
    ({"scheduler": "round-robin", "seed": 3}, 412, "6745d19ecd58a6fe"),
    ({"scheduler": "round-robin", "seed": 3, "faults": {3: "silent"}},
     251, "f819e769f6640ad9"),
    ({"scheduler": "script", "seed": 3, "scheduler_args": {"ranks": SCRIPT}},
     412, "a1ec55b67ac07ebc"),
    ({"scheduler": "delay", "seed": 3}, 436, "52b63b56b032dc9b"),
    ({"scheduler": "delay", "seed": 7}, 424, "ec5e456fa57bf083"),
    ({"scheduler": "split", "seed": 3, "faults": {3: "two_faced"}},
     1305, "53f6f62d06edbf08"),
]
IDS = [
    "random-s3", "random-s7", "random-two-faced", "random-observed",
    "random-n7x3", "fifo-s3", "fifo-s7", "round-robin", "round-robin-silent",
    "script", "delay-s3", "delay-s7", "split-two-faced",
]


def schedule_digest(fields):
    sim_run = assemble(Scenario(**{"protocol": "bracha", "n": 4, **fields}))
    try:
        schedule = sim_run.run().sim.schedule
        return len(schedule), hashlib.sha256(
            json.dumps(schedule).encode()).hexdigest()[:16]
    finally:
        sim_run.close()


@pytest.mark.parametrize("fields, steps, digest", GOLDEN, ids=IDS)
def test_a_schedule_is_the_one_it_was(fields, steps, digest):
    assert schedule_digest(fields) == (steps, digest)


@pytest.mark.parametrize("fields, steps, digest", GOLDEN, ids=IDS)
def test_a_schedule_over_many_blocks_is_the_one_it_was(
        fields, steps, digest, monkeypatch):
    popped = []
    pop = events.PendingSet.pop

    def checked_pop(pending, rank):
        popped.append(len(pending._blocks))
        return pop(pending, rank)

    monkeypatch.setattr(events, "BLOCK", 8)
    monkeypatch.setattr(events.PendingSet, "pop", checked_pop)
    assert schedule_digest(fields) == (steps, digest)
    # The checked pop served the steps over a set of several blocks
    # (and, for a scheduler other than the stock random one, every step).
    assert max(popped) > 1
    if fields["scheduler"] != "random":
        assert len(popped) == steps


class ChooseScheduler(RandomScheduler):
    """The stock random scheduler asked through ``choose()``: the loop
    draws for ``RandomScheduler`` itself, and for nothing else."""


@pytest.mark.parametrize("fields", [
    {"seed": 3}, {"seed": 5, "n": 7, "instances": 3, "batching": "flush"},
    {"seed": 11, "faults": {3: "two_faced"}, "observe": "ring"},
], ids=["n4", "n7x3", "two-faced-observed"])
def test_the_loops_draw_is_choose(fields, monkeypatch):
    calls = []
    choose = RandomScheduler.choose
    monkeypatch.setattr(RandomScheduler, "choose", lambda scheduler: (
        calls.append(1) or choose(scheduler)))
    scenario = Scenario(**{"protocol": "bracha", "n": 4, **fields})
    runs = []
    for scheduler in (None, ChooseScheduler()):
        sim_run = assemble(scenario, scheduler=scheduler)
        try:
            result = sim_run.run().result()
            runs.append((sim_run.sim.schedule, sim_run.sim.now,
                         result.decisions, result.messages_sent))
        finally:
            sim_run.close()
    assert runs[0] == runs[1]
    assert len(calls) == len(runs[1][0])  # only the subclass asked
