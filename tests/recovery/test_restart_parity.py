"""Golden table for the sim ``restart`` fault: a recovery changes no run.

Each row is one seeded sim run with a ``restart`` fault, recorded as
``steps``, ``messages_sent``, a hash of ``sim.schedule`` (the delivery
order as pending-set ranks) and each pid's decision ``(value, round)``.
A change to how the restarted node logs or replays its inputs must
leave every row as it is: the replay rebuilds the same state, so the
node sends the same messages and the scheduler sees the same pending
set at every step.

Rows: every ``SCENARIOS`` entry of ``test_sim_restart.py`` under
``stop: decided`` and ``stop: halted``, and bracha n=7 with 3 instances
and a restart on pid 2 at seeds 0-19 (``after = 7 * seed``, ``down = 1 +
seed % 4``), so the crash lands at every stage from before the first
delivery to after the decision.

The table was generated at the commit before the restarted node logged
through the WAL's bytes, with ``PYTHONPATH=src python
tests/recovery/test_restart_parity.py``, which prints it.
"""

import hashlib

import pytest

from repro.scenario import Scenario, assemble

from .test_sim_restart import SCENARIOS

ROWS = {
    **{f"{name}-{stop}": scenario.replace(stop=stop)
       for name, scenario in SCENARIOS.items()
       for stop in ("decided", "halted")},
    **{f"bracha-n7x3-seed{seed}": Scenario(
        protocol="bracha", n=7, instances=3, seed=seed,
        faults={2: {"kind": "restart", "after": 7 * seed,
                    "down": 1 + seed % 4}})
       for seed in range(20)},
}


def fingerprint(scenario: Scenario) -> tuple:
    handle = assemble(scenario).run()
    try:
        result = handle.result()
        schedule = ",".join(map(str, handle.sim.schedule)).encode()
    finally:
        handle.close()
    decisions = {
        pid: (repr(d.value), d.round) for pid, d in sorted(result.decisions.items())
    }
    return (result.steps, result.messages_sent,
            hashlib.sha256(schedule).hexdigest()[:16], decisions)


#: row -> (steps, messages_sent, schedule hash, {pid: (repr(value), round)})
GOLDEN = {
    'bracha-decided': (429, 476, '367eb622f100df7a', {
        0: ('1', 1), 1: ('1', 1), 2: ('1', 1), 3: ('1', 1),
    }),
    'bracha-halted': (471, 508, 'da6889a584efd78b', {
        0: ('1', 1), 1: ('1', 1), 2: ('1', 1), 3: ('1', 1),
    }),
    'benor-decided': (37, 72, 'cb3c6242443e114a', {
        0: ('1', 1), 1: ('1', 1), 2: ('1', 1), 3: ('1', 1),
    }),
    'benor-halted': (67, 80, 'e485227bff51aafb', {
        0: ('1', 1), 1: ('1', 1), 2: ('1', 1), 3: ('1', 1),
    }),
    'benor-crash-decided': (45, 95, 'f7ebb123d060e4b0', {
        0: ('1', 1), 1: ('1', 1), 2: ('1', 1), 3: ('1', 1),
        4: ('1', 1),
    }),
    'benor-crash-halted': (73, 105, '648b243ffcf5d201', {
        0: ('1', 1), 1: ('1', 1), 2: ('1', 1), 3: ('1', 1),
        4: ('1', 1),
    }),
    'mmr14-decided': (37, 72, 'cb3c6242443e114a', {
        0: ('1', 1), 1: ('1', 1), 2: ('1', 1), 3: ('1', 1),
    }),
    'mmr14-halted': (74, 88, 'e4e0e6fbbcc48c78', {
        0: ('1', 1), 1: ('1', 1), 2: ('1', 1), 3: ('1', 1),
    }),
    'acs-decided': (2018, 2212, 'ca38237e837c2c79', {
        0: ('(0, 1, 2, 3)', 0), 1: ('(0, 1, 2, 3)', 0), 2: ('(0, 1, 2, 3)', 0), 3: ('(0, 1, 2, 3)', 0),
    }),
    'acs-halted': (2018, 2212, 'ca38237e837c2c79', {
        0: ('(0, 1, 2, 3)', 0), 1: ('(0, 1, 2, 3)', 0), 2: ('(0, 1, 2, 3)', 0), 3: ('(0, 1, 2, 3)', 0),
    }),
    'bracha-n7x3-seed0': (11915, 12327, 'c4b8d05b6f12f15b', {
        0: ('0', 2), 1: ('0', 2), 2: ('0', 2), 3: ('0', 2),
        4: ('0', 2), 5: ('0', 2), 6: ('0', 2),
    }),
    'bracha-n7x3-seed1': (10251, 10500, 'a6116971ca2e190a', {
        0: ('0', 1), 1: ('0', 1), 2: ('0', 1), 3: ('0', 1),
        4: ('0', 1), 5: ('0', 1), 6: ('0', 1),
    }),
    'bracha-n7x3-seed2': (10341, 10605, '743602bcc532f97e', {
        0: ('0', 2), 1: ('0', 2), 2: ('0', 2), 3: ('0', 2),
        4: ('0', 2), 5: ('0', 2), 6: ('0', 2),
    }),
    'bracha-n7x3-seed3': (10419, 10654, 'b5564036bfca54cf', {
        0: ('0', 1), 1: ('0', 1), 2: ('0', 1), 3: ('0', 1),
        4: ('0', 1), 5: ('0', 1), 6: ('0', 1),
    }),
    'bracha-n7x3-seed4': (10331, 10556, '1f984798f613e57e', {
        0: ('0', 2), 1: ('0', 2), 2: ('0', 2), 3: ('0', 2),
        4: ('0', 2), 5: ('0', 2), 6: ('0', 2),
    }),
    'bracha-n7x3-seed5': (11902, 12397, 'bd3f6129fc18da59', {
        0: ('1', 2), 1: ('1', 2), 2: ('1', 2), 3: ('1', 2),
        4: ('1', 2), 5: ('1', 2), 6: ('1', 2),
    }),
    'bracha-n7x3-seed6': (16999, 17255, 'a111a5a9d22b32ff', {
        0: ('1', 2), 1: ('1', 2), 2: ('1', 2), 3: ('1', 2),
        4: ('1', 2), 5: ('1', 2), 6: ('1', 2),
    }),
    'bracha-n7x3-seed7': (11808, 12306, '24122e96096d54ee', {
        0: ('0', 2), 1: ('0', 2), 2: ('0', 2), 3: ('0', 2),
        4: ('0', 2), 5: ('0', 2), 6: ('0', 2),
    }),
    'bracha-n7x3-seed8': (11839, 12334, '57942ecd834b0013', {
        0: ('0', 1), 1: ('0', 1), 2: ('0', 1), 3: ('0', 1),
        4: ('0', 1), 5: ('0', 1), 6: ('0', 1),
    }),
    'bracha-n7x3-seed9': (6891, 7588, 'b338867008caf35a', {
        0: ('0', 1), 1: ('0', 1), 2: ('0', 1), 3: ('0', 1),
        4: ('0', 1), 5: ('0', 1), 6: ('0', 1),
    }),
    'bracha-n7x3-seed10': (10446, 10682, '1cd26496e7bdc446', {
        0: ('1', 1), 1: ('1', 1), 2: ('1', 1), 3: ('1', 1),
        4: ('1', 1), 5: ('1', 1), 6: ('1', 1),
    }),
    'bracha-n7x3-seed11': (12771, 13006, 'a67ef75fb42f6d38', {
        0: ('0', 3), 1: ('0', 3), 2: ('0', 3), 3: ('0', 3),
        4: ('0', 3), 5: ('0', 3), 6: ('0', 3),
    }),
    'bracha-n7x3-seed12': (10467, 10759, 'b4ed108f05fb8af9', {
        0: ('1', 1), 1: ('1', 1), 2: ('1', 1), 3: ('1', 1),
        4: ('1', 1), 5: ('1', 1), 6: ('1', 1),
    }),
    'bracha-n7x3-seed13': (10528, 10773, 'd92df8c401121a87', {
        0: ('0', 2), 1: ('0', 2), 2: ('0', 2), 3: ('0', 2),
        4: ('0', 2), 5: ('0', 2), 6: ('0', 2),
    }),
    'bracha-n7x3-seed14': (10583, 10794, '430e6ba940f07fb4', {
        0: ('0', 1), 1: ('0', 1), 2: ('0', 1), 3: ('0', 1),
        4: ('0', 1), 5: ('0', 1), 6: ('0', 1),
    }),
    'bracha-n7x3-seed15': (10258, 10535, 'd794ab0e24c95d1d', {
        0: ('1', 2), 1: ('1', 2), 2: ('1', 2), 3: ('1', 2),
        4: ('1', 2), 5: ('1', 2), 6: ('1', 2),
    }),
    'bracha-n7x3-seed16': (6953, 7672, 'e994a85a9066d293', {
        0: ('0', 1), 1: ('0', 1), 2: ('0', 1), 3: ('0', 1),
        4: ('0', 1), 5: ('0', 1), 6: ('0', 1),
    }),
    'bracha-n7x3-seed17': (14963, 15232, 'b108d47f655fe0d3', {
        0: ('1', 1), 1: ('1', 1), 2: ('1', 1), 3: ('1', 1),
        4: ('1', 1), 5: ('1', 1), 6: ('1', 1),
    }),
    'bracha-n7x3-seed18': (17176, 17430, 'b69c5674c731fe3b', {
        0: ('0', 3), 1: ('0', 3), 2: ('0', 3), 3: ('0', 3),
        4: ('0', 3), 5: ('0', 3), 6: ('0', 3),
    }),
    'bracha-n7x3-seed19': (12195, 12600, '9d0216b2f94ec0ae', {
        0: ('0', 2), 1: ('0', 2), 2: ('0', 2), 3: ('0', 2),
        4: ('0', 2), 5: ('0', 2), 6: ('0', 2),
    }),
}


def test_rows_cover_every_restart_scenario():
    assert set(ROWS) == set(GOLDEN)
    assert {name.rsplit("-", 1)[0] for name in ROWS if "seed" not in name} \
        == set(SCENARIOS)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_restart_run_matches_golden(row):
    assert fingerprint(ROWS[row]) == GOLDEN[row]


if __name__ == "__main__":  # pragma: no cover - regenerates the table
    print("GOLDEN = {")
    for row in ROWS:
        *head, decisions = fingerprint(ROWS[row])
        print(f"    {row!r}: {tuple(head)!r}"[:-1] + ", {")
        items = [f"{pid}: {d!r}," for pid, d in decisions.items()]
        for i in range(0, len(items), 4):
            print("        " + " ".join(items[i:i + 4]))
        print("    }),")
    print("}")
