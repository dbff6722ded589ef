"""Engine parity: the benchmark's two sim shapes, ten seeds, pinned.

``test_fixed_seed_golden.py`` pins one seed of the ``sim-bracha-n7x8``
shape; a change to what the engine does per delivered message (how the
broadcast layer counts, when the outbox drains, who hears an
acceptance) must leave *every* seed the benchmark driver may pick
untouched.  Each row is one seed run twice — unobserved, and under
``observe: ring`` + ``profile: on`` (the ``sim-observed-n7x8`` shape) —
and records ``steps``, ``messages_sent``, ``messages_delivered``,
``rounds``, ``coin_flips``, the sha256 of the canonical JSON of every
decision (value, round, time, per-instance values) plus
``messages_by_kind``, and the length and sha256 of the ring event
stream.  Both runs of a seed must agree on everything but the stream,
which only the observed one has.

The table was generated at commit be0e133 (before the broadcast layer
counted inline and acceptances were routed by tag) with
``PYTHONPATH=src python tests/scenario/test_engine_parity.py``, which
prints it.
"""

import hashlib
import json

import pytest

from repro.scenario import Scenario, run

from .test_event_stream_golden import stream_digest

SEEDS = range(1000, 1010)


def shape(seed: int, **observed) -> Scenario:
    return Scenario(protocol="bracha", fabric="sim", n=7, instances=8,
                    batching="flush", seed=seed, **observed)


def fingerprint(result) -> tuple:
    outcome = {
        "decisions": {
            str(pid): [d.value, d.round, d.time]
            for pid, d in sorted(result.decisions.items())
        },
        "instances": {
            str(pid): values
            for pid, values in sorted(result.meta["instance_decisions"].items())
        },
        "kinds": dict(sorted(result.meta["messages_by_kind"].items())),
    }
    digest = hashlib.sha256(
        json.dumps(outcome, sort_keys=True).encode("utf-8")).hexdigest()
    return (result.steps, result.messages_sent, result.messages_delivered,
            result.rounds, result.meta["coin_flips"], digest)


def row(seed: int) -> tuple:
    plain = fingerprint(run(shape(seed)))
    observed = run(shape(seed, observe="ring", profile="on"))
    assert fingerprint(observed) == plain
    assert observed.meta["obs"]["dropped"] == 0
    return plain + stream_digest(observed.meta["obs_events"])


#: seed -> (steps, sent, delivered, rounds, coin flips, outcome sha256,
#:          events in the ring, sha256 of the event stream)
GOLDEN = {
    1000: (
        29295, 29904, 29295, 3, 21,
        "92367d57b0b928af235adcc31ce05594768097f7ff0f447e13a82118d707de74",
        59360, "9246e7defefbd2f9c25138fab7d36eec9d76426eb239ff8b546994ad17988135",
    ),
    1001: (
        31918, 32130, 31918, 4, 26,
        "ee5f5c20d9bbc96063c463614dd89813e1f75fb46c77d3f227939c93ef9624b9",
        64209, "93fb4ca6870942e235c2c5c463aaf1daab649ad8e5b6556a08b7bc7ccc012cfd",
    ),
    1002: (
        25249, 25473, 25249, 3, 7,
        "d0933777ba08b1310837081e2b1849b219dcecf9c0e707e5707f05241df0864d",
        50883, "7ee62f44331dde8182eb68b435a238c497539c00d19f3b8e1a086c0228ad2d4d",
    ),
    1003: (
        25167, 25417, 25167, 3, 7,
        "7533abd9b2733eae363923fbb867b9032e5e2055111467d6e81876649e3bb9df",
        50745, "1f48625534aebccbccbed330db69969c422211ba2a77523ca9b611134cf1beab",
    ),
    1004: (
        34089, 34342, 34089, 4, 30,
        "5a6e8a51e3c22030bd4fc13d4be58d9e0a37f6882ee3ed75a6675656e8e8efbc",
        68592, "e57d1b45c21c62d53e8ea7f62f3a90bd5272af100bfaa59bd0955116c8312f29",
    ),
    1005: (
        30126, 31024, 30126, 3, 24,
        "0ee5181ea34a7ef45993470ecc48a56561029fc73c9036f21663209737a164c7",
        61306, "a05ec5aecf1e2d44b663bc63ed8cea90ff963d18c18274f459c3fe90361aa776",
    ),
    1006: (
        26930, 27363, 26930, 3, 14,
        "6cd01684b89973ede4af3942ba8c632a184ca038bd3b904694c970fd93ec4b3c",
        54454, "e50239bcf43c7042ab337b3fb3479184cf8e31ca7cce5b17d2ddb42e989d4d4a",
    ),
    1007: (
        26836, 27335, 26836, 3, 14,
        "1e4b612f1e68be0ece16053f708fee91f21f5669aaa7d42fa6d31f01408adb65",
        54328, "750d78a25dd46447bed75034a2450031de03a362606bbe7a08130e157793d860",
    ),
    1008: (
        28015, 28819, 28015, 3, 16,
        "996c1863cef2033a98df442012eacba328f27ca3029c4531b6ff4920d3125e43",
        56984, "561fc827c73627bd326a7eeea167da6c4c9a265d734f3d50963763cda367e1e1",
    ),
    1009: (
        29828, 30786, 29828, 3, 28,
        "aa12d89d0aef57811fd8a8a80932214fe0c06f23d376f6234ccaf1bfa84d0d04",
        60767, "e7ecf436292b95be186aa0344286f17b3696eea21b22ab857256c099d188882a",
    ),
}


def test_table_covers_every_seed():
    assert set(GOLDEN) == set(SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_both_sim_shapes_are_unchanged(seed):
    assert row(seed) == GOLDEN[seed]


if __name__ == "__main__":
    print("GOLDEN = {")
    for seed_ in SEEDS:
        *counts, outcome_sha, events, stream_sha = row(seed_)
        print(f"    {seed_}: (\n        {', '.join(map(str, counts))},\n"
              f'        "{outcome_sha}",\n        {events}, "{stream_sha}",\n    ),')
    print("}")
