"""Golden event streams: an observed fixed-seed ``sim`` run, pinned byte for byte.

``test_fixed_seed_golden.py`` pins what a run *does* (steps, messages,
decisions) with ``observe="off"``; this file pins what an observed run
*says*.  Every row is one catalog entry run on ``sim`` under ``observe:
ring`` at its catalogued seed; its digest is the sha256 of the JSONL
event stream — one ``json.dumps(event.to_dict(), sort_keys=True)`` line
per event, exactly what :class:`~repro.obs.sinks.JsonlSink` writes.  A
change to how events are classified, built or recorded must leave every
digest untouched: same events, same order, same details.

Rows: one catalog entry per protocol (bracha, benor, benor-crash, mmr14,
acs) plus the two Byzantine entries whose senders hand the network
equal-but-distinct or malformed payloads (``two-faced-equivocator``,
``fuzzer-storm``).

The table was generated at commit 925157f (before payload classification
was shared between a broadcast's events) with ``PYTHONPATH=src python
tests/scenario/test_event_stream_golden.py``, which prints it.
"""

import hashlib
import json

import pytest

from repro.scenario import get_scenario, run

ROWS = (
    "unanimous-fast-path", "benor-split", "crash-majority", "mmr14-dealer",
    "acs-batch", "two-faced-equivocator", "fuzzer-storm",
)


def observed_run(row: str, profile: str = "off"):
    scenario = get_scenario(row).replace(
        fabric="sim", observe="ring", profile=profile
    )
    return run(scenario)


def stream_digest(events) -> tuple:
    sha = hashlib.sha256()
    for event in events:
        line = json.dumps(event.to_dict(), sort_keys=True) + "\n"
        sha.update(line.encode("utf-8"))
    return len(events), sha.hexdigest()


#: row -> (events in the stream, sha256 of its JSONL encoding)
GOLDEN = {
    "unanimous-fast-path": (
        975, "ea9630faf1493e0864f818140ebfead824b63f28db8a58d6927abfa7e8aa6735",
    ),
    "benor-split": (
        435, "766f54b1e377f6c9f9fac9df19b30c43d8be997443d75646cd103594dc1ea4ae",
    ),
    "crash-majority": (
        236, "59cfd6d0dbb1125a9b8b9b060d32e87493169c67d9ed4d00fbe1cbb69ca529c7",
    ),
    "mmr14-dealer": (
        216, "f5feb56232cbd9d4c08ad524275dde93204f084569946097750a0c472d572132",
    ),
    "acs-batch": (
        4148, "2e84b6b56e4a3ceaa9c98d166ca8a695fb466fef74a1f275bad09b897d4404b3",
    ),
    "two-faced-equivocator": (
        8695, "5b769f369dbbc3ad2d84981b4dc538569081d12b8d9301c61b7757f17f79df08",
    ),
    "fuzzer-storm": (
        3393, "e5d15452065284672e034681a1036d0d08dbb0d4758c5524ee4d8fd26afc8e18",
    ),
}


def test_table_covers_every_row():
    assert set(GOLDEN) == set(ROWS)


@pytest.mark.parametrize("row", ROWS)
def test_event_stream_is_unchanged(row):
    result = observed_run(row)
    assert result.meta["obs"]["dropped"] == 0
    assert stream_digest(result.meta["obs_events"]) == GOLDEN[row]


@pytest.mark.parametrize("row", ROWS)
def test_profiling_leaves_the_stream_alone_and_counts_every_step(row):
    result = observed_run(row, profile="on")
    assert stream_digest(result.meta["obs_events"]) == GOLDEN[row]
    spans = result.metrics.histograms
    assert spans["span_sim_step"]["count"] == result.steps
    assert spans["span_sim_deliver"]["count"] == result.steps


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in ROWS:
        count, digest = stream_digest(observed_run(name).meta["obs_events"])
        print(f'    "{name}": (\n        {count}, "{digest}",\n    ),')
    print("}")
