"""``repro report`` prints every table the two former trace readers did.

The goldens under ``data/`` are the output of the last commit that had
both readers, on the fixed-seed simulator run below (deterministic in
virtual time): ``repro report FILE --rounds 40`` and ``repro trace FILE
--limit 40``.  The one reader must print the trace header and
correlation lines, then every section of both verbatim; the only block
allowed to go is the report's summary of the critical-path table, which
is now printed in full.
"""

from pathlib import Path

import pytest

import repro.obs.report as report
from repro.cli import main
from repro.obs import load_events
from repro.scenario import Scenario, run

DATA = Path(__file__).parent / "data"
SUMMARY = "critical paths (from causal message ids):"


def _sections(text):
    return text.rstrip("\n").split("\n\n")


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("parity") / "trace.jsonl"
    run(Scenario(n=4, seed=1, instances=2, observe=f"jsonl:{path}"))
    return path


def test_report_prints_every_section_of_both_former_readers(
    trace_path, capsys
):
    old_report = _sections((DATA / "old-report-rounds40.txt").read_text())
    old_trace = _sections((DATA / "old-trace-limit40.txt").read_text())
    assert [s for s in old_report if s.startswith(SUMMARY)], "old report lacks its summary"
    header, paths, phases, queue = old_trace
    totals, latency, rounds = [
        s for s in old_report[1:] if not s.startswith(SUMMARY)
    ]
    assert header.startswith(old_report[0] + "\ncorrelation: ")

    assert main(["report", str(trace_path), "--limit", "40"]) == 0
    assert _sections(capsys.readouterr().out) == [
        header, totals, latency, rounds, phases, paths, queue,
    ]


def test_one_report_builds_one_dag(trace_path, monkeypatch):
    built = []

    class CountingDag(report.CausalDag):
        def __init__(self, events):
            built.append(self)
            super().__init__(events)

    monkeypatch.setattr(report, "CausalDag", CountingDag)
    text = report.render_report(load_events(str(trace_path)))
    assert "Queue vs processing split" in text
    assert len(built) == 1
