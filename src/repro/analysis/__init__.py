"""Experiment harness: seeded runs, safety checking, aggregation, tables.

:mod:`repro.analysis.experiments` is the single entry point used by the
test suite, the benchmarks, and the examples: it assembles a full system
(simulator, network, processes, coin scheme, fault injection), runs it,
and *checks the paper's safety properties* on the way out — agreement,
validity, and integrity are asserted by the harness rather than trusted,
so a regression in any protocol layer fails loudly everywhere.
"""

from .experiments import (
    ConsensusRun,
    broadcast_stack,
    build_consensus_stack,
    run_broadcast,
    run_consensus,
    repeat_consensus,
)
from .stats import Summary, fit_power_law, summarize
from .tables import format_table

__all__ = [
    "ConsensusRun",
    "Summary",
    "broadcast_stack",
    "build_consensus_stack",
    "fit_power_law",
    "format_table",
    "repeat_consensus",
    "run_broadcast",
    "run_consensus",
    "summarize",
]
