"""Experiment support: the broadcast experiment, aggregation, tables.

Consensus experiments are declared as :class:`~repro.scenario.Scenario`
values and executed (and safety-checked) by :func:`repro.scenario.run`;
what lives here is the bare reliable-broadcast experiment
(:mod:`repro.analysis.experiments`) plus the statistics and table
helpers the benchmarks format their results with.
"""

from .experiments import broadcast_stack, run_broadcast
from .stats import Summary, fit_power_law, summarize
from .tables import format_table

__all__ = [
    "Summary",
    "broadcast_stack",
    "fit_power_law",
    "format_table",
    "run_broadcast",
    "summarize",
]
