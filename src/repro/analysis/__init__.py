"""Experiment support: the broadcast experiment, aggregation, tables.

Consensus experiments are declared as :class:`~repro.scenario.Scenario`
values and executed (and safety-checked) by :func:`repro.scenario.run`;
what lives here is the bare reliable-broadcast experiment
(:mod:`repro.analysis.experiments`) plus the statistics and table
helpers the benchmarks format their results with.
"""

from .._lazy import lazy_exports
from .stats import Summary, fit_power_law, summarize
from .tables import format_table

# The broadcast experiment builds a simulator: first use loads it.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".experiments": ("broadcast_stack", "run_broadcast"),
})

__all__ = [
    "Summary",
    "broadcast_stack",
    "fit_power_law",
    "format_table",
    "run_broadcast",
    "summarize",
]
