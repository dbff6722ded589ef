"""Declarative scenarios: one spec, every fabric.

This package is the repository's single front door for defining and
executing protocol experiments:

* :class:`Scenario` — a frozen, validated, JSON-round-trippable value
  object capturing protocol, system size, proposals, coin, faults,
  network conditions, fabric, batching, seed, and stop condition
  (:mod:`repro.scenario.spec`);
* :func:`run` — the fabric dispatcher: the same scenario executes on
  the discrete-event simulator (``sim``), the asyncio runtime over
  in-process queues (``local``), or authenticated TCP (``tcp``), all
  through identical stacks and safety verifiers
  (:mod:`repro.scenario.runner`); :func:`assemble` is the same ``sim``
  run before it starts — a :class:`SimRun` handle for callers that step
  the simulator themselves or pass a live coin / scheduler object;
* :data:`CATALOG` — named, curated scenarios runnable by name from the
  CLI and executed wholesale in CI (:mod:`repro.scenario.catalog`);
* :class:`ScenarioGrid` — sweep expansion over scenario fields
  (:mod:`repro.scenario.grid`).

Quickstart::

    from repro.scenario import get_scenario, run

    result = run(get_scenario("two-faced-equivocator"))
    print(result.decided_values)            # a singleton, or run() raises
"""

from .._lazy import lazy_exports
from .spec import (
    BATCHING_MODES,
    COINS,
    FABRICS,
    SCHEDULERS,
    STOPS,
    Scenario,
    load_scenario,
    make_scheduler,
)
from .catalog import CATALOG, catalog_names, get_scenario
from .runner import SimRun, assemble, repeat, run

# The sweep grid (and the statistics it aggregates with) loads on first use.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".grid": ("Cell", "METRICS", "ScenarioGrid", "SweepResult"),
})

__all__ = [
    "BATCHING_MODES",
    "CATALOG",
    "COINS",
    "Cell",
    "FABRICS",
    "METRICS",
    "SCHEDULERS",
    "STOPS",
    "Scenario",
    "ScenarioGrid",
    "SimRun",
    "SweepResult",
    "assemble",
    "catalog_names",
    "get_scenario",
    "load_scenario",
    "make_scheduler",
    "repeat",
    "run",
]
