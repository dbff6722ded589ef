"""What an import loads, and that the lazily exported names still work.

A simulator process imports the simulator: the package inits resolve
the runtime, the trace reader, the sweep grid, the Ben-Or attack, the
netem clocks and frames, the sim restart fault and the catalog on first
access (PEP 562), and a run imports the other protocol engines and the
adversary when its scenario names them.  Every check runs in a fresh
interpreter, because this one has long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ENV = {**os.environ,
       "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}

#: Modules no simulator process executes.
NOT_IN_A_SIM_PROCESS = (
    "asyncio",
    "repro.runtime",
    "repro.recovery.wal",
    "repro.mp",
    "repro.netem.clock",
    "repro.netem.reliable",
    "repro.obs.report",
    "repro.analysis.experiments",
    "repro.scenario.grid",
    "repro.adversary.benor_attack",
)

#: ... nor a Bracha simulator run without faults: each of these loads
#: when a scenario names its protocol, fault or scheduler, or when the
#: catalog is read.
NOT_ON_THE_SIM_PATH = NOT_IN_A_SIM_PROCESS + (
    "repro.adversary",
    "repro.adversary.behaviors",
    "repro.adversary.strategies",
    "repro.app",
    "repro.app.acs",
    "repro.app.multivalue",
    "repro.app.replicated_log",
    "repro.baselines",
    "repro.baselines.benor",
    "repro.baselines.bv_broadcast",
    "repro.baselines.mmr14",
    "repro.recovery.restart",
    "repro.scenario.catalog",
    "repro.netem.frames",
)

#: The packages whose inits export names lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.obs",
    "repro.scenario",
    "repro.adversary",
    "repro.netem",
    "repro.recovery",
    "repro.runtime",
)


def _fresh(script, *args):
    """Run ``script`` in a fresh interpreter; its last stdout line as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=ENV,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_SIM_RUN = """
import json, sys
import repro.scenario as s

for fabric in s.FABRICS:
    s.Scenario(n=4, fabric=fabric)
result = s.run(s.Scenario(fabric="sim", n=7, instances=8, batching="flush",
                          observe="ring", profile="on"))
assert len(result.decisions) == 7, result.decisions
print(json.dumps([name for name in json.loads(sys.argv[1])
                  if name in sys.modules]))
"""

_CLI_CATALOG = """
import contextlib, io, json, sys
import repro.cli

with contextlib.redirect_stdout(io.StringIO()) as out:
    assert repro.cli.main(["catalog", "--names"]) == 0
assert "mp-smoke" in out.getvalue().split()
print(json.dumps([name for name in json.loads(sys.argv[1])
                  if name in sys.modules]))
"""


@pytest.mark.parametrize("script, unused", [
    (_SIM_RUN, NOT_ON_THE_SIM_PATH),
    # The catalog's scenarios name faults and attack schedulers.
    (_CLI_CATALOG, NOT_IN_A_SIM_PROCESS),
], ids=["scenario-sim-run", "cli-catalog"])
def test_a_sim_process_imports_only_the_simulator(script, unused):
    loaded = _fresh(script, json.dumps(unused))
    assert loaded == []


_AFTER_THE_COLD_IMPORT = """
import json, sys
import repro.scenario as s

cold = set(sys.modules)
spec = dict(fabric="sim", n=7, instances=8, batching="flush")
s.run(s.Scenario(**spec, seed=1))
s.run(s.Scenario(**spec, observe="ring", profile="on", seed=2))
print(json.dumps(sorted(name for name in set(sys.modules) - cold
                        if name.split(".")[0] == "repro")))
"""


def test_a_bracha_sim_run_imports_nothing_the_cold_import_did_not():
    """The deferred modules are removed from a Bracha run, not moved
    into it: after ``import repro.scenario`` a plain and an observed
    sim-bracha-n7x8 run import no ``repro`` module."""
    assert _fresh(_AFTER_THE_COLD_IMPORT) == []


_WAL_FIRST = """
import json, sys
import repro.recovery.wal

print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("repro.runtime"))))
"""


def test_the_wal_imports_the_value_format_and_not_the_fabrics():
    """The fabrics import the WAL and the WAL imports the codec it
    writes, never the other way round: a cold ``import
    repro.recovery.wal`` loads no transport, node or cluster."""
    assert _fresh(_WAL_FIRST) == [
        "repro.runtime", "repro.runtime.binarycodec", "repro.runtime.codec"]


_LAZY_PATH = """
import json, sys
import repro.scenario as s

cold = set(sys.modules)
exec(sys.argv[1])
print(json.dumps(sorted(set(sys.modules) - cold)))
"""

_RESTART = {0: {"kind": "restart", "after": 4, "down": 2}}


@pytest.mark.parametrize("action, module", [
    ("s.run(s.Scenario(protocol='benor', n=4, proposals=1))",
     "repro.baselines.benor"),
    ("s.run(s.Scenario(protocol='benor-crash', n=5, t=2, proposals=1))",
     "repro.baselines.benor"),
    ("s.run(s.Scenario(protocol='mmr14', n=4, proposals=1))",
     "repro.baselines.mmr14"),
    ("s.run(s.Scenario(protocol='acs', n=4, seed=3))", "repro.app.acs"),
    ("s.run(s.Scenario(n=4, proposals=1, faults={3: 'two_faced'}))",
     "repro.adversary.behaviors"),
    ("s.run(s.Scenario(n=4, proposals=1, scheduler='split'))",
     "repro.adversary.strategies"),
    ("s.run(s.Scenario(n=4, proposals=1, scheduler='victim'))",
     "repro.adversary.strategies"),
    (f"s.run(s.Scenario(n=4, proposals=1, faults={_RESTART!r}))",
     "repro.recovery.restart"),
    ("assert s.get_scenario('partition-heal').name == 'partition-heal'",
     "repro.scenario.catalog"),
    ("from repro import CATALOG; assert 'partition-heal' in CATALOG",
     "repro.scenario.catalog"),
], ids=["benor", "benor-crash", "mmr14", "acs", "two_faced", "split",
        "victim", "restart", "get_scenario", "CATALOG"])
def test_a_deferred_module_loads_when_a_scenario_names_it(action, module):
    assert module in _fresh(_LAZY_PATH, action)


_PUBLIC_NAMES = """
import importlib, json, sys

package = sys.argv[1]
module = importlib.import_module(package)
#: Values without a ``__module__`` of their own: where each is defined.
constants = json.loads(sys.argv[2])
problems = []
for name in module.__all__:
    value = getattr(module, name)
    scope = {}
    exec(f"from {package} import {name} as imported", scope)
    if scope["imported"] is not value:
        problems.append(f"{name}: from-import differs from attribute access")
    if name not in dir(module):
        problems.append(f"{name}: missing from dir()")
    owner = getattr(value, "__module__", None)
    if name in constants or not isinstance(owner, str):
        home, attribute = constants.get(name, "?"), name
    else:
        home, attribute = owner, value.__name__
    defining = importlib.import_module(home) if home != "?" else None
    if defining is None or getattr(defining, attribute, None) is not value:
        problems.append(f"{name}: not the object {home}.{attribute}")
try:
    getattr(module, "no_such_name")
except AttributeError as exc:
    if "no_such_name" not in str(exc):
        problems.append(f"unknown name error does not name it: {exc}")
else:
    problems.append("unknown name resolved")
print(json.dumps(problems))
"""

#: Exported values that are not classes or functions, by defining module.
CONSTANTS = {
    "__version__": "repro",
    "CATALOG": "repro.scenario.catalog",
    "METRICS": "repro.scenario.grid",
    "BATCHING_MODES": "repro.sim.effects",
    "COINS": "repro.scenario.spec",
    "FABRICS": "repro.scenario.spec",
    "SCHEDULERS": "repro.scenario.spec",
    "STOPS": "repro.scenario.spec",
    "OBSERVE_MODES": "repro.obs.observer",
    "PROFILE_MODES": "repro.obs.profile",
    "RECOVERY_MODES": "repro.recovery",
    "WAL_VERSION": "repro.recovery.wal",
}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_still_resolves(package):
    """By attribute and by from-import, listed by dir(), the defining
    module's object; and an unknown name's AttributeError names it."""
    assert _fresh(_PUBLIC_NAMES, package, json.dumps(CONSTANTS)) == []


_WIRE_TABLES = """
import importlib, json, pkgutil, sys

if sys.argv[1] == "everything":
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            module = importlib.import_module(info.name)
            for name in getattr(module, "__all__", ()):
                getattr(module, name)
from repro.runtime import binarycodec

pack_table, messages, enums = binarycodec.registry_tables()


def qualified(cls):
    return f"{cls.__module__}.{cls.__qualname__}"


print(json.dumps({
    "messages": [[qualified(cls), list(fields)] for cls, fields in messages],
    "enums": [[qualified(cls), sorted(name.decode() for name in members)]
              for cls, members in enums],
    "prefixes": sorted([qualified(cls), entry[0].hex()]
                       for cls, entry in pack_table.items()
                       if entry[1] is not None),
}))
"""


def test_import_order_cannot_change_the_wire():
    """Two mp peers derive the same message and enum ids whatever each
    happened to import (lazily or not) before its first frame."""
    only_the_codec = _fresh(_WIRE_TABLES, "codec")
    after_everything = _fresh(_WIRE_TABLES, "everything")
    assert only_the_codec == after_everything
    assert len(only_the_codec["messages"]) > 10
