"""Removed surface stays removed.

Each name below was a second way to do something the library now does
one way: the Observer is the one event log and ``NodeReport`` the one
counter readout; a scheduler names a delivery by its rank, so
``PendingSet`` answers rank questions only, and a delivery pops that
rank inside ``Simulation.run``, the one delivery loop, which also
hands it to its process (no network-level deliver) and, with no
predicate, drains the set (no ``run_to_quiescence``); a behavior is
registered in its pid's place, never swapped in; Ben-Or's crash
variant is a ``BinaryAgreement`` subclass in ``baselines/benor.py`` and
Rabin is ``coin="dealer"``; a fault spec reaches a behavior through
``dispatch_behavior`` only; ``repro.obs.report`` is the one trace
reader; ``repro run`` plus a ``Scenario`` is the one spelling of a run,
parsed by one parser; the binary codec is the one value format, on the
wire and in the WAL; an observed message is described once, when its
record is read, so no classification is handed between fabric and
observer.  A compat shim or alias under an old name would
bring the second way back unnoticed, so each must fail to resolve.
"""

import importlib
import importlib.util
import inspect
import json

import pytest

from repro.cli import main


@pytest.mark.parametrize("module", [
    "repro.sim.trace",
    "repro.sim.metrics",
    "repro.baselines.benor_crash",
    "repro.baselines.rabin",
    "repro.obs.causality",
])
def test_removed_modules_do_not_resolve(module):
    assert importlib.util.find_spec(module) is None


@pytest.mark.parametrize("module, name", [
    ("repro.sim.events", "PendingSet.filter"),
    ("repro.sim.events", "PendingSet.peek_oldest"),
    ("repro.sim.events", "PendingSet.snapshot"),
    ("repro.sim.events", "PendingSet.remove"),
    ("repro.sim.runner", "Simulation._step"),
    ("repro.sim.network", "Network.deliver"),
    ("repro.sim.network", "Network.replace"),
    ("repro.sim.network", "Network.n"),
    ("repro.sim.runner", "Simulation.run_to_quiescence"),
    ("repro.adversary", "make_behavior"),
    ("repro.adversary.behaviors", "make_behavior"),
    ("repro", "run_cluster_sync"),
    ("repro.mp.noderunner", "main"),
    ("repro.runtime.codec", "encode"),
    ("repro.runtime.codec", "decode"),
    ("repro.runtime.codec", "_MARKERS"),
    ("repro.runtime", "encode"),
    ("repro.runtime", "decode"),
    ("repro.recovery.wal", "_codec"),
])
def test_removed_names_do_not_resolve(module, name):
    owner = importlib.import_module(module)
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, last), f"{module}.{name} resolves again"
    assert last not in getattr(owner, "__all__", ())


def test_removed_classification_plumbing_stays_removed():
    from repro.obs import Observer
    from repro.params import ProtocolParams
    from repro.runtime.node import NodeNetwork
    from repro.sim.runner import Simulation

    assert "classified" not in inspect.signature(Observer.message).parameters
    assert not hasattr(NodeNetwork(0, ProtocolParams(4, 1)), "own_sends")
    assert not hasattr(Simulation(seed=1).network, "stamper")


@pytest.mark.parametrize("verb", [
    "consensus", "run-net", "sweep", "attack", "broadcast", "profile", "trace",
])
def test_removed_cli_verbs_are_argparse_errors(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb])
    assert exc.value.code == 2


def test_the_removed_json_wire_format_is_rejected_not_ignored(tmp_path, capsys):
    # "Accepted and silently run as binary" is the regression.
    path = tmp_path / "json-codec.json"
    path.write_text(json.dumps(
        {"protocol": "bracha", "n": 4, "fabric": "tcp", "codec": "json"}))
    assert main(["run", "--check", str(path)]) == 1
    assert "JSON wire format was removed" in capsys.readouterr().err
