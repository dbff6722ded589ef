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
observer; a MAC is computed over wire bytes, one way
(``Authenticator.tag_bytes`` / ``verify_bytes`` on a frame's body), so
no link layer seals or reorders payload objects on the simulator.  A
compat shim or alias under an old name would bring the second way back
unnoticed, so each must fail to resolve.
"""

import importlib
import importlib.util
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pytest

from repro.cli import main


@pytest.mark.parametrize("module", [
    "repro.sim.trace",
    "repro.sim.metrics",
    "repro.baselines.benor_crash",
    "repro.baselines.rabin",
    "repro.obs.causality",
    "repro.net.secure",
    "repro.net.links",
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
    ("repro.net", "SecureTransport"),
    ("repro.net", "FifoTransport"),
    ("repro.net.auth", "_canonical"),
    ("repro.net.auth", "Authenticator.tag"),
    ("repro.net.auth", "Authenticator.verify"),
    ("repro.net.auth", "Authenticator.require"),
])
def test_removed_names_do_not_resolve(module, name):
    owner = importlib.import_module(module)
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, last), f"{module}.{name} resolves again"
    assert last not in getattr(owner, "__all__", ())


def test_repro_net_holds_only_the_mac_machinery():
    import repro.net

    assert sorted(repro.net.__all__) == [
        "AuthenticationError", "Authenticator", "KeyRing"]
    assert [m.name for m in pkgutil.iter_modules(repro.net.__path__)] == ["auth"]


def test_the_retired_link_packets_are_only_registry_placeholders():
    # FifoPacket and SealedPacket keep their registry ids (and so every
    # golden frame and WAL file) stable; nothing in the library builds one.
    import repro

    src = Path(repro.__file__).parent
    users = sorted(
        path.relative_to(src).as_posix() for path in src.rglob("*.py")
        if re.search(r"\b(FifoPacket|SealedPacket)\b", path.read_text())
    )
    assert users == ["runtime/codec.py"]


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


def test_the_removed_size_batching_mode_is_rejected_not_ignored(tmp_path, capsys):
    path = tmp_path / "size-batching.json"
    path.write_text(json.dumps(
        {"protocol": "bracha", "n": 4, "fabric": "local", "batching": "size:4"}))
    assert main(["run", "--check", str(path)]) == 1
    assert "unknown batching spec 'size:4'" in capsys.readouterr().err
