"""The scenario catalog: shape, round-tripping, and freshness."""

import os
import subprocess
import sys

import pytest

import repro
from repro.scenario import CATALOG, Scenario, catalog_names, get_scenario, run
from repro.errors import ConfigError
from repro.stacks import PROTOCOLS

ISSUE_SCENARIOS = [
    "unanimous-fast-path", "two-faced-equivocator", "split-brain-scheduler",
    "acs-batch", "crash-majority", "fuzzer-storm", "tcp-loopback",
    "multi-instance-pipeline", "victim-delay-liveness",
]


class TestShape:
    def test_at_least_ten_entries(self):
        assert len(CATALOG) >= 10

    def test_curated_scenarios_present(self):
        for name in ISSUE_SCENARIOS:
            assert name in CATALOG

    def test_names_match_keys(self):
        for name, scenario in CATALOG.items():
            assert scenario.name == name
            assert scenario.description

    def test_every_protocol_has_a_fabric_agnostic_entry(self):
        """One entry per protocol must be runnable on every fabric (no
        sim-only scheduler, no quiescent stop)."""
        portable = {
            s.protocol for s in CATALOG.values()
            if s.scheduler == "random" and s.stop != "quiescent"
        }
        assert portable == set(PROTOCOLS)

    def test_lookup(self):
        assert get_scenario("acs-batch").protocol == "acs"
        assert catalog_names() == list(CATALOG)

    def test_import_does_not_depend_on_the_working_directory(self, tmp_path):
        """The catalog is built at import time; an entry that names a
        relative path (partition-heal's trace under benchmarks/out/)
        must not make ``import repro`` fail where that path is absent."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import repro, repro.scenario as s; print(*s.catalog_names())"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == catalog_names()
        with pytest.raises(ConfigError):
            get_scenario("nope")


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_dict_round_trip(self, name):
        scenario = CATALOG[name]
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_json_round_trip(self, name):
        scenario = CATALOG[name]
        assert Scenario.from_json(scenario.to_json()) == scenario


class TestExecution:
    """Cheap sim-fabric smoke of the adversarial entries; the per-protocol
    fabric matrix lives in test_runner.py and the full catalog (including
    the runtime-fabric entries) is executed by the CI workflow."""

    @pytest.mark.parametrize("name", [
        "split-brain-scheduler", "victim-delay-liveness", "fuzzer-storm",
    ])
    def test_adversarial_entries_decide(self, name):
        result = run(get_scenario(name))
        assert result.violations == []
        assert result.decided_values and len(result.decided_values) == 1
