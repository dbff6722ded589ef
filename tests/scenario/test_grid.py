"""ScenarioGrid: declarative sweep expansion and execution."""

import pytest

from repro.errors import ConfigError, EventBudgetExceeded
from repro.scenario import Scenario, ScenarioGrid, get_scenario
from repro.scenario.grid import METRICS


class TestExpansion:
    def test_cartesian_product(self):
        grid = ScenarioGrid(Scenario(), trials=1)
        grid.add("n", [4, 7]).add("coin", ["local", "dealer"])
        cells = list(grid.scenarios())
        assert len(cells) == 4
        configs = [dict(config) for config, _s in cells]
        assert {"n": 7, "coin": "dealer"} in configs

    def test_expansion_yields_validated_scenarios(self):
        grid = ScenarioGrid(Scenario(), trials=1)
        grid.add("coin", ["dealer"])
        (_config, scenario), = grid.scenarios()
        assert isinstance(scenario, Scenario)
        assert scenario.coin == "dealer"

    def test_rejects_non_scenario_fields(self):
        with pytest.raises(ConfigError):
            ScenarioGrid(Scenario(), trials=1).add("stack", [None])

    def test_rejects_duplicates_and_empty(self):
        grid = ScenarioGrid(Scenario(), trials=1).add("n", [4])
        with pytest.raises(ConfigError):
            grid.add("n", [7])
        with pytest.raises(ConfigError):
            grid.add("coin", [])

    def test_requires_dimensions(self):
        with pytest.raises(ConfigError):
            ScenarioGrid(Scenario(), trials=1).run()

    def test_requires_trials(self):
        with pytest.raises(ConfigError):
            ScenarioGrid(Scenario(), trials=0)

    def test_invalid_cell_fails_at_expansion(self):
        grid = ScenarioGrid(Scenario(faults={3: "silent"}), trials=1)
        grid.add("n", [4, 2])  # n=2 cannot host pid-3 faults
        with pytest.raises(ConfigError):
            list(grid.scenarios())

    def test_mapping_base_validated_per_cell(self):
        """A mapping base may be invalid standalone (pid-4 faults need
        n > 4) as long as every cell is valid once the swept values land."""
        grid = ScenarioGrid({"faults": {4: "silent"}}, trials=1)
        grid.add("n", [7, 10])
        cells = list(grid.scenarios())
        assert [s.n for _c, s in cells] == [7, 10]
        assert all(s.faults_dict() == {4: "silent"} for _c, s in cells)

    def test_mapping_base_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            ScenarioGrid({"stack": None}, trials=1)


class TestExecution:
    def test_grid_runs_and_aggregates(self):
        grid = ScenarioGrid(Scenario(), trials=2, seed=5)
        grid.add("coin", ["local", "dealer"])
        result = grid.run()
        assert result.dimensions == ("coin",)
        assert len(result.cells) == 2
        assert all(len(c.results) == 2 for c in result.cells)
        assert all(c.violations() == 0 for c in result.cells)
        assert "mean" in result.table(metric="messages")

    def test_grid_can_sweep_the_fabric(self):
        """The same cell config measured on the simulator and on the
        asyncio runtime."""
        grid = ScenarioGrid(Scenario(proposals=1), trials=1, seed=3)
        grid.add("fabric", ["sim", "local"])
        result = grid.run()
        values = {
            dict(c.config)["fabric"]: c.results[0].decided_values
            for c in result.cells
        }
        assert values == {"sim": {1}, "local": {1}}

    def test_catalog_entry_as_base(self):
        grid = ScenarioGrid(get_scenario("benor-split"), trials=1, seed=7)
        grid.add("coin", ["local", "dealer"])
        result = grid.run()
        assert [dict(c.config)["coin"] for c in result.cells] == ["local", "dealer"]
        assert all(c.violations() == 0 for c in result.cells)

    def test_failures_tolerated_and_counted(self):
        grid = ScenarioGrid(
            Scenario(max_steps=5), trials=2, seed=1, tolerate_failures=True
        )
        grid.add("n", [4])
        cell = grid.run().cell(n=4)
        assert cell.failures == 2 and cell.results == ()

    def test_seed_stability_under_new_dimensions(self):
        narrow = ScenarioGrid(Scenario(), trials=2, seed=9).add("n", [4]).run()
        wide = ScenarioGrid(Scenario(), trials=2, seed=9).add("n", [4, 7]).run()
        assert (narrow.cell(n=4).metric("steps").mean
                == wide.cell(n=4).metric("steps").mean)


class TestAggregation:
    """Cells, summaries, lookups and tables over one executed grid."""

    @pytest.fixture(scope="class")
    def result(self):
        grid = ScenarioGrid(Scenario(), trials=3, seed=5)
        grid.add("n", [4, 7]).add("coin", ["local", "dealer"])
        return grid.run()

    def test_full_grid(self, result):
        assert len(result.cells) == 4
        assert all(len(c.results) == 3 for c in result.cells)
        assert result.dimensions == ("n", "coin")

    def test_metric_summaries(self, result):
        cell = result.cell(n=4, coin="local")
        assert cell.metric("rounds").mean >= 1.0
        assert cell.metric("messages").mean > 0

    def test_unknown_metric_rejected(self, result):
        with pytest.raises(ConfigError):
            result.cells[0].metric("latency_in_fortnights")

    def test_metrics_registry_complete(self):
        for name in ("rounds", "messages", "steps", "coin_flips"):
            assert name in METRICS

    def test_cell_lookup(self, result):
        assert result.cell(n=7, coin="dealer").label == {"n": 7, "coin": "dealer"}
        with pytest.raises(ConfigError):
            result.cell(n=99)

    def test_best_cell(self, result):
        assert result.best("messages").label["n"] == 4  # smaller systems send less

    def test_table_renders(self, result):
        text = result.table(metric="rounds")
        assert "rounds mean" in text
        assert text.count("\n") >= 5


class TestFailures:
    def test_failures_raise_by_default(self):
        grid = ScenarioGrid(Scenario(max_steps=5), trials=1, seed=1).add("n", [4])
        with pytest.raises(EventBudgetExceeded):
            grid.run()

    def test_table_with_empty_cell(self):
        grid = ScenarioGrid(
            Scenario(max_steps=5), trials=1, seed=1, tolerate_failures=True
        ).add("n", [4])
        assert "-" in grid.run().table()
