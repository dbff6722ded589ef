"""CLI tests: ``run --set`` is the one way to spell a run from a shell."""

import json

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.scenario import Scenario, run

FAULTS_7 = 'faults={"5": "two_faced", "6": "silent"}'

#: Every documented invocation of a removed verb, its ``run --set``
#: replacement, the ``Scenario.to_dict()`` the removed verb built
#: (recorded at commit 3fde69c, the last one that had the verbs), and —
#: for simulator runs — that commit's fixed-seed ``(decided values,
#: rounds, messages_sent)``.
PARITY = [
    ("consensus -n 4",
     ["--set", "n=4"], {}, ([1], 2, 520)),
    ("consensus -n 4 --seed 1",
     ["--set", "n=4", "--set", "seed=1"], {"seed": 1}, ([0], 2, 512)),
    ("consensus -n 4 --seed 3",
     ["--set", "seed=3"], {"seed": 3}, ([0], 3, 908)),
    ("consensus -n 7 --faults 5:two_faced 6:silent --seed 3",
     ["--set", "n=7", "--set", FAULTS_7, "--set", "seed=3"],
     {"n": 7, "faults": {"5": "two_faced", "6": "silent"}, "seed": 3},
     ([0], 2, 1841)),
    ("consensus -n 4 --protocol mmr14 --coin dealer",
     ["--set", "protocol=mmr14", "--set", "coin=dealer"],
     {"protocol": "mmr14", "coin": "dealer"}, ([1], 2, 100)),
    ("consensus -n 4 --faults 3:silent --scheduler fifo --seed 2",
     ["--set", 'faults={"3": "silent"}', "--set", "scheduler=fifo",
      "--set", "seed=2"],
     {"faults": {"3": "silent"}, "scheduler": "fifo", "seed": 2},
     ([0], 2, 288)),
    ("consensus -n 4 --proposals 0110 --seed 5",
     ["--set", "proposals=[0,1,1,0]", "--set", "seed=5"],
     {"proposals": [0, 1, 1, 0], "seed": 5}, ([1], 3, 924)),
    ("run-net --n 4 --t 1 --transport tcp",
     ["--set", "fabric=tcp", "--set", "n=4", "--set", "t=1"],
     {"t": 1, "fabric": "tcp"}, None),
    ("run-net -n 7 --protocol acs",
     ["--set", "fabric=local", "--set", "n=7", "--set", "protocol=acs"],
     {"protocol": "acs", "n": 7, "fabric": "local"}, None),
    ("run-net --n 4 --transport tcp --link loss=0.15 --link delay=0.002",
     ["--set", "fabric=tcp", "--set", 'link={"loss": 0.15, "delay": 0.002}'],
     {"link": {"delay": 0.002, "loss": 0.15}, "fabric": "tcp"}, None),
    ("run-net --n 4 --instances 4 --batching flush --transport tcp",
     ["--set", "fabric=tcp", "--set", "instances=4", "--set", "batching=flush"],
     {"fabric": "tcp", "instances": 4, "batching": "flush"}, None),
    ("run-net --n 4 --transport tcp --observe ring",
     ["--set", "fabric=tcp", "--set", "observe=ring"],
     {"fabric": "tcp", "observe": "ring"}, None),
    ("run-net --n 4 --seed 1 --proposals 1 --link loss=0.1 --link delay=0.001",
     ["--set", "fabric=local", "--set", "seed=1", "--set", "proposals=1",
      "--set", 'link={"loss": 0.1, "delay": 0.001}'],
     {"proposals": 1, "link": {"delay": 0.001, "loss": 0.1},
      "fabric": "local", "seed": 1}, None),
]


@pytest.fixture
def built(monkeypatch):
    """The scenarios ``main`` hands to the runner, without running them."""
    scenarios = []

    def capture(scenario, **_kwargs):
        scenarios.append(scenario)
        raise cli.ReproError("captured, not run")

    monkeypatch.setattr(cli, "run_scenario", capture)
    return scenarios


class TestRemovedVerbParity:
    @pytest.mark.parametrize(
        "removed, argv, recorded, sim", PARITY, ids=[row[0] for row in PARITY]
    )
    def test_the_replacement_builds_the_recorded_scenario(
            self, built, removed, argv, recorded, sim):
        assert main(["run", *argv]) == 1  # the capture fixture stops the run
        (scenario,) = built
        assert scenario.to_dict() == recorded
        assert scenario == Scenario.from_dict(recorded)
        if sim is not None:
            result = run(scenario)
            assert (sorted(result.decided_values), result.rounds,
                    result.messages_sent) == sim

    @pytest.mark.parametrize("verb", [
        "consensus", "run-net", "sweep", "attack", "broadcast", "profile",
        "trace",
    ])
    def test_removed_verbs_are_argparse_errors(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_lists_exactly_the_five_verbs(self):
        (verbs,) = [
            action.choices for action in build_parser()._actions
            if action.dest == "command"
        ]
        assert list(verbs) == ["run", "catalog", "dealer", "node", "report"]
        report_flags = [
            option for action in verbs["report"]._actions
            for option in action.option_strings if option not in ("-h", "--help")
        ]
        assert report_flags == ["--limit"]


class TestSetOverrides:
    def test_overrides_apply_to_the_default_scenario(self, capsys):
        assert main(["run", "--set", "n=4", "--set", "seed=1"]) == 0
        out = capsys.readouterr().out
        assert "<inline>" in out and "seed: 1" in out
        assert "decision  : [0]" in out and "rounds" in out

    def test_overrides_apply_to_every_named_scenario(self, built):
        main(["run", "--name", "unanimous-fast-path", "--name", "benor-split",
              "--set", "seed=77", "--check"])
        assert [s.name for s in built] == ["unanimous-fast-path", "benor-split"]
        assert [s.seed for s in built] == [77, 77]

    def test_json_object_value(self, capsys):
        assert main(["run", "--set", 'faults={"3": "silent"}',
                     "--set", "scheduler=fifo", "--set", "seed=2"]) == 0
        assert "3: 'silent'" in capsys.readouterr().out

    def test_colon_carrying_string_value(self, tmp_path, built):
        trace = tmp_path / "t:1.jsonl"
        main(["run", "--set", f"observe=jsonl:{trace}",
              "--set", "recovery=wal:/tmp/x", "--set", "fabric=local"])
        (scenario,) = built
        assert scenario.observe == f"jsonl:{trace}"
        assert scenario.recovery == "wal:/tmp/x"

    def test_value_that_is_not_json_is_the_bare_string(self, built):
        main(["run", "--set", "host=127.0.0.1", "--set", "name=07",
              "--set", "t=null", "--set", "allow_excess_faults=true"])
        (scenario,) = built
        assert (scenario.host, scenario.name) == ("127.0.0.1", "07")
        assert scenario.t is None and scenario.allow_excess_faults is True

    def test_a_later_set_wins(self, built):
        main(["run", "--set", "seed=1", "--set", "seed=2"])
        assert built[0].seed == 2

    def test_unknown_field_is_named(self, capsys):
        assert main(["run", "--set", "fabrics=tcp"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "['fabrics']" in err

    @pytest.mark.parametrize("entry", ["seed", "=7", ""])
    def test_malformed_set_without_field_or_equals(self, capsys, entry):
        assert main(["run", "--set", entry]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad --set") and "FIELD=VALUE" in err

    def test_bad_value_fails_before_anything_runs(self, capsys, built):
        assert main(["run", "--name", "unanimous-fast-path",
                     "--set", "seed=-5"]) == 1
        assert "seed" in capsys.readouterr().err
        assert built == []

    def test_word_for_a_number_is_an_error_line(self, capsys):
        assert main(["run", "--set", "instances=two"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "instances" in err

    def test_scheduler_on_a_runtime_fabric_names_the_link_spec(self, capsys):
        code = main(["run", "--name", "split-brain-scheduler",
                     "--set", "fabric=local"])
        assert code == 1
        assert "'link' / 'partitions'" in capsys.readouterr().err

    def test_bad_scheduler_args_are_an_error_line(self, capsys, built):
        # Used to print a ValueError traceback from inside the run.
        code = main(["run", "--set", "scheduler=partition",
                     "--set", 'scheduler_args={"heal_after": -3}'])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "scheduler_args" in err and "heal_after" in err
        assert built == []

    def test_bad_fault_option_is_an_error_line(self, capsys, built):
        # Used to print a TypeError traceback from inside the run.
        code = main(["run", "--set", "fabric=mp", "--set",
                     'faults={"3": {"kind": "two_faced", "bogus": 1}}'])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "two_faced" in err and "bogus" in err and "group_a" in err
        assert built == []

    def test_fault_budget_is_an_error_line(self, capsys):
        code = main(["run", "--set", 'faults={"2": "silent", "3": "silent"}'])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_netem_run_prints_link_counters(self, capsys):
        code = main([
            "run", "--set", "fabric=local", "--set", "seed=1",
            "--set", "proposals=1",
            "--set", 'link={"loss": 0.1, "delay": 0.001}',
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "netem" in out and "retransmitted" in out
        assert "decision  : [1]" in out

    def test_profile_on_prints_the_one_span_table(self, capsys):
        assert main(["run", "--name", "batched-pipeline",
                     "--set", "profile=on"]) == 0
        out = capsys.readouterr().out
        assert "Hot-path span profile" in out and "total ms" in out
        assert "profile   :" not in out  # the second, hand-rolled renderer


#: One file per way a JSON scenario can carry the wrong *type*; each used
#: to reach a raw TypeError (or be silently accepted).
MALFORMED = [
    ({"n": "4"}, "n"), ({"t": "1"}, "t"), ({"instances": "2"}, "instances"),
    ({"faults": 5}, "faults"), ({"link": 5}, "link"),
    ({"partitions": 5}, "partitions"),
    ({"scheduler_args": 5}, "scheduler_args"),
    ({"instances": 1.5}, "instances"), ({"n": 4.0}, "n"),
    ({"base_port": "x"}, "base_port"), ({"base_port": -1}, "base_port"),
    ({"base_port": 65536}, "base_port"), ({"host": 5}, "host"),
    ({"faults": [5]}, "faults"), ({"faults": {"3": 5}}, "fault spec"),
    ({"partitions": [5]}, "partitions"), ({"proposals": 1.5}, "proposals"),
    ({"batching": 5}, "batching"), ({"observe": 5}, "observe"),
]


class TestMalformedTypes:
    @pytest.mark.parametrize(
        "spec, field", MALFORMED, ids=[json.dumps(s) for s, _ in MALFORMED]
    )
    def test_scenario_file_with_a_wrong_type_is_an_error_line(
            self, tmp_path, capsys, spec, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        assert main(["run", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.json" in err
        assert field in err


class TestRunSubcommand:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_the_package_metadata_and_the_package_agree_on_the_version(self):
        # pyproject.toml once said 1.1.0 while `repro --version` said
        # 1.0.0; it now reads the number from `repro.__version__`.
        import importlib.metadata
        import pathlib
        import warnings

        from setuptools.config.pyprojecttoml import read_configuration

        import repro

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # pyproject support is "beta"
            project = read_configuration(
                pathlib.Path(__file__).parents[2] / "pyproject.toml"
            )["project"]
        assert project["version"] == repro.__version__
        try:
            installed = importlib.metadata.version("repro-bracha")
        except importlib.metadata.PackageNotFoundError:
            return  # run from a checkout (PYTHONPATH=src), nothing installed
        assert installed == repro.__version__

    def test_run_by_catalog_name(self, capsys):
        assert main(["run", "--name", "unanimous-fast-path"]) == 0
        out = capsys.readouterr().out
        assert "unanimous-fast-path" in out
        assert "decision" in out

    def test_run_check_mode(self, capsys):
        assert main(["run", "--name", "benor-split", "--check"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_mode_echoes_the_effective_fabric_and_seed(self, capsys):
        code = main([
            "run", "--name", "unanimous-fast-path", "--set", "fabric=local",
            "--set", "seed=77", "--check",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[local]" in out and "seed=77" in out

    def test_run_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": "file-scenario", "protocol": "bracha",
            "n": 4, "proposals": 1, "seed": 3,
        }))
        assert main(["run", str(path)]) == 0
        assert "file-scenario" in capsys.readouterr().out

    def test_run_example_scenarios_end_to_end(self, capsys):
        import glob
        import pathlib

        files = sorted(glob.glob(
            str(pathlib.Path(__file__).parents[2] / "examples/scenarios/*.json")
        ))
        assert files, "examples/scenarios must ship at least one scenario"
        assert main(["run", "--check", *files]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == len(files)

    def test_run_nothing_given(self, capsys):
        assert main(["run"]) == 1
        assert "no scenario given" in capsys.readouterr().err

    def test_run_unknown_name_fails_cleanly(self, capsys):
        assert main(["run", "--name", "no-such-scenario"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_malformed_file_reports_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "bad.json" in err

    def test_unknown_field_reports_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"protocl": "bracha"}))
        assert main(["run", str(bad)]) == 1
        assert "protocl" in capsys.readouterr().err

    def test_check_mode_surfaces_failures(self, tmp_path, capsys):
        doomed = tmp_path / "doomed.json"
        doomed.write_text(json.dumps({
            "name": "doomed", "n": 4, "max_steps": 5,
        }))
        assert main(["run", str(doomed), "--check"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestDealerSubcommand:
    def test_set_places_the_bundle_addresses(self, tmp_path, capsys):
        code = main(["dealer", "--name", "mp-smoke", "--out", str(tmp_path),
                     "--set", "base_port=7000", "--set", "host=127.0.0.2",
                     "--set", "seed=5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed: 5" in out and "(127.0.0.2:7003)" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenario"]["fabric"] == "mp"
        assert manifest["scenario"]["base_port"] == 7000

    def test_dealer_without_a_port_or_with_two_scenarios(self, tmp_path, capsys):
        assert main(["dealer", "--name", "mp-smoke",
                     "--out", str(tmp_path)]) == 1
        assert "base_port" in capsys.readouterr().err
        assert main(["dealer", "--name", "mp-smoke", "--name", "mp-crash",
                     "--out", str(tmp_path)]) == 1
        assert "one scenario" in capsys.readouterr().err


class TestNodeSubcommand:
    def test_wal_and_recover_together_are_an_error_line(self, capsys):
        # Refused before either file is opened, on the one `repro node`
        # parser the mp fork server's children also go through.
        assert main(["node", "--manifest", "m.json", "--bundle", "b.json",
                     "--wal", "A", "--recover", "B"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "mutually exclusive" in err


class TestTraceFileSubcommands:
    @pytest.fixture
    def trace_file(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["run", "--set", "seed=1",
                     "--set", f"observe=jsonl:{path}"]) == 0
        assert f"975 events (jsonl: {path})" in capsys.readouterr().out
        return path

    def test_report_renders_the_jsonl_a_run_wrote(self, trace_file, capsys):
        assert main(["report", str(trace_file), "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "Event totals (975 events)" in out
        assert "Per-instance decision latency" in out
        assert "Per-round timing" in out

    def test_report_correlates_the_jsonl_a_run_wrote(self, trace_file, capsys):
        assert main(["report", str(trace_file), "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "correlation: 512 stamped sends, 455 matched delivers" in out
        assert "Per-decision critical paths" in out

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_a_limit_below_one_is_an_error_line(
            self, trace_file, capsys, limit):
        assert main(["report", str(trace_file), "--limit", limit]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "limit" in captured.err
        assert captured.out == ""

    def test_the_removed_rounds_flag_is_an_argparse_error(self, trace_file):
        with pytest.raises(SystemExit) as exc:
            main(["report", str(trace_file), "--rounds", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("records", [
        [{"t": 0.0, "kind": "send", "node": 0, "inst": ["a"]}],
        [{"t": 0.0, "kind": "decide", "node": 0, "inst": 3, "detail": 1},
         {"t": 1.0, "kind": "decide", "node": 1, "inst": "a", "detail": 1}],
    ], ids=["list", "int-beside-str"])
    def test_a_non_string_instance_is_an_error_line(
            self, tmp_path, capsys, records):
        path = tmp_path / "inst.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: ") and "'inst'" in err

    def test_a_missing_trace_file_is_an_error_line(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestCatalogSubcommand:
    def test_catalog_table(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "unanimous-fast-path" in out and "tcp-loopback" in out

    def test_catalog_names_script_friendly(self, capsys):
        from repro.scenario import CATALOG

        assert main(["catalog", "--names"]) == 0
        names = capsys.readouterr().out.split()
        assert names == list(CATALOG)
