"""CLI smoke and argument-handling tests."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigError
from repro.scenario import parse_faults, parse_link, parse_proposals


class TestParsing:
    def test_fault_specs(self):
        assert parse_faults(["3:silent", "2:two_faced"]) == {
            3: "silent", 2: "two_faced",
        }

    def test_fault_specs_empty(self):
        assert parse_faults(None) == {}

    def test_bad_fault_spec(self):
        with pytest.raises(ConfigError):
            parse_faults(["nope"])
        with pytest.raises(ConfigError):
            parse_faults(["x:silent"])

    def test_proposal_scalar(self):
        assert parse_proposals("1", 4) == 1

    def test_proposal_bits(self):
        assert parse_proposals("0110", 4) == [0, 1, 1, 0]

    def test_proposal_wrong_length(self):
        with pytest.raises(ConfigError):
            parse_proposals("01", 4)

    def test_proposal_default(self):
        assert parse_proposals(None, 4) is None

    def test_link_specs(self):
        assert parse_link(["loss=0.1", "max_retries=9", "retransmit=true"]) == {
            "loss": 0.1, "max_retries": 9, "retransmit": True,
        }

    def test_link_specs_empty(self):
        assert parse_link(None) == {}

    def test_bad_link_spec(self):
        with pytest.raises(ConfigError):
            parse_link(["loss"])  # no '='
        with pytest.raises(ConfigError):
            parse_link(["loss=lots"])  # not a number

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestCommands:
    def test_consensus_run(self, capsys):
        assert main(["consensus", "-n", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "decision" in out and "rounds" in out

    def test_consensus_with_faults_and_scheduler(self, capsys):
        code = main([
            "consensus", "-n", "4", "--faults", "3:silent",
            "--scheduler", "fifo", "--seed", "2",
        ])
        assert code == 0
        assert "3: 'silent'" in capsys.readouterr().out

    def test_consensus_mmr(self, capsys):
        assert main(["consensus", "--protocol", "mmr14", "--seed", "1"]) == 0

    def test_broadcast(self, capsys):
        assert main(["broadcast", "-n", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "accepted" in out

    def test_broadcast_equivocate(self, capsys):
        assert main(["broadcast", "-n", "4", "--equivocate", "--seed", "1"]) == 0

    def test_attack(self, capsys):
        assert main(["attack", "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "agreement violations" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "-n", "4", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "decision round" in out

    def test_run_net_with_link_conditions(self, capsys):
        code = main([
            "run-net", "--n", "4", "--seed", "1", "--proposals", "1",
            "--link", "loss=0.1", "--link", "delay=0.001",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "netem" in out and "retransmitted" in out
        assert "decision  : [1]" in out

    def test_run_net_scheduler_error_names_link_spec(self, capsys):
        code = main(["run", "--name", "split-brain-scheduler",
                     "--fabric", "local"])
        assert code == 1
        assert "'link' / 'partitions'" in capsys.readouterr().err

    def test_config_error_is_reported_not_raised(self, capsys):
        code = main([
            "consensus", "-n", "4",
            "--faults", "2:silent", "3:silent",  # exceeds t=1
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["broadcast", "-n", "4", "--sender", "9"], "[9] are outside 0..3"),
        (["sweep", "-n", "4", "--trials", "0"], "at least one trial"),
    ])
    def test_bad_pid_or_trial_count_is_an_error_line(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestRunSubcommand:
    def test_run_by_catalog_name(self, capsys):
        assert main(["run", "--name", "unanimous-fast-path"]) == 0
        out = capsys.readouterr().out
        assert "unanimous-fast-path" in out
        assert "decision" in out

    def test_run_check_mode(self, capsys):
        assert main(["run", "--name", "benor-split", "--check"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_run_fabric_override(self, capsys):
        code = main([
            "run", "--name", "unanimous-fast-path", "--fabric", "local", "--check",
        ])
        assert code == 0
        assert "[local]" in capsys.readouterr().out

    def test_run_seed_override_is_echoed(self, capsys):
        code = main([
            "run", "--name", "unanimous-fast-path", "--seed", "77", "--check",
        ])
        assert code == 0
        assert "seed=77" in capsys.readouterr().out

    def test_run_seed_override_echoed_without_check(self, capsys):
        assert main(["run", "--name", "unanimous-fast-path",
                     "--seed", "78"]) == 0
        assert "seed: 78" in capsys.readouterr().out

    def test_run_bad_seed_fails_before_running(self, capsys):
        assert main(["run", "--name", "unanimous-fast-path",
                     "--seed", "-5"]) == 1
        assert "seed" in capsys.readouterr().err

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
        assert "nothing to run" in capsys.readouterr().err

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
