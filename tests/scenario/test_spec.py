"""Scenario validation, canonicalization, and JSON round-tripping."""

import json

import pytest

from repro.errors import ConfigError
from repro.scenario import Scenario, load_scenario, make_scheduler
from repro.sim.scheduler import FifoScheduler, RandomDelayScheduler


class TestValidation:
    def test_defaults_are_valid(self):
        s = Scenario()
        assert s.protocol == "bracha" and s.fabric == "sim"

    @pytest.mark.parametrize("field,value", [
        ("protocol", "paxos"),
        ("fabric", "udp"),
        ("stop", "sometime"),
        ("coin", "quantum"),
        ("scheduler", "psychic"),
    ])
    def test_unknown_enum_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            Scenario(**{field: value})

    def test_excess_faults_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={2: "silent", 3: "silent"})

    def test_excess_faults_opt_in(self):
        s = Scenario(n=4, faults={2: "silent", 3: "silent"},
                     allow_excess_faults=True)
        assert len(s.faults) == 2

    def test_fault_pid_out_of_range(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={9: "silent"})

    def test_fault_spec_needs_kind(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, faults={3: {"crash_after": 10}})

    def test_acs_takes_no_proposals(self):
        with pytest.raises(ConfigError):
            Scenario(protocol="acs", proposals=1)

    def test_scheduler_needs_sim_fabric(self):
        with pytest.raises(ConfigError):
            Scenario(scheduler="fifo", fabric="tcp")

    def test_scheduler_on_runtime_fabric_points_at_link_spec(self):
        # Not a dead end anymore: the error names the netem alternative.
        with pytest.raises(ConfigError, match="'link' / 'partitions'"):
            Scenario(scheduler="delay", fabric="tcp")

    def test_link_needs_runtime_fabric(self):
        with pytest.raises(ConfigError, match="scheduler"):
            Scenario(link={"loss": 0.1}, fabric="sim")
        with pytest.raises(ConfigError):
            Scenario(partitions=[{"groups": [[0, 1], [2, 3]]}], fabric="sim")

    def test_link_fields_validated(self):
        with pytest.raises(ConfigError, match="unknown link field"):
            Scenario(link={"packet_loss": 0.1}, fabric="local")
        with pytest.raises(ConfigError):
            Scenario(link={"loss": 1.5}, fabric="local")
        with pytest.raises(ConfigError):
            Scenario(link={"delay": -1}, fabric="local")

    def test_partition_pids_checked_against_n(self):
        with pytest.raises(ConfigError, match="out of range"):
            Scenario(n=4, fabric="local",
                     partitions=[{"groups": [[0, 7]]}])

    def test_partition_windows_validated(self):
        with pytest.raises(ConfigError):
            Scenario(fabric="local",
                     partitions=[{"start": 2.0, "stop": 1.0,
                                  "groups": [[0], [1]]}])

    def test_valid_link_spec_accepted(self):
        s = Scenario(fabric="tcp",
                     link={"loss": 0.2, "delay": 0.005, "retransmit": True},
                     partitions=[{"start": 0.0, "stop": 1.0,
                                  "groups": [[0, 1], [2, 3]]}])
        config = s.netem_config()
        assert config.model.loss == 0.2
        assert config.partitions[0].stop == 1.0

    def test_orphan_scheduler_args_rejected(self):
        """scheduler_args without a named scheduler would be silently
        ignored — fail loudly instead."""
        with pytest.raises(ConfigError):
            Scenario(scheduler_args={"victims": [0]})

    def test_quiescent_needs_sim_fabric(self):
        with pytest.raises(ConfigError):
            Scenario(stop="quiescent", fabric="local")

    def test_multi_instance_only_for_batchable_protocols(self):
        with pytest.raises(ConfigError):
            Scenario(protocol="mmr14", instances=2)

    def test_bad_proposals_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(n=4, proposals=[0, 1])  # wrong length
        with pytest.raises(ConfigError):
            Scenario(n=2, proposals=[0, 2])  # not a bit
        with pytest.raises(ConfigError):
            Scenario(proposals=7)

    @pytest.mark.parametrize("scalar", [2, -1, True, False])
    def test_non_bit_scalar_proposal_rejected(self, scalar):
        with pytest.raises(ConfigError, match="scalar proposal must be 0 or 1"):
            Scenario(proposals=scalar)

    def test_non_bit_scalar_never_reaches_a_cluster_node(self):
        """A ``local`` run with ``proposals=2`` used to die with a bare
        ValueError from inside a node."""
        with pytest.raises(ConfigError, match="scalar proposal must be 0 or 1"):
            Scenario(proposals=2, fabric="local")

    @pytest.mark.parametrize("fabric", ["sim", "local", "tcp", "mp"])
    def test_unknown_fault_kind_rejected_at_construction(self, fabric):
        """On ``mp`` the behavior dispatcher runs inside the faulty
        node's own process, whose death the orchestrator tolerates — the
        run used to come back clean and verified."""
        with pytest.raises(ConfigError, match="unknown fault kind 'gremlin'") as exc:
            Scenario(n=4, fabric=fabric, faults={3: "gremlin"})
        for kind in ("silent", "crash", "two_faced", "fuzzer", "stubborn",
                     "kill", "restart"):
            assert kind in str(exc.value)

    def test_unknown_fault_kind_in_a_scenario_file(self, tmp_path):
        path = tmp_path / "gremlin.json"
        path.write_text(json.dumps({"n": 4, "faults": {"3": "gremlin"}}))
        with pytest.raises(ConfigError, match="unknown fault kind"):
            load_scenario(path)

    def test_every_dispatcher_kind_is_a_legal_scenario_kind(self):
        from repro.adversary.behaviors import BEHAVIOR_KINDS

        for kind in BEHAVIOR_KINDS:
            assert Scenario(n=4, faults={3: kind}).faults_dict() == {3: kind}

    @pytest.mark.parametrize("fabric", ["sim", "mp"])
    @pytest.mark.parametrize("spec, named", [
        ({"kind": "two_faced", "bogus": 1}, "unknown field(s) ['bogus']"),
        ({"kind": "two_faced", "factory_a": "x"}, "unknown field(s) ['factory_a']"),
        ({"kind": "silent", "bogus": 1}, "silent fault has unknown field"),
        ({"kind": "crash", "crash_after": -5}, "crash fault 'crash_after'"),
        ({"kind": "fuzzer", "mutate_p": 7}, "fuzzer fault 'mutate_p'"),
        ({"kind": "two_faced", "group_a": [9]}, "two_faced fault 'group_a'"),
        ({"kind": "two_faced", "bit_a": 2}, "two_faced fault 'bit_a'"),
        ({"kind": "crash", "proposal": True}, "crash fault 'proposal'"),
    ])
    def test_bad_fault_options_rejected_at_construction(self, fabric, spec, named):
        """Each used to reach the build: a TypeError traceback, a
        silently accepted value, or on ``mp`` a dead Byzantine node
        checked as if it were the declared one."""
        with pytest.raises(ConfigError) as exc:
            Scenario(n=4, fabric=fabric, faults={3: spec})
        assert named in str(exc.value)
        if "unknown" in named:
            assert "allowed: [" in str(exc.value)

    def test_every_fault_option_is_accepted_at_its_bounds(self):
        Scenario(n=4, faults={3: {"kind": "crash", "crash_after": 0, "proposal": 1}})
        Scenario(n=4, faults={3: {"kind": "two_faced", "group_a": [0, 1],
                                  "bit_a": 1, "bit_b": 0}})
        Scenario(n=4, faults={3: {"kind": "fuzzer", "mutate_p": 1.0, "fanout": 0}})
        Scenario(n=4, faults={3: {"kind": "stubborn", "bit": 0, "horizon": 16,
                                  "module_id": "bracha"}})

    def test_fault_specs_selects_one_kind_in_either_spelling(self):
        s = Scenario(n=10, fabric="mp", faults={
            1: "kill", 2: {"kind": "kill", "after": 0.5}, 3: "silent"})
        assert s.fault_specs("kill") == {1: {}, 2: {"after": 0.5}}
        assert s.fault_specs("silent") == {3: {}}
        assert s.fault_specs("restart") == {}

    @pytest.mark.parametrize("value", [0, -5, True, 1.5, "100"])
    def test_max_steps_must_be_a_positive_integer(self, value):
        with pytest.raises(ConfigError, match="max_steps"):
            Scenario(max_steps=value)

    @pytest.mark.parametrize("value", [0, -1.0, True, "60"])
    def test_timeout_must_be_a_positive_number(self, value):
        with pytest.raises(ConfigError, match="timeout"):
            Scenario(timeout=value)

    def test_smallest_budgets_accepted(self):
        s = Scenario(max_steps=1, timeout=0.001)
        assert s.max_steps == 1 and s.timeout == 0.001
        assert Scenario(timeout=30).timeout == 30


class TestCanonicalization:
    def test_equivalent_specs_compare_equal(self):
        a = Scenario(n=4, proposals=[0, 1, 0, 1], faults={3: "silent"})
        b = Scenario(n=4, proposals={0: 0, 1: 1, 2: 0, 3: 1},
                     faults={3: {"kind": "silent"}})
        assert a == b
        assert hash(a) == hash(b)

    def test_scenarios_are_hashable_dict_keys(self):
        table = {Scenario(seed=s): s for s in range(3)}
        assert table[Scenario(seed=1)] == 1

    def test_replace_revalidates(self):
        s = Scenario(n=7, faults={5: "silent", 6: "silent"})
        with pytest.raises(ConfigError):
            s.replace(n=4)  # 2 faults exceed t=1

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match=r"unknown scenario field\(s\) \['fabrics'\]"):
            Scenario().replace(fabrics="tcp")

    def test_replace_names_the_field_a_wrong_type_was_given_for(self):
        # Used to read "unknown scenario field: '<' not supported ...":
        # replace() took any TypeError for a misspelt field name.
        with pytest.raises(ConfigError, match="need n >= 1"):
            Scenario().replace(n="4")
        with pytest.raises(ConfigError, match="need base_port in 0..65535"):
            Scenario().replace(base_port=65536)
        with pytest.raises(ConfigError, match="host must be a string"):
            Scenario().replace(host=5)

    def test_coin_defaults_follow_protocol(self):
        assert Scenario(protocol="bracha").coin_name == "local"
        assert Scenario(protocol="mmr14").coin_name == "dealer"
        assert Scenario(protocol="mmr14", coin="shares").coin_name == "shares"


class TestRoundTrip:
    def test_dict_round_trip_with_rich_faults(self):
        s = Scenario(
            name="rt", protocol="bracha", n=7, t=2,
            proposals=[0, 1, 0, 1, 0, 1, 0],
            faults={5: {"kind": "crash", "crash_after": 10}, 6: "two_faced"},
            scheduler="victim", scheduler_args={"victims": [0, 1]},
            seed=9,
        )
        assert Scenario.from_dict(s.to_dict()) == s

    def test_json_round_trip_is_plain_json(self):
        s = Scenario(n=4, faults={3: "silent"}, proposals=1)
        data = json.loads(s.to_json())
        assert data["faults"] == {"3": "silent"}
        assert Scenario.from_json(s.to_json()) == s

    def test_to_dict_omits_defaults(self):
        assert Scenario().to_dict() == {}
        assert set(Scenario(n=7, seed=3).to_dict()) == {"n", "seed"}

    def test_link_and_partitions_round_trip(self):
        s = Scenario(
            name="netem-rt", fabric="tcp", seed=3,
            link={"loss": 0.2, "delay": 0.005, "jitter": 0.001,
                  "retransmit": True, "max_retries": 9},
            partitions=[
                {"start": 0.0, "stop": 0.5, "groups": [[0, 1], [2, 3]]},
                {"start": 1.0, "stop": None, "groups": [[0], [3]]},
            ],
        )
        assert Scenario.from_dict(s.to_dict()) == s
        data = json.loads(s.to_json())  # the JSON shape is plain dicts/lists
        assert data["link"]["loss"] == 0.2
        assert data["partitions"][0]["groups"] == [[0, 1], [2, 3]]
        assert data["partitions"][1]["stop"] is None

    def test_equivalent_link_specs_compare_equal(self):
        a = Scenario(fabric="local", link={"loss": 0.1, "delay": 0.001})
        b = Scenario(fabric="local", link={"delay": 0.001, "loss": 0.1})
        assert a == b and hash(a) == hash(b)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError) as exc:
            Scenario.from_dict({"protocl": "bracha"})
        assert "protocl" in str(exc.value)

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict([1, 2, 3])


class TestLoadScenario:
    def test_load(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(Scenario(name="disk", n=7).to_json())
        assert load_scenario(path) == Scenario(name="disk", n=7)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "absent.json")

    def test_bad_json_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError) as exc:
            load_scenario(path)
        assert "bad.json" in str(exc.value)


class TestSchedulers:
    def test_random_is_none(self):
        assert make_scheduler("random", 4) is None
        assert make_scheduler(None, 4) is None

    def test_named_schedulers_build(self):
        assert isinstance(make_scheduler("fifo", 4), FifoScheduler)
        assert isinstance(make_scheduler("delay", 4, mean_delay=2.0),
                          RandomDelayScheduler)

    def test_split_defaults_to_half(self):
        sched = make_scheduler("split", 6)
        assert sched.group_a == frozenset({0, 1, 2})

    def test_bad_args_raise_config_error(self):
        with pytest.raises(ConfigError):
            make_scheduler("fifo", 4, bogus_arg=1)

    @pytest.mark.parametrize("scheduler, args, why", [
        ("partition", {"heal_after": -3}, "heal_after must be non-negative"),
        ("delay", {"mean_delay": 0}, "mean_delay must be positive"),
        ("victim", {"victims": [9]}, r"pid\(s\) \[9\] out of range for n=4"),
        ("split", {"group_a": [7, 8]}, r"\[7, 8\] out of range"),
        ("partition", {"group_a": [0, "1"]}, r"\['1'\] out of range"),
        ("victim", {"holdback": 0}, "holdback must be at least 1"),
        ("victim", {"victims": 3}, "not iterable"),
        ("script", {"ranks": [0, True]}, "ranks must be integers, got True"),
        ("script", {"ranks": [1.5]}, "ranks must be integers"),
        ("script", {}, "ranks"),
        ("fifo", {"bogus_arg": 1}, "bogus_arg"),
    ])
    def test_bad_scheduler_args_rejected_at_construction(self, scheduler, args, why):
        """Each used to surface only when the run started (a ValueError
        traceback, a SimulationError) or not at all (a pid outside the
        system silently starved nobody)."""
        with pytest.raises(ConfigError, match="bad scheduler_args") as exc:
            Scenario(n=4, scheduler=scheduler, scheduler_args=args)
        assert exc.match(why)

    def test_scenario_builds_its_scheduler(self):
        s = Scenario(scheduler="victim", scheduler_args={"victims": [2]})
        sched = s.build_scheduler()
        assert sched.victims == frozenset({2})
