"""ACS coordination rules, driven directly (no network round-trips)."""

from repro.app.acs import AcsInstance, AcsOutput
from repro.core.broadcast import BroadcastLayer, RbcDelivery
from repro.core.coin import LocalCoin

from ..conftest import make_member


def build_acs(pid=0, n=4):
    process, stub = make_member(n=n, t=(n - 1) // 3, pid=pid)
    rbc = process.add_module(BroadcastLayer())
    outputs = []
    acs = AcsInstance(
        process, rbc, coin_factory=lambda j: LocalCoin(salt=("unit", j)),
        on_output=outputs.append,
    )
    return acs, rbc, outputs, stub


def proposal_delivery(epoch, proposer, value):
    return RbcDelivery(("acs-prop", epoch, proposer), proposer, value)


class TestProposalIngestion:
    def test_accepted_proposal_votes_one(self):
        acs, _rbc, _outputs, _stub = build_acs()
        acs._on_rbc(proposal_delivery(0, 1, "tx"))
        assert acs.proposals[1] == "tx"
        assert acs.abas[1].proposal == 1

    def test_wrong_epoch_ignored(self):
        acs, _rbc, _outputs, _stub = build_acs()
        acs._on_rbc(proposal_delivery(5, 1, "tx"))
        assert acs.proposals == {}

    def test_forged_proposer_ignored(self):
        acs, _rbc, _outputs, _stub = build_acs()
        acs._on_rbc(RbcDelivery(("acs-prop", 0, 1), 2, "tx"))
        assert acs.proposals == {}

    def test_proposer_that_is_not_a_pid_ignored(self):
        """A delivery carries the originator field of the READY that
        completed it — wire input; ordering it against ``n`` must not
        raise."""
        acs, _rbc, _outputs, _stub = build_acs()
        for proposer in ("x", None, (1,), 1.5, 9, -1):
            acs._on_rbc(proposal_delivery(0, proposer, "tx"))
        assert acs.proposals == {}

    def test_duplicate_proposal_ignored(self):
        acs, _rbc, _outputs, _stub = build_acs()
        acs._on_rbc(proposal_delivery(0, 1, "tx"))
        acs._on_rbc(proposal_delivery(0, 1, "tx2"))
        assert acs.proposals[1] == "tx"

    def test_unrelated_rbc_traffic_ignored(self):
        acs, _rbc, _outputs, _stub = build_acs()
        acs._on_rbc(RbcDelivery(("acs0-aba1", 1, 1, 2), 2, "x"))
        acs._on_rbc(RbcDelivery("weird", 0, "x"))
        assert acs.proposals == {}


class TestVoteZeroRule:
    def test_n_minus_t_ones_trigger_zero_votes(self):
        acs, _rbc, _outputs, _stub = build_acs()
        for j in (0, 1, 2):
            acs._on_aba_decision(j, 1)
        # n−t = 3 ones seen: the remaining ABA must be voted 0
        assert acs.abas[3].proposal == 0

    def test_no_zero_votes_before_threshold(self):
        acs, _rbc, _outputs, _stub = build_acs()
        acs._on_aba_decision(0, 1)
        acs._on_aba_decision(1, 1)
        assert acs.abas[3].proposal is None

    def test_existing_votes_not_overridden(self):
        acs, _rbc, _outputs, _stub = build_acs()
        acs._on_rbc(proposal_delivery(0, 3, "late-tx"))
        for j in (0, 1, 2):
            acs._on_aba_decision(j, 1)
        assert acs.abas[3].proposal == 1  # voted 1 on acceptance already


class TestOutput:
    def test_output_waits_for_all_decisions(self):
        acs, _rbc, outputs, _stub = build_acs()
        for j in (0, 1, 2):
            acs._on_rbc(proposal_delivery(0, j, f"tx{j}"))
            acs._on_aba_decision(j, 1)
        assert outputs == []  # ABA 3 still undecided
        acs._on_aba_decision(3, 0)
        assert len(outputs) == 1
        assert outputs[0].pids == (0, 1, 2)

    def test_output_waits_for_accepted_payloads(self):
        """An ABA may finish with 1 before the proposal text arrives."""
        acs, _rbc, outputs, _stub = build_acs()
        for j in (0, 1):
            acs._on_rbc(proposal_delivery(0, j, f"tx{j}"))
            acs._on_aba_decision(j, 1)
        acs._on_aba_decision(2, 1)  # decided 1, payload not yet here
        acs._on_aba_decision(3, 0)
        assert outputs == []
        acs._on_rbc(proposal_delivery(0, 2, "tx2"))
        assert len(outputs) == 1
        assert dict(outputs[0].proposals)[2] == "tx2"

    def test_output_emitted_once(self):
        acs, _rbc, outputs, _stub = build_acs()
        for j in range(4):
            acs._on_rbc(proposal_delivery(0, j, f"tx{j}"))
            acs._on_aba_decision(j, 1)
        acs._maybe_output()
        acs._maybe_output()
        assert len(outputs) == 1

    def test_payloads_sorted_by_pid(self):
        acs, _rbc, outputs, _stub = build_acs()
        for j in (3, 1, 0, 2):
            acs._on_rbc(proposal_delivery(0, j, f"tx{j}"))
            acs._on_aba_decision(j, 1)
        out = outputs[0]
        assert out.pids == (0, 1, 2, 3)
        assert out.payloads() == ["tx0", "tx1", "tx2", "tx3"]


class TestAcsOutputType:
    def test_accessors(self):
        out = AcsOutput(0, ((0, "a"), (2, "b")))
        assert out.pids == (0, 2)
        assert out.payloads() == ["a", "b"]
