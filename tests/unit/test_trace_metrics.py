"""How a network labels a payload for its per-kind send tally."""

from repro.sim.network import payload_kind


class TestPayloadKind:
    def test_routed_tuple(self):
        assert payload_kind(("rbc", 42)) == "rbc/int"

    def test_bare_payload(self):
        assert payload_kind("text") == "str"

    def test_dataclass_name_used(self):
        from repro.core.broadcast import RbcMessage
        from repro.types import Phase

        msg = RbcMessage(("i",), 0, Phase.ECHO, 1)
        assert payload_kind(("rbc", msg)) == "rbc/RbcMessage"
