"""A sim restart recovers through its WAL's bytes, so a damaged log is refused.

The simulated ``restart`` node logs its proposal and every delivery
through :class:`~repro.recovery.wal.WalWriter` into an in-memory buffer
and recovers with :func:`~repro.recovery.wal.parse_wal` plus
:func:`~repro.recovery.wal.replay`, the reader and replayer an mp
respawn uses.  These tests damage that buffer while the node is down,
through ``assemble()``'s live handle, and pin the reader's refusal on a
deterministic run; and they pin what the node logs and what
``recovery_replayed`` counts.
"""

import pytest

from repro.recovery.wal import WalError, parse_wal
from repro.scenario import assemble, run

from .test_sim_restart import SCENARIOS

SCENARIO = SCENARIOS["bracha"]  # pid 0 restarts: after 4, down 2, seed 3


def _down(scenario):
    """The assembled run, stepped until its restart node is down."""
    handle = assemble(scenario)
    handle.start()
    node = handle.restart_nodes[0]
    while not node.down_now:
        assert handle.sim.step()
    return handle, node


class TestDamagedLog:
    def test_a_cut_tail_is_a_named_truncated_record(self):
        handle, node = _down(SCENARIO)
        try:
            assert len(handle.sim.schedule) == 18
            size = len(node.wal_bytes.getvalue())
            node.wal_bytes.truncate(size - 3)
            with pytest.raises(WalError, match=(
                r"^WAL <sim wal p0> ends in a truncated record \(record 5\)$"
            )):
                handle.run()
            assert node.down_now and node.replayed == 0
        finally:
            handle.close()

    def test_a_flipped_body_byte_is_a_checksum_mismatch(self):
        handle, node = _down(SCENARIO)
        try:
            buf = node.wal_bytes
            at = len(buf.getvalue()) - 8 - 1  # the last body's last byte
            buf.seek(at)
            buf.write(bytes([buf.getvalue()[at] ^ 0x01]))
            buf.seek(0, 2)
            with pytest.raises(WalError, match=(
                r"^WAL <sim wal p0> record 5: checksum mismatch$"
            )):
                handle.run()
        finally:
            handle.close()


class TestWhatIsLogged:
    def test_the_log_is_the_proposal_then_every_delivery(self):
        handle = assemble(SCENARIO).run()
        try:
            handle.result()
            node = handle.restart_nodes[0]
            header, records = parse_wal(node.wal.path, node.wal_bytes.getvalue())
            delivered = handle.sim.network.delivered[0]
        finally:
            handle.close()
        assert header["node"] == 0
        assert records[0] == {"kind": "propose", "value": 1}
        assert {rec["kind"] for rec in records[1:]} == {"deliver"}
        # Every delivery the node processed, before and after the crash,
        # plus the ones it held while down.
        assert len(records) - 1 == delivered

    def test_recovery_replayed_counts_the_proposal_record_too(self):
        # ``after`` deliveries plus the proposal: the count ``replay``
        # returns, as on mp, under mp's ``replayed`` detail key.
        result = run(SCENARIO.replace(observe="ring"))
        assert result.metrics.counters["recovery_replayed"] == 4 + 1
        (event,) = [e for e in result.meta["obs_events"]
                    if e.kind == "recovery_replayed"]
        assert event.detail == {"replayed": 5}
