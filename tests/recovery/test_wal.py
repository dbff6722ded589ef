"""The write-ahead log: round-trips, strict reading, tamper refusal.

The WAL's one job is to make recovery *trustworthy*: a log either
replays to the exact pre-crash inputs or is refused loudly.  These
tests pin both halves — lossless round-trips through the binary value
format, and a `WalError` for every kind of damage (truncation,
corruption, sequence gaps, foreign headers, another registry, a
version 1 log) — including at the real mp recovery boot path, which
must refuse before saying hello.
"""

import dataclasses
import os
import pathlib

import pytest

from repro.errors import ConfigError
from repro.mp.bundle import deal, load_bundle, load_manifest
from repro.recovery import parse_recovery
from repro.recovery.wal import (
    WAL_VERSION,
    WalError,
    WalWriter,
    _frame,
    read_wal,
    replay,
    validate_header,
    wal_filename,
)
from repro.runtime import binarycodec, codec
from repro.scenario import Scenario

HEADER = {"run_id": "run-1", "node": 0, "seed": 9,
          "protocol": "bracha", "instances": 1}


def _write_sample(path):
    writer = WalWriter.open(str(path), HEADER)
    writer.append_propose(1)
    writer.append_deliver(2, {"round": 1, "bit": 0})
    writer.append_deliver(1, [1, "x"])
    writer.close()
    return str(path)


def _records(path):
    """The file's records as ``(offset, body)``, framing undone by hand."""
    raw = pathlib.Path(path).read_bytes()
    out, pos = [], 0
    while pos < len(raw):
        length = int.from_bytes(raw[pos:pos + 4], "big")
        out.append((pos, raw[pos + 4:pos + 4 + length]))
        pos += 4 + length + 8
    return out


def _rewrite(path, bodies):
    pathlib.Path(path).write_bytes(b"".join(_frame(body) for body in bodies))


def _with(body, **changes):
    """``body`` re-encoded with some of its record's keys replaced."""
    return binarycodec.dumps({**binarycodec.loads(body), **changes})


class TestRoundTrip:
    def test_header_then_records_in_order(self, tmp_path):
        path = _write_sample(tmp_path / "wal-0.log")
        header, records = read_wal(path)
        assert header["kind"] == "header"
        assert header["version"] == WAL_VERSION == 2
        assert header["registry"] == binarycodec.registry_digest()
        assert header["run_id"] == "run-1"
        assert [r["kind"] for r in records] == [
            "propose", "deliver", "deliver"]

    def test_replay_drives_the_callbacks_in_log_order(self, tmp_path):
        path = _write_sample(tmp_path / "wal-0.log")
        _, records = read_wal(path)
        seen = []
        stats = replay(
            records,
            propose=lambda value: seen.append(("propose", value)),
            deliver=lambda sender, payload: seen.append(
                ("deliver", sender, payload)),
        )
        assert seen == [
            ("propose", 1),
            ("deliver", 2, {"round": 1, "bit": 0}),
            ("deliver", 1, [1, "x"]),
        ]
        assert stats == {"replayed": 3, "proposed": True}

    def test_resume_continues_the_sequence(self, tmp_path):
        path = _write_sample(tmp_path / "wal-0.log")
        _, records = read_wal(path)
        writer = WalWriter.resume(path, len(records) + 1)
        writer.append_deliver(3, 7)
        writer.close()
        _, records = read_wal(path)
        assert len(records) == 4
        assert records[-1] == {"kind": "deliver", "sender": 3, "payload": 7}

    def test_a_record_is_its_binary_body_framed(self, tmp_path):
        # length | dumps(record with its seq) | 8 bytes of SHA-256
        path = _write_sample(tmp_path / "wal-0.log")
        bodies = [body for _, body in _records(path)]
        assert bodies[2] == binarycodec.dumps(
            {"kind": "deliver", "sender": 2, "payload": {"round": 1, "bit": 0},
             "seq": 2})
        assert os.path.getsize(path) == sum(len(b) + 12 for b in bodies)

    def test_closed_writer_refuses_appends(self, tmp_path):
        writer = WalWriter.open(str(tmp_path / "w.log"), HEADER)
        writer.close()
        with pytest.raises(WalError, match="closed"):
            writer.append_deliver(0, 1)

    def test_filenames_are_per_node(self):
        assert wal_filename(3) == "wal-3.log"


class TestTamperRefusal:
    """Every kind of damage raises; recovery never replays a wrong prefix."""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "w.log"
        path.write_bytes(b"")
        with pytest.raises(WalError, match="empty"):
            read_wal(str(path))

    def test_truncated_tail_record(self, tmp_path):
        path = _write_sample(tmp_path / "w.log")
        with open(path, "r+b") as fh:
            raw = fh.read()
            fh.seek(0)
            fh.write(raw[:-10])  # SIGKILL mid-append
            fh.truncate()
        with pytest.raises(WalError, match="truncated"):
            read_wal(path)

    def test_corrupted_checksum(self, tmp_path):
        path = _write_sample(tmp_path / "w.log")
        raw = bytearray(pathlib.Path(path).read_bytes())
        offset, body = _records(path)[2]
        tampered = _with(body, sender=9)  # bit rot in the record body
        assert len(tampered) == len(body)
        raw[offset + 4:offset + 4 + len(body)] = tampered
        pathlib.Path(path).write_bytes(bytes(raw))
        with pytest.raises(WalError, match="record 2: checksum"):
            read_wal(path)

    def test_sequence_gap(self, tmp_path):
        path = _write_sample(tmp_path / "w.log")
        bodies = [body for _, body in _records(path)]
        del bodies[1]  # drop a middle record
        _rewrite(path, bodies)
        with pytest.raises(WalError, match="sequence"):
            read_wal(path)

    def test_malformed_record(self, tmp_path):
        path = _write_sample(tmp_path / "w.log")
        with open(path, "ab") as fh:
            fh.write(_frame(binarycodec.dumps(("not", "a", "record"))))
        with pytest.raises(WalError, match="record 4: malformed"):
            read_wal(path)

    def test_missing_header(self, tmp_path):
        path = _write_sample(tmp_path / "w.log")
        # Strip the header and renumber so only the *kind* is wrong.
        bodies = [_with(body, seq=seq)
                  for seq, (_, body) in enumerate(_records(path)[1:])]
        _rewrite(path, bodies)
        with pytest.raises(WalError, match="header"):
            read_wal(path)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "w.log")
        WalWriter.open(path, {**HEADER}).close()
        (_, header), = _records(path)
        _rewrite(path, [_with(header, version=WAL_VERSION + 1)])
        with pytest.raises(WalError, match="version"):
            read_wal(path)

    def test_a_log_written_under_another_registry_is_refused(
            self, tmp_path, monkeypatch):
        # Registry ids are ranks of the sorted names: one more message
        # type shifts them, so the digest in the header must match.
        path = _write_sample(tmp_path / "w.log")
        monkeypatch.setattr(codec, "_MESSAGES", dict(codec._MESSAGES))

        @dataclasses.dataclass(frozen=True)
        class AaWalProbe:
            value: int

        codec.register_message(AaWalProbe)
        with pytest.raises(WalError, match="registry digest"):
            read_wal(path)

    def test_every_cut_and_bit_flip_is_refused_or_the_intact_prefix(
            self, tmp_path):
        # A torn or bit-rotted log is a WalError, never a bare
        # exception; whatever read_wal does return is what was written.
        path = _write_sample(tmp_path / "w.log")
        with open(path, "rb") as fh:
            raw = fh.read()
        header, records = read_wal(path)
        starts = [offset for offset, _ in _records(path)]
        damaged = tmp_path / "damaged.log"

        def read(data):
            damaged.write_bytes(data)
            try:
                return read_wal(str(damaged))
            except WalError:
                return None

        for cut in range(len(raw)):
            got = read(raw[:cut])
            if got is not None:
                whole = starts.index(cut)  # records wholly before the cut
                assert got == (header, records[:whole - 1])
        last = starts[-1]
        refused = 0
        for index in range(last, len(raw)):
            for bit in range(8):
                flipped = bytearray(raw)
                flipped[index] ^= 1 << bit
                got = read(bytes(flipped))
                assert got in (None, (header, records))
                refused += got is None
        assert refused == 8 * (len(raw) - last)

    def test_a_body_that_does_not_decode_is_refused_by_record(self, tmp_path):
        path = _write_sample(tmp_path / "w.log")
        with open(path, "ab") as fh:
            fh.write(_frame(b"\x06\x01\xff"))  # a string of invalid UTF-8
        with pytest.raises(WalError, match="record 4: body does not decode"):
            read_wal(path)

    def test_unknown_record_kind_refused_at_replay(self):
        with pytest.raises(WalError, match="kind"):
            replay([{"kind": "snapshot"}], propose=lambda v: None,
                   deliver=lambda s, p: None)


class TestHeaderBinding:
    def test_matching_header_passes(self):
        validate_header({"run_id": "r", "node": 2}, run_id="r", node=2)

    def test_every_mismatch_is_reported_at_once(self):
        with pytest.raises(WalError) as exc:
            validate_header({"run_id": "r", "node": 2, "seed": 1},
                            run_id="other", node=3, seed=1)
        text = str(exc.value)
        assert "different run" in text
        assert "node" in text and "run_id" in text
        assert "seed" not in text

    def test_mp_recovery_boot_refuses_a_damaged_wal(self, tmp_path):
        """The real boot path: NodeRunner(recover=True) reads the WAL
        before connecting anywhere, and a tampered log kills the boot."""
        from repro.mp.noderunner import NodeRunner

        scenario = Scenario(protocol="bracha", n=4, proposals=1,
                            fabric="mp", seed=31)
        manifest_path, bundle_paths = deal(
            scenario.replace(base_port=7900), str(tmp_path / "deal"))
        manifest = load_manifest(manifest_path)
        bundle = load_bundle(bundle_paths[0])

        # A WAL from a *different* run (wrong run id / scenario hash).
        wal_path = str(tmp_path / "foreign.log")
        WalWriter.open(wal_path, {
            "run_id": "mp-deadbeef-s1", "scenario_hash": "0" * 64,
            "node": 0, "seed": 31, "protocol": "bracha", "instances": 1,
        }).close()
        with pytest.raises(WalError, match="different run"):
            NodeRunner(manifest, bundle, wal_path=wal_path, recover=True)

        # A WAL with a torn tail record.
        torn = str(tmp_path / "torn.log")
        writer = WalWriter.open(torn, {
            "run_id": manifest.run_id, "scenario_hash": manifest.digest,
            "node": 0, "seed": 31, "protocol": "bracha", "instances": 1,
        })
        writer.append_propose(1)
        writer.close()
        pathlib.Path(torn).write_bytes(pathlib.Path(torn).read_bytes()[:-4])
        with pytest.raises(WalError, match="truncated"):
            NodeRunner(manifest, bundle, wal_path=torn, recover=True)


class TestParseRecovery:
    def test_modes(self):
        assert parse_recovery("off") == ("off", None)
        assert parse_recovery("wal") == ("wal", None)
        assert parse_recovery("wal:/tmp/x") == ("wal", "/tmp/x")

    def test_off_takes_no_argument(self):
        with pytest.raises(ConfigError, match="no argument"):
            parse_recovery("off:/tmp/x")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown recovery mode"):
            parse_recovery("snapshot")

    def test_non_string(self):
        with pytest.raises(ConfigError, match="string"):
            parse_recovery(True)
