"""The write-ahead log: round-trips, strict reading, tamper refusal.

The WAL's one job is to make recovery *trustworthy*: a log either
replays to the exact pre-crash inputs or is refused loudly.  These
tests pin both halves — lossless round-trips through the runtime codec,
and a `WalError` for every kind of damage (truncation, corruption,
sequence gaps, foreign headers) — including at the real mp recovery
boot path, which must refuse before saying hello.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.mp.bundle import deal, load_bundle, load_manifest
from repro.recovery.wal import (
    WAL_VERSION,
    WalError,
    WalWriter,
    parse_recovery,
    read_wal,
    replay,
    validate_header,
    wal_filename,
)
from repro.scenario import Scenario

HEADER = {"run_id": "run-1", "node": 0, "seed": 9,
          "protocol": "bracha", "instances": 1}


def _read(path) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_sample(path):
    writer = WalWriter.open(str(path), HEADER)
    writer.append_propose(1)
    writer.append_deliver(2, {"round": 1, "bit": 0})
    writer.append_deliver(1, [1, "x"])
    writer.close()
    return str(path)


class TestRoundTrip:
    def test_header_then_records_in_order(self, tmp_path):
        path = _write_sample(tmp_path / "wal-0.jsonl")
        header, records = read_wal(path)
        assert header["kind"] == "header"
        assert header["version"] == WAL_VERSION
        assert header["run_id"] == "run-1"
        assert [r["kind"] for r in records] == [
            "propose", "deliver", "deliver"]

    def test_replay_drives_the_callbacks_in_log_order(self, tmp_path):
        path = _write_sample(tmp_path / "wal-0.jsonl")
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
        path = _write_sample(tmp_path / "wal-0.jsonl")
        _, records = read_wal(path)
        writer = WalWriter.resume(path, len(records) + 1)
        writer.append_deliver(3, 7)
        writer.close()
        _, records = read_wal(path)
        assert len(records) == 4
        assert records[-1] == {"kind": "deliver", "sender": 3, "payload": 7}

    def test_closed_writer_refuses_appends(self, tmp_path):
        writer = WalWriter.open(str(tmp_path / "w.jsonl"), HEADER)
        writer.close()
        with pytest.raises(WalError, match="closed"):
            writer.append_deliver(0, 1)

    def test_filenames_are_per_node(self):
        assert wal_filename(3) == "wal-3.jsonl"


class TestTamperRefusal:
    """Every kind of damage raises; recovery never replays a wrong prefix."""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text("")
        with pytest.raises(WalError, match="empty"):
            read_wal(str(path))

    def test_truncated_tail_line(self, tmp_path):
        path = _write_sample(tmp_path / "w.jsonl")
        with open(path, "r+") as fh:
            raw = fh.read()
            fh.seek(0)
            fh.write(raw[:-10])  # SIGKILL mid-append: no trailing newline
            fh.truncate()
        with pytest.raises(WalError, match="truncated"):
            read_wal(path)

    def test_corrupted_checksum(self, tmp_path):
        path = _write_sample(tmp_path / "w.jsonl")
        lines = _read(path).splitlines()
        entry = json.loads(lines[2])
        entry["rec"]["sender"] = 99  # bit rot in the record body
        lines[2] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        _write(path, "\n".join(lines) + "\n")
        with pytest.raises(WalError, match="checksum"):
            read_wal(path)

    def test_sequence_gap(self, tmp_path):
        path = _write_sample(tmp_path / "w.jsonl")
        lines = _read(path).splitlines()
        del lines[1]  # drop a middle record
        _write(path, "\n".join(lines) + "\n")
        with pytest.raises(WalError, match="sequence"):
            read_wal(path)

    def test_malformed_line(self, tmp_path):
        path = _write_sample(tmp_path / "w.jsonl")
        with open(path, "a") as fh:
            fh.write("not json at all\n")
        with pytest.raises(WalError, match="malformed"):
            read_wal(path)

    def test_missing_header(self, tmp_path):
        path = _write_sample(tmp_path / "w.jsonl")
        lines = _read(path).splitlines()
        # Strip the header and renumber so only the *kind* is wrong.
        entries = [json.loads(line) for line in lines[1:]]
        out = []
        for seq, entry in enumerate(entries):
            from repro.recovery.wal import _checksum
            out.append(json.dumps(
                {"seq": seq, "sha": _checksum(seq, entry["rec"]),
                 "rec": entry["rec"]},
                sort_keys=True, separators=(",", ":")))
        _write(path, "\n".join(out) + "\n")
        with pytest.raises(WalError, match="header"):
            read_wal(path)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        WalWriter.open(path, {**HEADER}).close()
        lines = _read(path).splitlines()
        entry = json.loads(lines[0])
        entry["rec"]["version"] = WAL_VERSION + 1
        from repro.recovery.wal import _checksum
        entry["sha"] = _checksum(0, entry["rec"])
        _write(path,
               json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
        with pytest.raises(WalError, match="version"):
            read_wal(path)

    def test_every_cut_and_bit_flip_is_refused_or_the_intact_prefix(
            self, tmp_path):
        # A torn or bit-rotted log is a WalError, never a bare
        # exception; whatever read_wal does return is what was written.
        path = _write_sample(tmp_path / "w.jsonl")
        with open(path, "rb") as fh:
            raw = fh.read()
        header, records = read_wal(path)
        damaged = tmp_path / "damaged.jsonl"

        def read(data):
            damaged.write_bytes(data)
            try:
                return read_wal(str(damaged))
            except WalError:
                return None

        for cut in range(len(raw)):
            got = read(raw[:cut])
            if got is not None:
                whole = raw[:cut].count(b"\n")
                assert raw[:cut].endswith(b"\n")
                assert got == (header, records[:whole - 1])
        last = raw.rindex(b"\n", 0, len(raw) - 1) + 1
        refused = 0
        for index in range(last, len(raw)):
            for bit in range(8):
                flipped = bytearray(raw)
                flipped[index] ^= 1 << bit
                got = read(bytes(flipped))
                assert got in (None, (header, records))
                refused += got is None
        assert refused == 8 * (len(raw) - last)

    def test_invalid_utf8_is_refused_by_line(self, tmp_path):
        path = _write_sample(tmp_path / "w.jsonl")
        with open(path, "ab") as fh:
            fh.write(b'{"seq":4,"rec":"\xff"}\n')
        with pytest.raises(WalError, match="line 5: malformed JSON"):
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
        wal_path = str(tmp_path / "foreign.jsonl")
        WalWriter.open(wal_path, {
            "run_id": "mp-deadbeef-s1", "scenario_hash": "0" * 64,
            "node": 0, "seed": 31, "protocol": "bracha", "instances": 1,
        }).close()
        with pytest.raises(WalError, match="different run"):
            NodeRunner(manifest, bundle, wal_path=wal_path, recover=True)

        # A WAL with a torn tail record.
        torn = str(tmp_path / "torn.jsonl")
        writer = WalWriter.open(torn, {
            "run_id": manifest.run_id, "scenario_hash": manifest.digest,
            "node": 0, "seed": 31, "protocol": "bracha", "instances": 1,
        })
        writer.append_propose(1)
        writer.close()
        raw = _read(torn)
        _write(torn, raw[:-4])
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
