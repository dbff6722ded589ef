"""Trusted-setup bundles: dealing, round-trips, and tamper rejection.

The dealer's output is load-bearing — a node builds its authenticator
and coins from the bundle alone — so this module pins both directions:
a faithfully dealt bundle validates and reproduces the scenario's
derived material exactly, and any tampering (keys, seeds, shares, the
scenario itself) is refused loudly at load or validate time.
"""

import json
import re

import pytest

from repro.errors import ConfigError
from repro.mp import (
    SHARE_HORIZON,
    deal,
    load_bundle,
    load_manifest,
    scenario_hash,
)
from repro.mp.bundle import share_dealer_seed
from repro.crypto.dealer import CoinDealer
from repro.scenario import Scenario
from repro.stacks import coin_seeds

MP = Scenario(protocol="bracha", n=4, proposals=1, fabric="mp", seed=13)
MP_SHARES = MP.replace(coin="shares", seed=17)


def _dealt(tmp_path, scenario=MP):
    manifest_path, bundle_paths = deal(
        scenario.replace(base_port=7100), str(tmp_path)
    )
    return load_manifest(manifest_path), bundle_paths


class TestDealRoundTrip:
    def test_manifest_round_trips(self, tmp_path):
        manifest, bundles = _dealt(tmp_path)
        assert manifest.scenario == MP.replace(base_port=7100)
        assert manifest.digest == scenario_hash(manifest.scenario)
        assert manifest.run_id == f"mp-{manifest.digest[:12]}-s{MP.seed}"
        assert sorted(manifest.addresses) == [0, 1, 2, 3]
        assert manifest.addresses[2] == (MP.host, 7102)
        assert sorted(bundles) == [0, 1, 2, 3]

    def test_bundles_validate_and_carry_exact_material(self, tmp_path):
        manifest, bundles = _dealt(tmp_path)
        expected_seeds = coin_seeds(MP.protocol, MP.seed, MP.instances, MP.n)
        for pid, path in bundles.items():
            bundle = load_bundle(path)
            bundle.validate(manifest)
            assert bundle.node == pid
            assert bundle.coin_scheme == MP.coin_name
            assert bundle.coin_seeds == expected_seeds
            assert sorted(bundle.mac_keys) == [0, 1, 2, 3]
            assert bundle.shares == ()

    def test_pairwise_keys_agree_between_peers(self, tmp_path):
        _manifest, bundles = _dealt(tmp_path)
        a = load_bundle(bundles[0])
        b = load_bundle(bundles[3])
        assert a.mac_keys[3] == b.mac_keys[0]
        # ...and distinct pairs get distinct keys.
        assert a.mac_keys[1] != a.mac_keys[2]

    def test_share_coin_bundles_carry_verified_horizon(self, tmp_path):
        manifest, bundles = _dealt(tmp_path, MP_SHARES)
        dealer = CoinDealer(4, 1, share_dealer_seed(MP_SHARES))
        bundle = load_bundle(bundles[1])
        bundle.validate(manifest)
        assert len(bundle.shares) == SHARE_HORIZON
        assert all(s.holder == 1 for s in bundle.shares)
        assert all(dealer.verify(s) for s in bundle.shares)

    def test_different_seeds_deal_different_keys(self, tmp_path):
        _m1, b1 = _dealt(tmp_path / "a", MP)
        _m2, b2 = _dealt(tmp_path / "b", MP.replace(seed=14))
        assert load_bundle(b1[0]).mac_keys != load_bundle(b2[0]).mac_keys

    def test_base_port_zero_deals_port_zero_for_every_node(self, tmp_path):
        # "Bind any free port": nodes under an orchestrator report the
        # port they bound, so the manifest needs none.
        manifest = load_manifest(deal(MP, str(tmp_path))[0])
        assert manifest.addresses == {pid: (MP.host, 0) for pid in range(4)}


def _edit_json(path, mutate):
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    mutate(data)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


class TestTamperRejection:
    def test_edited_scenario_breaks_the_manifest_hash(self, tmp_path):
        manifest_path, _bundles = deal(MP.replace(base_port=7100), str(tmp_path))
        _edit_json(manifest_path,
                   lambda d: d["scenario"].__setitem__("seed", 99))
        with pytest.raises(ConfigError, match="scenario_hash"):
            load_manifest(manifest_path)

    def test_tampered_coin_seed_refused_at_validate(self, tmp_path):
        manifest, bundles = _dealt(tmp_path)
        _edit_json(bundles[0],
                   lambda d: d["coin"]["seeds"].__setitem__(0, 12345))
        with pytest.raises(ConfigError, match="coin seeds"):
            load_bundle(bundles[0]).validate(manifest)

    def test_tampered_dealer_share_refused_at_validate(self, tmp_path):
        manifest, bundles = _dealt(tmp_path, MP_SHARES)

        def corrupt(data):
            data["coin"]["shares"][3]["y"] += 1

        _edit_json(bundles[2], corrupt)
        with pytest.raises(ConfigError, match="bad dealer share"):
            load_bundle(bundles[2]).validate(manifest)

    def test_missing_mac_key_refused_at_validate(self, tmp_path):
        manifest, bundles = _dealt(tmp_path)
        _edit_json(bundles[1], lambda d: d["mac_keys"].pop("3"))
        with pytest.raises(ConfigError, match="MAC keys"):
            load_bundle(bundles[1]).validate(manifest)

    def test_bundle_for_another_run_refused(self, tmp_path):
        manifest, _bundles = _dealt(tmp_path / "a")
        _other, other_bundles = _dealt(tmp_path / "b", MP.replace(seed=14))
        with pytest.raises(ConfigError, match="run_id"):
            load_bundle(other_bundles[0]).validate(manifest)

    def test_unknown_version_refused(self, tmp_path):
        manifest_path, bundles = deal(MP.replace(base_port=7100), str(tmp_path))
        _edit_json(bundles[0], lambda d: d.__setitem__("version", 2))
        with pytest.raises(ConfigError, match="version"):
            load_bundle(bundles[0])
        _edit_json(manifest_path, lambda d: d.__setitem__("version", 0))
        with pytest.raises(ConfigError, match="version"):
            load_manifest(manifest_path)

    def test_a_non_utf8_byte_is_a_config_error_naming_the_file(
            self, tmp_path):
        manifest_path, bundles = deal(MP.replace(base_port=7100), str(tmp_path))
        for path, load in ((manifest_path, load_manifest),
                           (bundles[1], load_bundle)):
            with open(path, "r+b") as handle:
                handle.seek(1)
                handle.write(b"\xff")
            with pytest.raises(ConfigError, match="invalid JSON in " + re.escape(path)):
                load(path)

    def test_keyring_only_authenticates_its_own_node(self, tmp_path):
        _manifest, bundles = _dealt(tmp_path)
        ring = load_bundle(bundles[2]).keyring(4)
        auth = ring.authenticator(2)
        tag = auth.tag_bytes(3, b"payload")
        with pytest.raises(ConfigError, match="cannot authenticate"):
            ring.authenticator(3)
        peer = load_bundle(bundles[3]).keyring(4).authenticator(3)
        assert peer.verify_bytes(2, b"payload", tag)
        # A tampered pairwise key means the peer rejects every tag.
        tampered = load_bundle(bundles[3])
        tampered.mac_keys[2] = b"\x00" * 32
        bad_peer = tampered.keyring(4).authenticator(3)
        assert not bad_peer.verify_bytes(2, b"payload", tag)
