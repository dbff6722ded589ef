"""Trusted-setup bundles: the dealer step of the multi-process fabric.

A real deployment of an authenticated-channel protocol needs a setup
phase that happens *before* any node boots: someone trusted derives the
pairwise MAC keys (:class:`~repro.net.auth.KeyRing`) and — for the
dealer-based coin schemes — the per-round coin shares
(:class:`~repro.crypto.dealer.CoinDealer`), and hands each node exactly
its own material.  :func:`deal` is that step.  It writes, into one
directory:

* ``manifest.json`` — the :class:`RunManifest`: run id, the full
  scenario spec, its hash, and the pid → ``host:port`` listen address
  table (port 0: the node binds any free port).  The manifest is
  public; every node reads it.
* ``node-<pid>.json`` — one :class:`NodeBundle` per node: the node's
  pairwise MAC keys (only its own — a node can never tag traffic as
  anyone else), the derived per-instance coin seeds, and (for the
  share-based coin) its pre-issued :class:`SignedShare`\\ s for the
  first :data:`SHARE_HORIZON` rounds.  A bundle is secret to its node.

Bundles are *load-bearing*, not descriptive: the node runner builds its
:class:`~repro.net.auth.Authenticator` from the bundle keys (via
:class:`BundleKeyRing`), so a tampered key means every frame on that
link fails MAC verification; and it refuses to start at all when the
bundle's coin seeds or dealer shares disagree with the scenario the
manifest claims (:func:`NodeBundle.validate`), so mismatched setup
fails loudly at boot instead of as a silent liveness hang.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..crypto.dealer import CoinDealer, SignedShare
from ..crypto.shamir import Share
from ..errors import ConfigError
from ..net.auth import Authenticator, KeyRing
from ..scenario.spec import Scenario
from ..sim.rng import derive_seed
from ..stacks import coin_seeds, instance_coin_seed
from ..types import ProcessId

#: Rounds of share-coin material predistributed per node.  The sim runs
#: of every catalog scenario decide in single-digit rounds; 64 leaves a
#: wide margin while keeping bundles small.  A run that exhausts the
#: horizon fails its liveness timeout — the honest failure mode for
#: exhausted setup material.
SHARE_HORIZON = 64

#: Bundle format version; readers reject anything else.
BUNDLE_VERSION = 1


def scenario_hash(scenario: Scenario) -> str:
    """A stable content hash of a scenario's canonical JSON form."""
    text = json.dumps(scenario.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _setup_secret(seed: int, digest: str) -> bytes:
    """The master secret the pairwise MAC keys derive from.

    Bound to both the seed and the scenario hash so two different runs
    never share keys, and a bundle cannot be replayed against a
    different scenario without every MAC failing.
    """
    return f"mp-setup-{seed}-{digest}".encode("utf-8")


def share_dealer_seed(scenario: Scenario) -> int:
    """The dealer seed of the share-based coin (single instance only).

    Mirrors :func:`repro.stacks.make_coin`:
    ``derive_seed(instance_seed, "coin")`` of instance 0.
    """
    return derive_seed(instance_coin_seed(scenario.seed, 0), "coin")


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """The public half of a dealt run: who runs where, serving what."""

    run_id: str
    scenario: Scenario
    digest: str  # scenario_hash(scenario)
    addresses: Dict[ProcessId, Tuple[str, int]]
    bundles: Dict[ProcessId, str]  # pid -> bundle file name

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": BUNDLE_VERSION,
            "run_id": self.run_id,
            "scenario": self.scenario.to_dict(),
            "scenario_hash": self.digest,
            "addresses": {
                str(pid): [host, port]
                for pid, (host, port) in sorted(self.addresses.items())
            },
            "bundles": {
                str(pid): name for pid, name in sorted(self.bundles.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        if data.get("version") != BUNDLE_VERSION:
            raise ConfigError(
                f"unsupported manifest version {data.get('version')!r}; "
                f"this build reads version {BUNDLE_VERSION}"
            )
        scenario = Scenario.from_dict(data.get("scenario", {}))
        digest = data.get("scenario_hash", "")
        if digest != scenario_hash(scenario):
            raise ConfigError(
                "manifest scenario_hash does not match its scenario "
                "(edited after dealing?)"
            )
        try:
            addresses = {
                int(pid): (str(host), int(port))
                for pid, (host, port) in data["addresses"].items()
            }
            bundles = {int(pid): str(name) for pid, name in data["bundles"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed manifest: {exc}") from exc
        if sorted(addresses) != list(range(scenario.n)):
            raise ConfigError(
                f"manifest addresses cover {sorted(addresses)}, "
                f"scenario needs pids 0..{scenario.n - 1}"
            )
        return cls(
            run_id=str(data.get("run_id", "")),
            scenario=scenario,
            digest=digest,
            addresses=addresses,
            bundles=bundles,
        )


# ---------------------------------------------------------------------------
# Per-node bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeBundle:
    """One node's secret setup material."""

    node: ProcessId
    run_id: str
    digest: str
    mac_keys: Dict[ProcessId, bytes]  # peer pid -> pairwise key
    coin_scheme: str
    coin_seeds: Tuple[int, ...]
    shares: Tuple[SignedShare, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": BUNDLE_VERSION,
            "node": self.node,
            "run_id": self.run_id,
            "scenario_hash": self.digest,
            "mac_keys": {
                str(pid): key.hex() for pid, key in sorted(self.mac_keys.items())
            },
            "coin": {
                "scheme": self.coin_scheme,
                "seeds": list(self.coin_seeds),
                "shares": [
                    {
                        "round": s.round,
                        "x": s.share.x,
                        "y": s.share.y,
                        "tag": s.tag.hex(),
                    }
                    for s in self.shares
                ],
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NodeBundle":
        if data.get("version") != BUNDLE_VERSION:
            raise ConfigError(
                f"unsupported bundle version {data.get('version')!r}; "
                f"this build reads version {BUNDLE_VERSION}"
            )
        try:
            node = int(data["node"])
            mac_keys = {
                int(pid): bytes.fromhex(key)
                for pid, key in data["mac_keys"].items()
            }
            coin = data["coin"]
            shares = tuple(
                SignedShare(
                    holder=node,
                    round=int(s["round"]),
                    share=Share(int(s["x"]), int(s["y"])),
                    tag=bytes.fromhex(s["tag"]),
                )
                for s in coin.get("shares", ())
            )
            return cls(
                node=node,
                run_id=str(data.get("run_id", "")),
                digest=str(data.get("scenario_hash", "")),
                mac_keys=mac_keys,
                coin_scheme=str(coin["scheme"]),
                coin_seeds=tuple(int(x) for x in coin["seeds"]),
                shares=shares,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed node bundle: {exc}") from exc

    # -- consumption ---------------------------------------------------------

    def keyring(self, n: int) -> "BundleKeyRing":
        """The node's MAC keys as a transport-compatible key ring."""
        return BundleKeyRing(n, self.node, self.mac_keys)

    def validate(self, manifest: RunManifest) -> None:
        """Refuse mismatched or tampered setup material, loudly.

        Checks the bundle against the manifest it claims to serve: run
        identity, scenario hash, MAC-key coverage, coin-seed derivation,
        and (share coin) every predistributed share against the
        deterministic dealer the scenario implies.
        """
        scenario = manifest.scenario
        if self.run_id != manifest.run_id:
            raise ConfigError(
                f"bundle run_id {self.run_id!r} != manifest {manifest.run_id!r}"
            )
        if self.digest != manifest.digest:
            raise ConfigError(
                "bundle scenario_hash does not match the manifest; "
                "this bundle was dealt for a different scenario"
            )
        if not 0 <= self.node < scenario.n:
            raise ConfigError(f"bundle node {self.node} out of range")
        if sorted(self.mac_keys) != list(range(scenario.n)):
            raise ConfigError(
                f"bundle MAC keys cover peers {sorted(self.mac_keys)}, "
                f"need 0..{scenario.n - 1}"
            )
        expected_seeds = coin_seeds(
            scenario.protocol, scenario.seed, scenario.instances, scenario.n
        )
        if self.coin_scheme != scenario.coin_name:
            raise ConfigError(
                f"bundle coin scheme {self.coin_scheme!r} != scenario "
                f"{scenario.coin_name!r}"
            )
        if self.coin_seeds != expected_seeds:
            raise ConfigError(
                "bundle coin seeds do not derive from the scenario seed "
                "(tampered or mis-dealt setup)"
            )
        if self.coin_scheme == "shares":
            params = scenario.params
            dealer = CoinDealer(params.n, params.t, share_dealer_seed(scenario))
            if len(self.shares) < SHARE_HORIZON:
                raise ConfigError(
                    f"bundle carries {len(self.shares)} coin shares, "
                    f"expected {SHARE_HORIZON}"
                )
            for signed in self.shares:
                if signed.holder != self.node or not dealer.verify(signed):
                    raise ConfigError(
                        f"bad dealer share for round {signed.round} in "
                        f"node {self.node}'s bundle"
                    )
        elif self.shares:
            raise ConfigError(
                f"coin scheme {self.coin_scheme!r} takes no dealer shares"
            )


class BundleKeyRing:
    """A :class:`~repro.net.auth.KeyRing`-shaped view over bundle keys.

    The real :class:`KeyRing` can mint any pair's key from the master
    secret; a node process holds only its own row, so this ring can
    authenticate exactly one pid — the transport's
    ``keyring.authenticator(pid)`` call — and refuses anything else.
    """

    def __init__(self, n: int, node: ProcessId, keys: Mapping[ProcessId, bytes]):
        self.n = n
        self._node = node
        self._keys = dict(keys)

    def authenticator(self, pid: ProcessId) -> Authenticator:
        if pid != self._node:
            raise ConfigError(
                f"bundle of node {self._node} cannot authenticate pid {pid}"
            )
        return Authenticator(pid, self._keys)


# ---------------------------------------------------------------------------
# The dealer
# ---------------------------------------------------------------------------


def deal(
    scenario: Scenario,
    out_dir: str,
    addresses: Optional[Mapping[ProcessId, Tuple[str, int]]] = None,
) -> Tuple[str, Dict[ProcessId, str]]:
    """Materialise one run's trusted setup into ``out_dir``.

    Either pass explicit ``addresses`` (pid → ``(host, port)``) or let
    the dealer assign ``scenario.host`` with consecutive ports from the
    scenario's ``base_port`` — or, when that is 0, port 0 ("bind any
    free port", for nodes an orchestrator readdresses) for every node.
    Returns ``(manifest_path, {pid: bundle_path})``.
    """
    n = scenario.n
    if addresses is None:
        first = scenario.base_port
        addresses = {pid: (scenario.host, first + pid if first else 0)
                     for pid in range(n)}
    else:
        addresses = {int(pid): (host, int(port))
                     for pid, (host, port) in addresses.items()}
        if sorted(addresses) != list(range(n)):
            raise ConfigError(
                f"addresses cover {sorted(addresses)}, need pids 0..{n - 1}"
            )

    digest = scenario_hash(scenario)
    run_id = f"mp-{digest[:12]}-s{scenario.seed}"
    ring = KeyRing(n, master_secret=_setup_secret(scenario.seed, digest))
    seeds = coin_seeds(
        scenario.protocol, scenario.seed, scenario.instances, scenario.n
    )
    dealer: Optional[CoinDealer] = None
    if scenario.coin_name == "shares":
        params = scenario.params
        dealer = CoinDealer(params.n, params.t, share_dealer_seed(scenario))

    os.makedirs(out_dir, exist_ok=True)
    bundles: Dict[ProcessId, str] = {}
    bundle_names = {pid: f"node-{pid}.json" for pid in range(n)}
    manifest = RunManifest(
        run_id=run_id,
        scenario=scenario,
        digest=digest,
        addresses=dict(addresses),
        bundles=bundle_names,
    )
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")

    for pid in range(n):
        shares: Tuple[SignedShare, ...] = ()
        if dealer is not None:
            shares = tuple(
                dealer.share_for(pid, r) for r in range(SHARE_HORIZON)
            )
        bundle = NodeBundle(
            node=pid,
            run_id=run_id,
            digest=digest,
            mac_keys={
                other: ring.pair_key(pid, other) for other in range(n)
            },
            coin_scheme=scenario.coin_name,
            coin_seeds=seeds,
            shares=shares,
        )
        path = os.path.join(out_dir, bundle_names[pid])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bundle.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        bundles[pid] = path
    return manifest_path, bundles


def load_manifest(path: str) -> RunManifest:
    """Read and validate a ``manifest.json``; all defects raise
    :class:`~repro.errors.ConfigError` naming the file."""
    return RunManifest.from_dict(_load_json(path))


def load_bundle(path: str) -> NodeBundle:
    """Read a ``node-<pid>.json`` bundle (validate it against a manifest
    with :meth:`NodeBundle.validate` before use)."""
    return NodeBundle.from_dict(_load_json(path))


def _load_json(path: str) -> Any:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return data


__all__ = [
    "BUNDLE_VERSION",
    "BundleKeyRing",
    "NodeBundle",
    "RunManifest",
    "SHARE_HORIZON",
    "deal",
    "load_bundle",
    "load_manifest",
    "scenario_hash",
    "share_dealer_seed",
]
