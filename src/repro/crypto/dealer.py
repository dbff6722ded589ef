"""The trusted coin dealer of Rabin's scheme.

Before the execution starts, the dealer draws one uniform field element
per round, Shamir-shares it with threshold ``t+1`` among the ``n``
processes, and authenticates each share so that Byzantine processes can
neither forge shares nor profitably submit corrupted ones.  The coin for
round ``r`` is the low bit of the recovered secret.

The dealer object exists only at setup time in a real deployment; in the
simulator it lives alongside the run, and the adversary may hold the
shares of the faulty processes (at most ``t``, hence no information).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from random import Random
from typing import Dict, Sequence, Tuple

from ..errors import AuthenticationError, ConfigError
from ..types import Bit, ProcessId, Round
from .shamir import PRIME, Share, recover_secret, share_secret


@dataclass(frozen=True)
class SignedShare:
    """A share bound to (holder, round) by the dealer's MAC."""

    holder: ProcessId
    round: Round
    share: Share
    tag: bytes


class CoinDealer:
    """Issues authenticated Shamir shares of per-round coin secrets.

    Args:
        n: number of processes.
        t: adversary bound; sharing threshold is ``t+1``.
        seed: randomness for the secrets and polynomials.

    Shares are issued lazily per round and memoized, so an execution of
    any length sees consistent shares without pre-declaring a horizon.
    """

    def __init__(self, n: int, t: int, seed: int = 0):
        if n < 1:
            raise ConfigError("dealer needs at least one process")
        if not 0 <= t < n:
            raise ConfigError(f"invalid fault bound t={t} for n={n}")
        self.n = n
        self.t = t
        self._seed = seed
        self._key = hashlib.sha256(f"dealer-key-{seed}".encode()).digest()
        self._secrets: Dict[Round, int] = {}
        self._shares: Dict[Round, Dict[ProcessId, SignedShare]] = {}

    # -- setup-time interface ---------------------------------------------

    def _ensure_round(self, round_: Round) -> None:
        if round_ in self._shares:
            return
        # The per-round randomness is derived from (seed, round) so the
        # coin for round r is the same no matter in which order rounds
        # are first touched — schedulers must not influence coin values.
        material = hashlib.sha256(f"dealer-round-{self._seed}-{round_}".encode())
        round_rng = Random(int.from_bytes(material.digest()[:8], "big"))
        secret = round_rng.randrange(PRIME)
        self._secrets[round_] = secret
        xs = [pid + 1 for pid in range(self.n)]
        shares = share_secret(secret, self.t + 1, xs, round_rng)
        issued: Dict[ProcessId, SignedShare] = {}
        for pid, share in zip(range(self.n), shares):
            issued[pid] = SignedShare(pid, round_, share, self._tag(pid, round_, share))
        self._shares[round_] = issued

    def share_for(self, pid: ProcessId, round_: Round) -> SignedShare:
        """The share predistributed to ``pid`` for ``round_``."""
        if not 0 <= pid < self.n:
            raise ConfigError(f"pid {pid} out of range")
        self._ensure_round(round_)
        return self._shares[round_][pid]

    # -- verification ---------------------------------------------------

    def _tag(self, pid: ProcessId, round_: Round, share: Share) -> bytes:
        message = f"{pid}|{round_}|{share.x}|{share.y}".encode()
        return hmac.new(self._key, message, hashlib.sha256).digest()

    def verify(self, signed: SignedShare) -> bool:
        """Check the dealer MAC on a share (receivers call this)."""
        share = signed.share
        if not (
            isinstance(share, Share)
            and all(isinstance(field, int) for field in
                    (signed.holder, signed.round, share.x, share.y))
            and isinstance(signed.tag, bytes)
        ):
            # Wire input of the wrong shape.  The MAC covers a *rendering*
            # of the fields, so ``x="3"`` would carry the tag issued for
            # ``x=3`` into the interpolation; only ints get that far.
            return False
        expected = self._tag(signed.holder, signed.round, share)
        return hmac.compare_digest(expected, signed.tag)

    def require(self, signed: SignedShare) -> None:
        if not self.verify(signed):
            raise AuthenticationError(
                f"bad dealer tag on share of p{signed.holder} round {signed.round}"
            )

    # -- reconstruction ---------------------------------------------------

    def reconstruct(self, shares: Sequence[SignedShare]) -> Tuple[int, Bit]:
        """Recover (secret, coin bit) from at least ``t+1`` verified shares."""
        verified = [s for s in shares if self.verify(s)]
        if len(verified) < self.t + 1:
            raise AuthenticationError(
                f"need {self.t + 1} verified shares, have {len(verified)}"
            )
        rounds = {s.round for s in verified}
        if len(rounds) != 1:
            raise AuthenticationError("shares from different rounds")
        secret = recover_secret([s.share for s in verified[: self.t + 1]])
        return secret, secret & 1

    # -- omniscient access (harness / adversary modelling only) -----------

    def coin_value(self, round_: Round) -> Bit:
        """The true coin bit (test oracle; not available to protocols)."""
        self._ensure_round(round_)
        return self._secrets[round_] & 1
