"""Pairwise message authentication over wire bytes.

Bracha's protocol is *signature-free*: it needs only authenticated
channels, i.e. symmetric MACs between each pair of processes, and remains
secure against a computationally unbounded adversary (information-
theoretic MACs exist; we use HMAC-SHA256 as a stand-in with the same
interface).

A trusted setup (:class:`KeyRing`) derives one shared key per unordered
pair of processes from a master secret.  :class:`Authenticator` binds a
key ring to one process and produces/verifies per-frame tags.  A tag is
computed over the frame's wire bytes (its :mod:`~repro.runtime.binarycodec`
body) and covers (source, dest, body), so frames cannot be redirected or
replayed across links undetected.  There is no other MAC path.

The simulator's network layer delivers the true sender identity out of
band — the standard idealization of exactly this machinery.  The tests in
``tests/unit/test_auth.py`` and ``tests/unit/test_link_macs.py`` validate
that the concrete machinery enforces what the idealization assumes: no
forgery across identities, no tampering, no cross-link replay.
"""

from __future__ import annotations

import hashlib
import hmac

from ..errors import AuthenticationError
from ..types import ProcessId

__all__ = ["AuthenticationError", "Authenticator", "KeyRing"]


class KeyRing:
    """Pairwise symmetric keys for ``n`` processes, from one master secret."""

    def __init__(self, n: int, master_secret: bytes = b"repro-trusted-setup"):
        if n < 1:
            raise AuthenticationError("key ring needs at least one process")
        self.n = n
        self._master = master_secret

    def pair_key(self, a: ProcessId, b: ProcessId) -> bytes:
        """The shared key of the unordered pair ``{a, b}``."""
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise AuthenticationError(f"pid out of range: {a}, {b}")
        lo, hi = min(a, b), max(a, b)
        material = self._master + f"|pair|{lo}|{hi}".encode()
        return hashlib.sha256(material).digest()

    def authenticator(self, pid: ProcessId) -> "Authenticator":
        """An :class:`Authenticator` holding only ``pid``'s keys."""
        keys = {
            other: self.pair_key(pid, other)
            for other in range(self.n)
        }
        return Authenticator(pid, keys)


class Authenticator:
    """Per-process MAC producer/verifier.

    Holds only the keys this process legitimately owns, so an
    authenticator for a Byzantine process is *unable* to tag messages as
    originating from anyone else — the property the protocols rely on.

    Each link's key is scheduled once: for every peer the authenticator
    keeps two HMAC-SHA256 states, one per direction, with the link's
    ``src>dst|`` prefix already absorbed.  A tag copies the state and
    feeds it the payload, so the bytes are exactly those of one
    ``hmac.new(key, prefix + payload)`` call, minus the key schedule.
    """

    def __init__(self, pid: ProcessId, keys: dict[ProcessId, bytes]):
        self.pid = pid
        self._outbound = {
            peer: hmac.new(key, f"{pid}>{peer}|".encode(), hashlib.sha256)
            for peer, key in keys.items()
        }
        self._inbound = {
            peer: hmac.new(key, f"{peer}>{pid}|".encode(), hashlib.sha256)
            for peer, key in keys.items()
        }

    def tag_bytes(self, dest: ProcessId, payload: "bytes | memoryview") -> bytes:
        """MAC tag over a frame's wire bytes to ``dest``.

        The tag binds the src→dst link, so a frame cannot be redirected
        or claimed by another sender.  A :class:`memoryview` is hashed
        in place, so the transports' zero-copy receive path never has
        to materialize the frame body to authenticate it.
        """
        state = self._outbound.get(dest)
        if state is None:
            raise AuthenticationError(f"p{self.pid} has no key for p{dest}")
        mac = state.copy()
        mac.update(payload)
        return mac.digest()

    def verify_bytes(
        self, source: ProcessId, payload: "bytes | memoryview", tag: "bytes | memoryview"
    ) -> bool:
        """Check a :meth:`tag_bytes` tag on wire bytes claimed from ``source``."""
        state = self._inbound.get(source)
        if state is None:
            return False
        mac = state.copy()
        mac.update(payload)
        return hmac.compare_digest(mac.digest(), tag)
