"""Each link's MAC state: one key schedule per link, the same tags.

``Authenticator`` keeps one HMAC-SHA256 state per (link, direction)
with the ``src>dst|`` prefix already absorbed and copies it per frame.
The tags must stay byte-identical to one plain ``hmac.new`` over the
prefixed body, and stay bound to their link.
"""

import hashlib
import hmac
import re
from pathlib import Path

import repro
from repro.net.auth import KeyRing

N = 7
BODY = b"\xb1\x01body of a frame \x00\xff" * 3


def _bodies():
    return [BODY, memoryview(b"--" + BODY + b"--")[2:-2]]


def test_every_link_tags_as_one_plain_hmac_over_the_prefixed_body():
    ring = KeyRing(N, master_secret=b"link-macs")
    for src in range(N):
        auth = ring.authenticator(src)
        for dst in range(N):
            expected = hmac.new(
                ring.pair_key(src, dst), f"{src}>{dst}|".encode() + BODY,
                hashlib.sha256,
            ).digest()
            for body in _bodies():
                assert auth.tag_bytes(dst, body) == expected, (src, dst)
            # Copying the state leaves it as it was: the same tag again.
            assert auth.tag_bytes(dst, BODY) == expected


def test_a_tag_verifies_on_its_own_link_and_fails_on_every_other():
    ring = KeyRing(N, master_secret=b"link-macs")
    auths = [ring.authenticator(pid) for pid in range(N)]
    links = [(src, dst) for src in range(N) for dst in range(N)]
    for src, dst in links:
        for body in _bodies():
            tag = auths[src].tag_bytes(dst, body)
            for claimed_src, receiver in links:
                ok = auths[receiver].verify_bytes(claimed_src, body, tag)
                assert ok == ((claimed_src, receiver) == (src, dst)), (
                    (src, dst), (claimed_src, receiver))


def test_a_body_with_one_flipped_bit_is_rejected():
    ring = KeyRing(N, master_secret=b"link-macs")
    auths = [ring.authenticator(pid) for pid in range(N)]
    for src in range(N):
        for dst in range(N):
            tag = auths[src].tag_bytes(dst, BODY)
            for bit in range(len(BODY) * 8):
                flipped = bytearray(BODY)
                flipped[bit // 8] ^= 1 << (bit % 8)
                for body in (bytes(flipped), memoryview(flipped)):
                    assert not auths[dst].verify_bytes(src, body, tag)
            assert auths[dst].verify_bytes(src, memoryview(BODY), tag)


def test_no_other_module_computes_a_link_mac():
    """``hmac`` is imported by the link MAC and by the dealer's share
    signatures, nowhere else: there is no second link MAC path."""
    src = Path(repro.__file__).parent
    importers = sorted(
        path.relative_to(src).as_posix() for path in src.rglob("*.py")
        if re.search(r"^\s*(import|from)\s+hmac\b", path.read_text(), re.M)
    )
    assert importers == ["crypto/dealer.py", "net/auth.py"]
