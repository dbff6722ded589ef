"""Link-layer MACs: the machinery behind 'authenticated channels'."""

import pytest

from repro.net.auth import AuthenticationError, Authenticator, KeyRing


@pytest.fixture
def ring():
    return KeyRing(4, master_secret=b"test-secret")


class TestKeyRing:
    def test_pair_key_symmetric(self, ring):
        assert ring.pair_key(1, 3) == ring.pair_key(3, 1)

    def test_pair_keys_distinct(self, ring):
        assert ring.pair_key(0, 1) != ring.pair_key(0, 2)

    def test_out_of_range_rejected(self, ring):
        with pytest.raises(AuthenticationError):
            ring.pair_key(0, 9)

    def test_empty_ring_rejected(self):
        with pytest.raises(AuthenticationError):
            KeyRing(0)

    def test_different_master_secret_different_keys(self):
        a = KeyRing(4, master_secret=b"a").pair_key(0, 1)
        b = KeyRing(4, master_secret=b"b").pair_key(0, 1)
        assert a != b


class TestAuthenticator:
    def test_round_trip(self, ring):
        sender = ring.authenticator(0)
        receiver = ring.authenticator(2)
        tag = sender.tag_bytes(2, b"hello")
        assert receiver.verify_bytes(0, b"hello", tag)

    def test_tampered_payload_rejected(self, ring):
        sender = ring.authenticator(0)
        receiver = ring.authenticator(2)
        tag = sender.tag_bytes(2, b"hello")
        assert not receiver.verify_bytes(0, b"HELLO", tag)

    def test_wrong_claimed_source_rejected(self, ring):
        """p1 cannot pass its messages off as coming from p0."""
        byzantine = ring.authenticator(1)
        receiver = ring.authenticator(2)
        tag = byzantine.tag_bytes(2, b"forged")
        assert not receiver.verify_bytes(0, b"forged", tag)

    def test_cross_link_replay_rejected(self, ring):
        """A tag for (0→2) must not validate on the (0→3) link."""
        sender = ring.authenticator(0)
        other_receiver = ring.authenticator(3)
        tag = sender.tag_bytes(2, b"hello")
        assert not other_receiver.verify_bytes(0, b"hello", tag)

    def test_truncated_tag_rejected(self, ring):
        sender = ring.authenticator(0)
        receiver = ring.authenticator(2)
        tag = sender.tag_bytes(2, b"hello")
        assert not receiver.verify_bytes(0, b"hello", tag[:-1])
        assert not receiver.verify_bytes(0, b"hello", b"")

    def test_empty_body_is_authenticated(self, ring):
        sender = ring.authenticator(0)
        receiver = ring.authenticator(2)
        tag = sender.tag_bytes(2, b"")
        assert receiver.verify_bytes(0, b"", tag)
        assert not receiver.verify_bytes(0, b"\x00", tag)

    def test_another_trusted_setup_cannot_tag_for_this_one(self, ring):
        outsider = KeyRing(4, master_secret=b"other-setup").authenticator(0)
        receiver = ring.authenticator(2)
        tag = outsider.tag_bytes(2, b"hello")
        assert not receiver.verify_bytes(0, b"hello", tag)

    def test_tag_needs_known_destination(self, ring):
        auth = Authenticator(0, {1: b"k" * 32})
        with pytest.raises(AuthenticationError):
            auth.tag_bytes(2, b"x")

    def test_verify_unknown_source_is_false(self, ring):
        auth = Authenticator(0, {1: b"k" * 32})
        assert not auth.verify_bytes(2, b"x", b"\x00" * 32)

    def test_structured_payloads_supported(self, ring):
        """A protocol message is authenticated as its wire body."""
        from repro.runtime.binarycodec import dumps
        from repro.types import StepValue

        sender = ring.authenticator(0)
        receiver = ring.authenticator(1)
        body = dumps(("bracha", StepValue(1, decide=True)))
        assert receiver.verify_bytes(0, body, sender.tag_bytes(1, body))
