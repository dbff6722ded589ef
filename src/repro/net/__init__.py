"""Link-layer functionality: pairwise message authentication.

Bracha's model assumes *authenticated* reliable point-to-point links: the
receiver of a message knows which process sent it, and faulty processes
cannot forge messages on behalf of correct ones.  The simulator passes the
true sender out of band (the usual idealization); on the tcp and mp
fabrics every frame carries an HMAC over its wire bytes, computed by
:mod:`repro.net.auth` (``Authenticator.tag_bytes`` / ``verify_bytes``),
so the idealization is backed by working code on the wire.
"""

from .auth import AuthenticationError, Authenticator, KeyRing

__all__ = ["AuthenticationError", "Authenticator", "KeyRing"]
