"""Rabin's common-coin agreement (FOCS 1983) as a configuration.

Rabin's contribution is the *coin*, not the round structure: a trusted
dealer predistributes secret-shared random bits, and any
quorum-overlapping agreement skeleton driven by that coin decides in a
constant expected number of rounds.  In this library Rabin's protocol is
therefore exactly **Bracha's rounds + the dealer coin** — the
configuration ``Scenario(protocol="bracha", coin="dealer")`` (oracle
coin) or ``coin="shares"`` (the real shared-coin reconstruction over
the network, built on :mod:`repro.crypto.shamir`).

This module exists to make that identification explicit and to give the
benchmark suite a named baseline.
"""

from __future__ import annotations

from typing import Any, Dict


def rabin_configuration(distributed_coin: bool = False) -> Dict[str, Any]:
    """:class:`~repro.scenario.Scenario` fields selecting Rabin's protocol.

    >>> from repro.scenario import Scenario, run
    >>> from repro.baselines import rabin_configuration
    >>> result = run(Scenario(n=4, seed=1, **rabin_configuration()))
    >>> len(result.decided_values)
    1

    With ``distributed_coin=True`` the coin is reconstructed from
    authenticated Shamir shares over the network (``O(n²)`` extra
    messages per round) instead of read from the dealer oracle.
    """
    return {"coin": "shares" if distributed_coin else "dealer"}
