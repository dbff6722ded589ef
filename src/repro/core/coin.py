"""Coin sources for the randomized consensus protocol.

Bracha's protocol delegates its probabilistic choice (step 3, no decisive
majority) to a coin.  The paper's base model uses **local coins** —
private fair bits, as in Ben-Or — giving termination with probability 1
and constant expected rounds when ``t = O(√n)``.  With a **common coin**
(Rabin 1983) the expected number of rounds is a constant for any
``t < n/3``.

Three sources are provided behind one interface:

* :class:`LocalCoin` — each process flips privately.  Zero messages.
* :class:`DealerCoin` — oracle-style common coin: all processes see the
  same per-round bit, the adversary can observe it only once some
  process has *released* (queried) it.  Zero messages; the fast choice
  for large parameter sweeps.
* :class:`ShareCoinProvider` / :class:`ShareCoinModule` — the real
  construction: the dealer predistributes authenticated Shamir shares
  (threshold ``t+1``) of each round's coin; processes broadcast their
  share to release, and reconstruct on receiving ``t+1`` verified
  shares.  ``O(n²)`` messages per round, faithful to Rabin's scheme.

The interface is asynchronous (``request(round, callback)``) because the
share-based coin genuinely takes message exchanges to produce a value;
oracle coins call back immediately.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..crypto.dealer import CoinDealer, SignedShare
from ..sim.process import ProtocolModule
from ..sim.rng import derive_seed
from ..types import Bit, ProcessId, Round

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.process import Process

CoinCallback = Callable[[Round, Bit], None]


class CoinScheme(abc.ABC):
    """Run-wide coin configuration.

    One scheme object is shared by a whole simulation; :meth:`attach`
    produces the per-process source (possibly installing a protocol
    module on the process).
    """

    name: str = "coin"
    common: bool = False

    @abc.abstractmethod
    def attach(self, process: "Process") -> "CoinSource":
        """Bind the scheme to one process, returning its coin source."""


class CoinSource(abc.ABC):
    """Per-process handle used by the consensus module."""

    @abc.abstractmethod
    def request(self, round_: Round, callback: CoinCallback) -> None:
        """Release the coin for ``round_``; ``callback(round, bit)`` fires
        when the value is available (possibly synchronously)."""


# ---------------------------------------------------------------------------
# Local coin (Ben-Or style)
# ---------------------------------------------------------------------------


class LocalCoin(CoinScheme):
    """Private per-process fair coins — the paper's base model.

    ``salt`` separates the coin streams of concurrent protocol instances
    (e.g. the ``n`` parallel agreements inside ACS) so their randomness
    is independent under one master seed.
    """

    name = "local"
    common = False

    def __init__(self, salt: object = ""):
        self.salt = salt

    def attach(self, process: "Process") -> "CoinSource":
        return _LocalCoinSource(process, self.salt)


class _LocalCoinSource(CoinSource):
    def __init__(self, process: "Process", salt: object):
        self._process = process
        self._salt = salt

    def request(self, round_: Round, callback: CoinCallback) -> None:
        # A pure function of (seed, salt, pid, round): re-requesting a
        # round yields the same bit, like a predistributed random tape.
        seed = derive_seed(
            self._process.network.rng.master_seed,
            "localcoin", self._salt, self._process.pid, round_,
        )
        callback(round_, Random(seed).randrange(2))


# ---------------------------------------------------------------------------
# Oracle common coin (dealer value revealed directly)
# ---------------------------------------------------------------------------


class DealerCoin(CoinScheme):
    """Common coin as an oracle over the dealer's per-round secrets.

    Message-free stand-in for the share-based construction with identical
    interface and distribution.  Tracks *release*: the adversary may call
    :meth:`peek` and learns the bit only once some process has requested
    it — modelling the unpredictability property honestly, which the
    coin-rushing attack strategies rely on.
    """

    name = "dealer"
    common = True

    def __init__(self, n: int, t: int, seed: int = 0):
        self.dealer = CoinDealer(n, t, seed)
        self._released: set[Round] = set()

    def attach(self, process: "Process") -> "CoinSource":
        return _DealerCoinSource(self, process.pid)

    def value(self, round_: Round) -> Bit:
        """The coin bit (test oracle — protocols go through a source)."""
        return self.dealer.coin_value(round_)

    def release(self, round_: Round) -> Bit:
        self._released.add(round_)
        return self.dealer.coin_value(round_)

    def peek(self, round_: Round) -> Optional[Bit]:
        """Adversary view: the bit if released, else nothing."""
        if round_ in self._released:
            return self.dealer.coin_value(round_)
        return None


class _DealerCoinSource(CoinSource):
    def __init__(self, scheme: DealerCoin, pid: ProcessId):
        self._scheme = scheme
        self._pid = pid

    def request(self, round_: Round, callback: CoinCallback) -> None:
        callback(round_, self._scheme.release(round_))


# ---------------------------------------------------------------------------
# Share-based common coin (Rabin 1983, for real)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoinShareMsg:
    """Wire format: one process's authenticated share for one round."""

    round: Round
    share: SignedShare


class ShareCoinModule(ProtocolModule):
    """Distributed common coin from predistributed Shamir shares.

    On :meth:`request`, the process broadcasts its dealer-issued share
    for the round (the *release*).  On collecting ``t+1`` shares that
    verify against the dealer's MAC, it reconstructs the secret and
    outputs the low bit.  Correctness: at most ``t`` faulty processes
    hold ``t`` shares — one short of the threshold — so the bit is
    unpredictable until a correct process releases; any ``t+1`` verified
    shares recover the same polynomial, so all correct processes output
    the same bit.
    """

    MODULE_ID = "coin"

    def __init__(self, dealer: CoinDealer, module_id: str = MODULE_ID):
        super().__init__(module_id)
        self._dealer = dealer
        self._shares: Dict[Round, Dict[ProcessId, SignedShare]] = {}
        self._value: Dict[Round, Bit] = {}
        self._callbacks: Dict[Round, List[CoinCallback]] = {}
        self._released: set[Round] = set()

    # -- CoinSource interface -----------------------------------------------

    def request(self, round_: Round, callback: CoinCallback) -> None:
        assert self.ctx is not None, "module not bound to a process"
        if round_ in self._value:
            callback(round_, self._value[round_])
            return
        self._callbacks.setdefault(round_, []).append(callback)
        if round_ not in self._released:
            self._released.add(round_)
            own = self._dealer.share_for(self.ctx.pid, round_)
            self.ctx.broadcast(CoinShareMsg(round_, own))

    # -- wire ---------------------------------------------------------------

    def on_message(self, sender: ProcessId, payload: object) -> None:
        if not isinstance(payload, CoinShareMsg):
            return
        signed = payload.share
        if not isinstance(signed, SignedShare):
            return
        if signed.holder != sender or signed.round != payload.round:
            return  # a share may only be submitted by its holder
        if not self._dealer.verify(signed):
            return  # forged or corrupted share
        collected = self._shares.setdefault(payload.round, {})
        if sender in collected:
            return
        collected[sender] = signed
        self._maybe_reconstruct(payload.round)

    def _maybe_reconstruct(self, round_: Round) -> None:
        if round_ in self._value:
            return
        collected = self._shares.get(round_, {})
        if len(collected) < self._dealer.t + 1:
            return
        _secret, bit = self._dealer.reconstruct(list(collected.values()))
        self._value[round_] = bit
        for callback in self._callbacks.pop(round_, []):
            callback(round_, bit)

    def close(self) -> None:
        super().close()
        self._callbacks.clear()

    # -- inspection --------------------------------------------------------

    def value(self, round_: Round) -> Optional[Bit]:
        return self._value.get(round_)


class ShareCoinProvider(CoinScheme):
    """Scheme wrapper installing a :class:`ShareCoinModule` per process."""

    name = "shares"
    common = True

    def __init__(self, n: int, t: int, seed: int = 0):
        self.dealer = CoinDealer(n, t, seed)

    def attach(self, process: "Process") -> CoinSource:
        module = ShareCoinModule(self.dealer)
        process.add_module(module)
        return module
