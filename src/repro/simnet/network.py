"""The simulated network and its endpoints.

A :class:`Network` connects :class:`Site` endpoints.  Sending a message
charges simulated time (latency + bandwidth) to the shared clock and
then synchronously invokes the destination site's handler for the
message kind.  Handlers return a reply payload where the protocol calls
for one; the reply is itself charged as a message.

Synchronous delivery is faithful to the paper's model: an RPC session
has exactly one active thread, so the sender is always blocked while
the receiver works.

The network is reliable by default (the paper's evaluation assumes a
quiet Ethernet).  Constructing it with a nonzero ``loss_rate`` makes
delivery lossy and deterministic (seeded): exchanges then run the
classic Birrell-Nelson machinery — timeout, retransmission, and
at-most-once execution via a per-site duplicate cache keyed by
exchange id, so a handler's side effects happen exactly once per
logical send however many retransmissions it takes.

:class:`Network` and :class:`Site` implement the pluggable transport
contract in :mod:`repro.transport.base` (which was extracted from this
module); :class:`repro.transport.tcp.TcpTransport` is the real
inter-process implementation of the same contract.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Optional

from repro.simnet.clock import CostModel, SimClock
from repro.simnet.message import Message, MessageKind
from repro.simnet.stats import StatsCollector
from repro.transport.base import (
    Endpoint,
    Handler,
    Transport,
    TransportError as _BaseTransportError,
)
from repro.transport.exchange import FaultInjector

__all__ = [
    "Handler",
    "Network",
    "NetworkError",
    "Site",
    "TransportError",
]

_MAX_ATTEMPTS = 24
_REPLY_CACHE_LIMIT = 4096
_exchange_ids = itertools.count(1)


class NetworkError(Exception):
    """Raised for malformed network usage (unknown site, no handler)."""


class TransportError(NetworkError, _BaseTransportError):
    """An exchange failed even after every retransmission."""


class Site(Endpoint):
    """One endpoint (machine + process) on the simulated network.

    A site is identified by its ``site_id`` string — the paper's
    "address space identifier (typically a pair consisting of a site ID
    and a process ID)".  Runtimes register one handler per message kind.
    """

    no_handler_error = NetworkError

    def __init__(
        self,
        site_id: str,
        network: "Network",
        reply_cache_limit: int = _REPLY_CACHE_LIMIT,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(site_id, reply_cache_limit=reply_cache_limit)
        self.network = network
        self.faults = faults

    def send(
        self,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        """Send a message from this site; see :meth:`Network.send`.

        ``timeout`` is accepted for transport-contract compatibility
        and ignored: simulated delivery is synchronous, so an exchange
        either completes now or fails now.
        """
        return self.network.send(self.site_id, dst, kind, payload, reply_kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Site({self.site_id!r})"


class Network(Transport):
    """A deterministic point-to-point network with a shared cost model."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        retransmit_timeout: float = 2e-3,
        reply_cache_limit: int = _REPLY_CACHE_LIMIT,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"bad loss rate {loss_rate!r}")
        super().__init__(clock=clock, cost_model=cost_model, stats=stats)
        self.loss_rate = loss_rate
        self.retransmit_timeout = retransmit_timeout
        self.reply_cache_limit = reply_cache_limit
        self._rng = random.Random(loss_seed)
        self._sites: Dict[str, Site] = {}
        # Deterministic crash injection (the crash-matrix tests): a
        # crashed site neither sends nor receives.
        self._crashed: set = set()

    def add_site(
        self, site_id: str, faults: Optional[FaultInjector] = None
    ) -> Site:
        """Create and register a new endpoint.

        ``faults`` is the same :class:`FaultInjector` the real carriers
        take (``crash-send=KIND:N`` / ``crash-recv=KIND:N`` clauses),
        so the crash matrix runs one fault spec on every carrier.  A
        planned crash marks the site crashed; only the crash clauses
        apply here (losses come from the network's ``loss_rate``).
        """
        if site_id in self._sites:
            raise NetworkError(f"duplicate site id {site_id!r}")
        site = Site(
            site_id,
            self,
            reply_cache_limit=self.reply_cache_limit,
            faults=faults,
        )
        self._sites[site_id] = site
        return site

    def site(self, site_id: str) -> Site:
        """Look up an endpoint by id."""
        try:
            return self._sites[site_id]
        except KeyError:
            raise NetworkError(f"unknown site {site_id!r}") from None

    @property
    def site_ids(self) -> list:
        """All registered site ids, in registration order."""
        return list(self._sites)

    # -- deterministic crash injection ------------------------------------

    def crash(self, site_id: str) -> None:
        """Mark a site dead: it neither sends nor receives from now on."""
        if site_id not in self._sites:
            raise NetworkError(f"unknown site {site_id!r}")
        self._crashed.add(site_id)

    def is_crashed(self, site_id: str) -> bool:
        """Whether ``site_id`` has crashed."""
        return site_id in self._crashed

    def send(
        self,
        src: str,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind] = None,
    ) -> bytes:
        """Deliver one message and, optionally, account its reply.

        The destination handler runs synchronously and its return value
        is the reply body.  When ``reply_kind`` is given the reply is
        charged to the network as its own message; otherwise the handler
        must return ``b""`` and no reply is charged (one-way message).

        Under a lossy network the exchange retries with timeouts until
        it completes; the handler's effects happen at most once.
        """
        if src not in self._sites:
            raise NetworkError(f"unknown source site {src!r}")
        destination = self.site(dst)
        if src in self._crashed:
            raise TransportError(
                f"{kind} exchange {src!r}->{dst!r} failed: "
                f"source site {src!r} has crashed"
            )
        if dst in self._crashed:
            # The peer is dead: every retransmission times out and the
            # exchange fails, exactly like the TCP transport's
            # exhausted retry schedule.
            self._timeout(src)
            raise TransportError(
                f"{kind} exchange {src!r}->{dst!r} failed: "
                f"destination site {dst!r} has crashed"
            )
        source = self._sites[src]
        if destination.faults is not None and (
            destination.faults.crash_on_receive(kind)
        ):
            # The receiver dies before processing this frame — its
            # clock never observes the sender's (no delivery merge).
            message = Message(src=src, dst=dst, kind=kind, payload=payload)
            self._charge(message)
            self.crash(dst)
            raise TransportError(
                f"{kind} exchange {src!r}->{dst!r} failed: "
                f"destination site {dst!r} crashed on receive"
            )
        if source.faults is not None and (
            source.faults.crash_after_send(kind)
        ):
            # The sender dies right after the frame leaves: the
            # receiver processes it, but the reply is lost with the
            # sender (one legal interleaving of a mid-exchange crash).
            message = Message(src=src, dst=dst, kind=kind, payload=payload)
            self._charge(message)
            destination.vclock.merge(source.vclock.snapshot())
            destination.handle(message)
            self.crash(src)
            raise TransportError(
                f"{kind} exchange {src!r}->{dst!r} failed: "
                f"source site {src!r} crashed after send"
            )
        if self.loss_rate == 0.0:
            # Reliable fast path: no exchange ids, no reply caching.
            message = Message(src=src, dst=dst, kind=kind, payload=payload)
            self._charge(message)
            # Piggybacked vector clock: the receiver observes the
            # sender's clock before handling, and the reply carries the
            # receiver's clock back (synchronous delivery is the ack).
            destination.vclock.merge(source.vclock.snapshot())
            response = destination.handle(message)
            if reply_kind is None:
                if response:
                    raise NetworkError(
                        f"one-way {kind} message to {dst!r} produced "
                        "a reply"
                    )
                source.vclock.merge(destination.vclock.snapshot())
                return b""
            reply = Message(
                src=dst, dst=src, kind=reply_kind, payload=response
            )
            self._charge(reply)
            source.vclock.merge(destination.vclock.snapshot())
            return response
        exchange_id = next(_exchange_ids)
        for _ in range(_MAX_ATTEMPTS):
            message = Message(src=src, dst=dst, kind=kind, payload=payload)
            self._charge(message)
            if self._lost():
                self._timeout(src)
                continue
            destination.vclock.merge(source.vclock.snapshot())
            response = destination.handle_at_most_once(
                exchange_id, message
            )
            if reply_kind is None:
                if response:
                    raise NetworkError(
                        f"one-way {kind} message to {dst!r} produced "
                        "a reply"
                    )
                source.vclock.merge(destination.vclock.snapshot())
                return b""
            reply = Message(
                src=dst, dst=src, kind=reply_kind, payload=response
            )
            self._charge(reply)
            if self._lost():
                self._timeout(src)
                continue
            source.vclock.merge(destination.vclock.snapshot())
            return response
        raise TransportError(
            f"{kind} exchange {src!r}->{dst!r} failed after "
            f"{_MAX_ATTEMPTS} attempts"
        )

    def multicast(self, src: str, kind: MessageKind, payload: bytes) -> None:
        """Send a one-way message to every other site.

        Used by the session-end invalidation step ("multicast a message
        to the address spaces concerning the RPC session").
        """
        for site_id in self._sites:
            if site_id != src:
                self.send(src, site_id, kind, payload)

    def _lost(self) -> bool:
        return self.loss_rate > 0.0 and self._rng.random() < self.loss_rate

    def _timeout(self, src: Optional[str] = None) -> None:
        self.clock.advance(self.retransmit_timeout)
        self.note_timeout(site=src)

    def _charge(self, message: Message) -> None:
        self.clock.advance(self.cost_model.message_cost(message.size))
        sender = self._sites.get(message.src)
        stamp = None
        if sender is not None and self.stats.tracing:
            stamp = sender.stamp()
        self.note_message(message, stamp=stamp)
