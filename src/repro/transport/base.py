"""The transport abstraction every runtime speaks through.

Extracted from :class:`repro.simnet.network.Network`: the runtimes
never cared that the simulator delivered messages synchronously — they
only ever used a *site-shaped* object (``register_handler`` + ``send``)
and a *network-shaped* object (``clock`` + ``cost_model`` + ``stats``).
This module names that contract so a real inter-process transport can
slot in underneath the same runtimes, baselines, name service, tests
and benchmarks.

The pieces of the Birrell-Nelson at-most-once machinery that both
backends share also live here: the :class:`ReplyCache` (the receiver
half — a retransmitted exchange returns the cached reply instead of
re-running the handler) and the :class:`RetryPolicy` (the sender half —
timeout, exponential backoff, bounded attempts).
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterator,
    Optional,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: simnet.network implements this
    # module's ABCs, so a module-level import here would be circular.
    from repro.simnet.clock import CostModel
    from repro.simnet.message import Message, MessageKind
    from repro.simnet.stats import StatsCollector

from repro.transport.vclock import VectorClock

Handler = Callable[["Message"], bytes]


class TransportError(Exception):
    """A transport-level failure the runtimes cannot recover from."""


class ReplyCache:
    """LRU cache of replies keyed by exchange id.

    The receiver half of at-most-once RPC: a retransmitted request
    (same key) returns the cached reply without re-running the handler,
    so handler side effects happen exactly once per logical send.

    Eviction is least-recently-*used*: a hit refreshes the entry's
    recency, so a hot exchange id being retransmitted is not evicted
    before cold ones merely because it was inserted earlier.

    Two kinds of "hit" are kept apart.  ``retransmission_hits`` is the
    at-most-once metric proper: a duplicate *request* answered from the
    cache instead of re-running the handler.  ``piggyback_hits`` counts
    faults the fetch pipeline satisfied by absorbing an exchange that
    was already in flight (see :mod:`repro.smartrpc.pipeline`) — no
    duplicate request ever reached this cache, so folding them into the
    retransmission counter would inflate the at-most-once metrics.
    """

    def __init__(self, limit: int = 4096) -> None:
        if limit < 1:
            raise ValueError(f"bad reply cache limit {limit!r}")
        self.limit = limit
        self._entries: "OrderedDict[Hashable, bytes]" = OrderedDict()
        self.retransmission_hits = 0
        self.piggyback_hits = 0

    def note_piggyback(self) -> None:
        """Count one fault absorbed by an in-flight exchange."""
        self.piggyback_hits += 1

    def get(self, key: Hashable) -> Optional[bytes]:
        """The cached reply for ``key``, refreshing its recency."""
        reply = self._entries.get(key)
        if reply is not None:
            self._entries.move_to_end(key)
            self.retransmission_hits += 1
        return reply

    def put(self, key: Hashable, reply: bytes) -> None:
        """Cache ``reply``, evicting the least recently used entries."""
        self._entries[key] = reply
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class RetryPolicy:
    """Sender-side retransmission schedule: timeout, backoff, bound.

    Attributes:
        timeout: seconds to wait for the first reply.
        backoff: multiplier applied to the timeout after each failure.
        max_timeout: ceiling the growing timeout saturates at.
        max_attempts: total transmissions before the exchange fails.
    """

    timeout: float = 0.25
    backoff: float = 2.0
    max_timeout: float = 2.0
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.timeout <= 0 or self.backoff < 1.0 or self.max_attempts < 1:
            raise ValueError(f"bad retry policy {self!r}")

    def timeouts(self) -> Iterator[float]:
        """Yield the per-attempt timeouts, exponentially backed off."""
        current = self.timeout
        for _ in range(self.max_attempts):
            yield min(current, self.max_timeout)
            current *= self.backoff


class Endpoint(abc.ABC):
    """One address space's attachment point to a transport.

    A runtime installs one handler per :class:`MessageKind` and sends
    messages to peers by site id; the transport below decides whether
    that is a synchronous simulated delivery or a framed TCP exchange.
    """

    #: Exception type raised when no handler matches an incoming kind;
    #: implementations may narrow it to their own error hierarchy.
    no_handler_error = TransportError

    def __init__(
        self, site_id: str, reply_cache_limit: int = 4096
    ) -> None:
        self.site_id = site_id
        self._handlers: Dict[MessageKind, Handler] = {}
        self.reply_cache = ReplyCache(reply_cache_limit)
        self.vclock = VectorClock(site_id)

    def stamp(self, session: Optional[str] = None) -> Dict[str, object]:
        """Causal stamp for one trace event recorded at this site.

        Ticks the site's vector clock and returns the ``site`` /
        ``seq`` / ``vc`` triple every protocol event carries: the
        recording site, a per-(site, session) monotonic sequence, and
        the post-tick vector-clock snapshot.
        """
        return {
            "site": self.site_id,
            "seq": self.vclock.next_seq(session),
            "vc": self.vclock.tick(),
        }

    def register_handler(self, kind: MessageKind, handler: Handler) -> None:
        """Install ``handler`` for incoming messages of ``kind``."""
        self._handlers[kind] = handler

    def handler_for(self, kind: MessageKind) -> Optional[Handler]:
        """The installed handler for ``kind``, if any."""
        return self._handlers.get(kind)

    def handle(self, message: Message) -> bytes:
        """Dispatch an incoming message to its registered handler."""
        handler = self._handlers.get(message.kind)
        if handler is None:
            raise self.no_handler_error(
                f"site {self.site_id!r} has no handler for {message.kind}"
            )
        return handler(message)

    def handle_at_most_once(
        self, exchange_key: Hashable, message: Message
    ) -> bytes:
        """Dispatch, executing the handler at most once per exchange.

        A retransmitted request (same exchange key) returns the cached
        reply without re-running the handler — the receiver half of
        at-most-once RPC semantics.
        """
        cached = self.reply_cache.get(exchange_key)
        if cached is not None:
            return cached
        reply = self.handle(message)
        self.reply_cache.put(exchange_key, reply)
        return reply

    @abc.abstractmethod
    def send(
        self,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        """Send one message to ``dst``; return the reply body.

        When ``reply_kind`` is ``None`` the message is one-way: the
        handler must produce no reply body and ``b""`` is returned.

        ``timeout`` caps the whole exchange (including retransmits) in
        seconds; the exchange fails with :class:`TransportError` once
        it elapses instead of running the full retry schedule.
        Backends with synchronous delivery (the simulator) may ignore
        it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.site_id!r})"


class Transport(abc.ABC):
    """What connects endpoints: clock, cost model, stats, delivery.

    Implementations provide the three shared accounting objects the
    runtimes charge to (``clock``, ``cost_model``, ``stats``) and the
    actual message delivery behind each endpoint's ``send``.
    """

    def __init__(
        self,
        clock=None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        from repro.simnet.clock import CostModel as _CostModel
        from repro.simnet.clock import SimClock as _SimClock
        from repro.simnet.stats import StatsCollector as _StatsCollector

        # ``clock`` is anything clock-shaped (``now`` + ``advance``):
        # the simulator's SimClock or a transport's WallClock.
        self.clock = clock if clock is not None else _SimClock()
        self.cost_model = (
            cost_model if cost_model is not None else _CostModel()
        )
        self.stats = stats if stats is not None else _StatsCollector()

    def close(self) -> None:
        """Release transport resources (connections, threads, ports)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- shared accounting ----------------------------------------------------

    def note_message(
        self, message: Message, stamp: Optional[dict] = None
    ) -> None:
        """Count and trace one transmitted message.

        Both backends record the same ``message`` event shape, so the
        offline trace tooling (:mod:`repro.simnet.tracefmt`,
        :mod:`repro.analysis.trace_rules`) reads simulated and real
        runs identically.  ``stamp`` is the sending endpoint's causal
        stamp (:meth:`Endpoint.stamp`) when the carrier has one in
        hand.
        """
        self.stats.record_message(message)
        data = {
            "src": message.src,
            "dst": message.dst,
            "kind": message.kind.value,
            "size": message.size,
        }
        if stamp:
            data.update(stamp)
        self.stats.record_event(
            self.clock.now,
            "message",
            f"{message.src}->{message.dst} {message.kind.value} "
            f"{message.size}B",
            data=data,
        )

    def note_timeout(
        self, detail: str = "retransmitting", site: Optional[str] = None
    ) -> None:
        """Trace one retransmission timeout at ``site`` (the sender)."""
        self.stats.record_event(
            self.clock.now,
            "timeout",
            detail,
            data={"site": site} if site else None,
        )
