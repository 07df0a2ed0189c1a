"""The exchange engine both real carriers share.

An RPC session has one active thread, and each exchange is a blocking
request/reply with at-most-once execution; the carrier only moves the
bytes.  :class:`FramedTransport` is that protocol, written once: the
capped retry loop with incarnation-stamped exchange ids, reply
finishing (vector-clock merge, status and one-way checks, accounting),
serving through the :class:`~repro.transport.base.ReplyCache` plus an
in-flight table (handler side effects happen once per logical send),
the versioned HELLO/WELCOME/GOODBYE handshake, directory lookup of
unknown peers, ``ping``, and the deterministic :class:`FaultInjector`.

A carrier subclass is only a *link*: it dials and accepts connections
(one per peer, multiplexing every exchange in flight), writes one frame,
hands each received frame to :meth:`FramedTransport._dispatch`, and
closes.  The thread model is the same on every link: the caller thread
writes its own request and blocks on a :class:`_Waiter`; the link's
receive thread (a reader per TCP connection, the shm poller) resolves
waiters and queues requests; handlers run on the executor, so a callee
blocked in a handler still serves the nested exchanges its caller sends
back.  The shm link ships bulk payloads out of band through the payload
hooks (:meth:`~FramedTransport._request_frame` and
:meth:`~FramedTransport._reply_frame` build frames,
:meth:`~FramedTransport._open_payload` opens them); TCP inherits them.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.simnet.clock import CostModel
from repro.simnet.message import Message, MessageKind
from repro.simnet.stats import StatsCollector
from repro.transport.base import (
    Endpoint,
    RetryPolicy,
    Transport,
    TransportError,
)
from repro.transport.framing import (
    PROTOCOL_VERSION,
    STATUS_HANDLER_ERROR,
    STATUS_OK,
    Frame,
    Goodbye,
    Hello,
    Ping,
    Pong,
    Reply,
    Request,
    SegReply,
    SegRequest,
    Welcome,
    clock_to_wire,
    encode_frame,
)
from repro.transport.wallclock import WallClock

#: How long connect + handshake may take before the attempt fails.
HANDSHAKE_TIMEOUT = 5.0

#: Worker threads per transport for running handlers.
HANDLER_WORKERS = 32


class HandshakeError(TransportError):
    """The peer refused the connection or speaks another protocol."""


class RemoteHandlerError(TransportError):
    """The remote handler raised outside the RPC error envelope."""


class FaultInjector:
    """Deterministic faults for exercising the retry and crash machinery.

    ``drop_requests`` / ``duplicate_requests`` / ``drop_replies`` are
    1-based indices into this transport's sequence of outgoing request
    (resp. reply) transmissions; ``loss_rate`` adds seeded random
    request drops on top for chaos-style tests.

    ``crash_sends`` / ``crash_recvs`` map a message-kind value to a
    1-based ordinal N: the site dies right after transmitting (resp.
    right before handling) its Nth frame of that kind — the
    deterministic kill primitive behind the crash-matrix tests.  A
    crash-send dies with the frame already sent (the peer processes
    it; the reply is lost with the sender); a crash-recv dies before
    the handler runs.  On the real carriers the *process* exits hard
    (``os._exit``); a simulated site is marked crashed instead.  The
    simulator reads only the crash clauses (its losses come from
    ``Network(loss_rate=...)``).
    """

    DROP = "drop"
    DUPLICATE = "duplicate"

    #: Exit status of an injected crash, so harnesses can tell a
    #: planned death from an accidental one.
    CRASH_EXIT_CODE = 86

    #: :meth:`parse` clause names -> constructor arguments.
    _INDEX_CLAUSES = {
        "drop-request": "drop_requests",
        "dup-request": "duplicate_requests",
        "drop-reply": "drop_replies",
    }
    _CRASH_CLAUSES = {"crash-send": "crash_sends", "crash-recv": "crash_recvs"}

    def __init__(
        self,
        drop_requests: Iterable[int] = (),
        duplicate_requests: Iterable[int] = (),
        drop_replies: Iterable[int] = (),
        loss_rate: float = 0.0,
        seed: int = 0,
        crash_sends: Optional[Dict[str, int]] = None,
        crash_recvs: Optional[Dict[str, int]] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"bad loss rate {loss_rate!r}")
        self.drop_requests = frozenset(drop_requests)
        self.duplicate_requests = frozenset(duplicate_requests)
        self.drop_replies = frozenset(drop_replies)
        self.loss_rate = loss_rate
        self.crash_sends = dict(crash_sends or {})
        self.crash_recvs = dict(crash_recvs or {})
        self._rng = random.Random(seed)
        self._requests_seen = 0
        self._replies_seen = 0
        self._sends_by_kind: Dict[str, int] = {}
        self._recvs_by_kind: Dict[str, int] = {}

    def request_action(self) -> Optional[str]:
        """Fault to apply to the next outgoing request frame, if any."""
        self._requests_seen += 1
        if self._requests_seen in self.drop_requests:
            return self.DROP
        if self._requests_seen in self.duplicate_requests:
            return self.DUPLICATE
        if self.loss_rate and self._rng.random() < self.loss_rate:
            return self.DROP
        return None

    def reply_action(self) -> Optional[str]:
        """Fault to apply to the next outgoing reply frame, if any."""
        self._replies_seen += 1
        if self._replies_seen in self.drop_replies:
            return self.DROP
        return None

    def crash_after_send(self, kind: MessageKind) -> bool:
        """Whether the site must die now, having sent this frame."""
        return self._count(self.crash_sends, self._sends_by_kind, kind)

    def crash_on_receive(self, kind: MessageKind) -> bool:
        """Whether the site must die now, before handling this frame."""
        return self._count(self.crash_recvs, self._recvs_by_kind, kind)

    @staticmethod
    def _count(
        plans: Dict[str, int], seen: Dict[str, int], kind: MessageKind
    ) -> bool:
        planned = plans.get(kind.value)
        if planned is None:
            return False
        seen[kind.value] = seen.get(kind.value, 0) + 1
        return seen[kind.value] == planned

    @classmethod
    def parse(cls, spec: str) -> "FaultInjector":
        """Build an injector from a CLI spec.

        ``spec`` is a comma-separated list of ``drop-request=N``,
        ``dup-request=N``, ``drop-reply=N``, ``loss=RATE``, ``seed=N``,
        ``crash-send=KIND:N`` and ``crash-recv=KIND:N`` clauses, e.g.
        ``drop-request=1,crash-recv=writeback_prepare:1``.
        """
        options: Dict[str, object] = {}
        for clause in filter(None, spec.split(",")):
            name, _, value = clause.partition("=")
            try:
                if name in cls._INDEX_CLAUSES:
                    field = cls._INDEX_CLAUSES[name]
                    options.setdefault(field, set()).add(int(value))
                elif name in cls._CRASH_CLAUSES:
                    kind, _, ordinal = value.partition(":")
                    MessageKind(kind)  # reject unknown kinds early
                    plans = options.setdefault(cls._CRASH_CLAUSES[name], {})
                    plans[kind] = int(ordinal) if ordinal else 1
                elif name == "loss":
                    options["loss_rate"] = float(value)
                elif name == "seed":
                    options["seed"] = int(value)
                else:
                    raise ValueError(name)
            except ValueError:
                raise ValueError(
                    f"bad fault clause {clause!r} (expected "
                    "drop-request=N, dup-request=N, drop-reply=N, "
                    "loss=RATE, seed=N, crash-send=KIND:N or "
                    "crash-recv=KIND:N)"
                ) from None
        return cls(**options)


class _Waiter:
    """One blocked exchange (or ping) awaiting its reply frame."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Optional[Frame] = None
        self.error: Optional[BaseException] = None

    def resolve(self, frame: Frame) -> None:
        if not self.event.is_set():
            self.value = frame
            self.event.set()

    def fail(self, error: BaseException) -> None:
        if not self.event.is_set():
            self.error = error
            self.event.set()

    def wait(self, timeout: float) -> Frame:
        if not self.event.wait(timeout):
            raise TimeoutError("no reply within the attempt timeout")
        if self.error is not None:
            raise self.error
        return self.value


class Connection:
    """One link connection to a peer, shared by all its exchanges.

    The engine keys outstanding exchanges (``pending``) and pings by
    id, so any number of caller threads multiplex one connection.
    Links implement :meth:`write` (one whole frame, atomic with respect
    to concurrent writers) and :meth:`release`.
    """

    def __init__(self, peer: Optional[str] = None) -> None:
        self.peer = peer
        self.alive = True
        self.pending: Dict[int, _Waiter] = {}
        self.pings: Dict[int, _Waiter] = {}

    def write(self, data: bytes, timeout: float) -> None:
        """Send one encoded frame or raise ``OSError``."""
        raise NotImplementedError

    def try_write(self, data: bytes, timeout: float = 0.2) -> bool:
        """Send best-effort (replies, pongs, goodbyes); False on failure."""
        try:
            self.write(data, timeout)
            return True
        except (OSError, ValueError, TypeError):
            return False

    def abort(self, error: Exception) -> None:
        """Mark dead and fail every outstanding waiter."""
        self.alive = False
        for table in (self.pending, self.pings):
            for waiter in list(table.values()):
                waiter.fail(error)
            table.clear()

    def release(self) -> None:
        """Free the link resources (socket, mapping)."""


class FramedTransport(Transport):
    """Retried, at-most-once framed exchanges over some link.

    One instance per OS process (or per simulated "process" when tests
    run several transports inside one interpreter).  ``peers`` maps
    site ids to link addresses and is shared by reference, so one table
    can be filled in place as listeners come up; unknown destinations
    are resolved through the site directory at ``directory_site`` when
    configured (see :mod:`repro.namesvc.directory`).
    """

    #: The endpoint class a link hosts (its ``send`` is the entry point
    #: the benchmark's span tracer wraps, so each link names its own).
    endpoint_class = Endpoint

    #: Longest pause before redialling a peer that refused a connect.
    redial_pause = float("inf")

    def __init__(
        self,
        site_id: str,
        *,
        clock=None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
        peers: Optional[dict] = None,
        directory_site: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        listen: bool = True,
        protocol_version: int = PROTOCOL_VERSION,
    ) -> None:
        super().__init__(
            clock=clock if clock is not None else WallClock(),
            cost_model=cost_model,
            stats=stats,
        )
        self.site_id = site_id
        self._listen = listen
        self._peers = peers if peers is not None else {}
        self._directory_site = directory_site
        self._retry = retry if retry is not None else RetryPolicy()
        self._faults = faults
        self._protocol_version = protocol_version
        self.endpoint = self.endpoint_class(site_id, self)
        self.address = None
        self.retransmissions = 0
        self.dials: Dict[str, int] = {}
        # Exchange ids carry a random 32-bit incarnation in their high
        # half — Birrell-Nelson's per-boot conversation identifier.
        # Without it, a restarted process reusing a site id would
        # restart its counter at 1 and collide with the replies its
        # predecessor left in peers' duplicate-suppression caches.
        incarnation = int.from_bytes(os.urandom(4), "big")
        self._exchange_ids = itertools.count((incarnation << 32) | 1)
        self._executor = ThreadPoolExecutor(
            max_workers=HANDLER_WORKERS,
            thread_name_prefix=f"rpc-{site_id}",
        )
        self._conns: Set[Connection] = set()
        self._by_peer: Dict[str, Connection] = {}
        self._conn_lock = threading.Lock()
        self._dial_lock = threading.Lock()
        self._serve_lock = threading.Lock()
        self._inflight: Dict[Tuple[str, int], threading.Event] = {}
        self._threads: Set[threading.Thread] = set()
        self._started = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        """Bring the link up; return its address (``None`` when it
        does not listen)."""
        if self._started:
            raise TransportError(
                f"transport for {self.site_id!r} already started"
            )
        self._started = True
        self.address = self._open()
        return self.address

    def _open(self):
        """Link hook: create listeners and receive threads."""
        raise NotImplementedError

    def _stop(self) -> None:
        """Link hook: stop accepting and receiving (threads end)."""

    def close(self) -> None:
        """Say goodbye on every connection, stop the link, free it."""
        if self._closed:
            return
        self._closed = True
        goodbye = encode_frame(Goodbye(self.site_id, "shutting down"))
        for conn in self._connections():
            if conn.alive:
                conn.try_write(goodbye, timeout=0.05)
            conn.abort(ConnectionResetError("transport closed"))
        self._stop()
        for thread in list(self._threads):
            thread.join(HANDSHAKE_TIMEOUT)
        self._executor.shutdown(wait=False)
        for conn in self._connections(clear=True):
            conn.release()

    def _spawn(self, name: str, target, *args) -> None:
        """Start one link thread; :meth:`close` joins it."""

        def run() -> None:
            try:
                target(*args)
            finally:
                self._threads.discard(thread)

        thread = threading.Thread(target=run, name=name, daemon=True)
        self._threads.add(thread)
        thread.start()

    def _connections(self, clear: bool = False):
        with self._conn_lock:
            conns = list(self._conns)
            if clear:
                self._conns.clear()
                self._by_peer.clear()
        return conns

    def _adopt(self, conn: Connection, dialed: bool) -> None:
        """Register a connection whose handshake completed.

        A dialed connection becomes the route to its peer; an accepted
        one is used for this side's own exchanges only while no route
        exists, so both directions share one connection per peer pair.
        """
        with self._conn_lock:
            self._conns.add(conn)
            if dialed:
                self._by_peer[conn.peer] = conn
            else:
                current = self._by_peer.get(conn.peer)
                if current is None or not current.alive:
                    self._by_peer[conn.peer] = conn

    def _drop_conn(self, conn: Connection, error: Exception) -> None:
        """Fail a dead connection's waiters and forget it."""
        conn.abort(error)
        with self._conn_lock:
            if conn not in self._conns:
                return
            self._conns.discard(conn)
            if conn.peer and self._by_peer.get(conn.peer) is conn:
                del self._by_peer[conn.peer]
        conn.release()

    # -- peer addressing ------------------------------------------------------

    def add_peer(self, site_id: str, address) -> None:
        """Teach this transport where ``site_id`` listens."""
        self._peers[site_id] = tuple(address)

    def _resolve(self, dst: str):
        address = self._peers.get(dst)
        if address is not None:
            return address
        if self._directory_site is not None and dst != self._directory_site:
            from repro.namesvc.directory import (
                decode_lookup_reply,
                encode_lookup,
            )

            payload = self.exchange(
                self._directory_site,
                MessageKind.SITE_LOOKUP,
                encode_lookup(dst),
                MessageKind.DIR_REPLY,
            )
            host, port, _age = decode_lookup_reply(bytes(payload), dst)
            self.add_peer(dst, (host, port))
            return self._peers[dst]
        raise TransportError(
            f"site {self.site_id!r} has no route to {dst!r}"
        )

    # -- connections and the handshake ----------------------------------------

    def _dial(self, dst: str, address) -> Connection:
        """Link hook: connect to ``dst`` and :meth:`_greet` it."""
        raise NotImplementedError

    def _acquire(self, dst: str, address) -> Connection:
        """The one live connection to ``dst``, dialling if needed."""
        conn = self._by_peer.get(dst)
        if conn is not None and conn.alive:
            return conn
        with self._dial_lock:
            conn = self._by_peer.get(dst)
            if conn is not None and conn.alive:
                return conn
            self._check_caller()  # never dial once close() has begun
            conn = self._dial(dst, address)
            self.dials[dst] = self.dials.get(dst, 0) + 1
            return conn

    def _greet(self, conn: Connection, read_frame) -> None:
        """Dialer side of the handshake: send HELLO, accept only a
        WELCOME in our protocol version, then :meth:`_adopt` ``conn``
        (released instead when the handshake fails)."""
        dst = conn.peer
        try:
            conn.write(
                encode_frame(Hello(self._protocol_version, self.site_id)),
                HANDSHAKE_TIMEOUT,
            )
            frame = read_frame()
            if isinstance(frame, Goodbye):
                raise HandshakeError(
                    f"site {dst!r} refused the connection: {frame.reason}"
                )
            if (
                not isinstance(frame, Welcome)
                or frame.version != self._protocol_version
            ):
                raise HandshakeError(
                    f"bad handshake from {dst!r}: expected WELCOME v"
                    f"{self._protocol_version}, got {frame!r}"
                )
        except BaseException:
            conn.release()
            raise
        self._adopt(conn, dialed=True)

    def _answer_hello(self, frame: Frame) -> Tuple[Frame, Optional[str]]:
        """Acceptor side: the answer to a first frame, and the peer's
        site id (``None`` when the connection is refused)."""
        if not isinstance(frame, Hello):
            return Goodbye(self.site_id, "expected HELLO"), None
        if frame.version != self._protocol_version:
            return Goodbye(
                self.site_id,
                f"unsupported protocol version {frame.version} "
                f"(supported: {self._protocol_version})",
            ), None
        return Welcome(frame.version, self.site_id), frame.site_id

    # -- client side ----------------------------------------------------------

    def _check_caller(self) -> None:
        if not self._started or self._closed:
            raise TransportError(
                f"transport for {self.site_id!r} is not running"
            )
        if threading.current_thread() in self._threads:
            raise TransportError(
                "exchange() must not be called from a link thread"
            )

    def exchange(
        self,
        dst: str,
        kind: MessageKind,
        payload,
        reply_kind: Optional[MessageKind] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        """Blocking request/response exchange with at-most-once retries.

        ``timeout`` caps the *whole* exchange — connects, retransmits
        and all — failing it with :class:`TransportError` once elapsed
        instead of running the full retry schedule (the per-exchange
        guard of the session fault-tolerance layer).
        """
        self._check_caller()
        deadline = time.monotonic() + timeout if timeout is not None else None
        address = self._resolve(dst)
        exchange_id = next(self._exchange_ids)
        # Piggyback this site's vector clock on the request; the
        # responder merges it before running the handler.  The frame is
        # encoded once, so every retransmission carries the same clock.
        frame, logical = self._request_frame(
            exchange_id, dst, kind, payload, reply_kind is not None,
            clock_to_wire(self.endpoint.vclock.tick()),
        )
        message = Message(self.site_id, dst, kind, logical)
        try:
            conn, reply = self._transmit(
                address, message, exchange_id, encode_frame(frame),
                timeout, deadline,
            )
        except BaseException:
            self._abandon(frame)
            raise
        return self._finish(conn, dst, kind, reply_kind, reply)

    def _transmit(
        self, address, message: Message, exchange_id: int, encoded: bytes,
        cap: Optional[float], deadline: Optional[float],
    ) -> Tuple[Connection, Frame]:
        """The retry loop: transmit, wait, back off."""
        dst, kind = message.dst, message.kind
        attempts = 0
        last_error: Optional[BaseException] = None
        for attempt_timeout in self._retry.timeouts():
            attempts += 1
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportError(
                        f"{kind.value} exchange {self.site_id!r}->"
                        f"{dst!r} exceeded its {cap}s cap after "
                        f"{attempts - 1} attempt(s) ({last_error})"
                    )
                attempt_timeout = min(attempt_timeout, remaining)
            try:
                conn = self._acquire(dst, address)
            except OSError as exc:
                last_error = exc
                self.note_timeout(
                    f"connect to {dst!r} failed ({exc}); retrying",
                    site=self.site_id,
                )
                time.sleep(min(attempt_timeout, self.redial_pause))
                continue
            waiter = _Waiter()
            conn.pending[exchange_id] = waiter
            action = (
                self._faults.request_action() if self._faults else None
            )
            try:
                if action == FaultInjector.DROP:
                    # Charged as sent, lost in transit — the simulator's
                    # lossy path does exactly this.
                    self.note_message(message, stamp=self._stamp())
                    self.stats.record_event(
                        self.clock.now,
                        "loss",
                        f"injected drop of {kind.value} "
                        f"{self.site_id}->{dst}",
                        data={"site": self.site_id},
                    )
                else:
                    conn.write(encoded, attempt_timeout)
                    self.note_message(message, stamp=self._stamp())
                    if self._faults is not None and (
                        self._faults.crash_after_send(kind)
                    ):
                        # Planned death: the frame is sent (the peer
                        # will process it) but this process dies before
                        # its reply can land.
                        os._exit(FaultInjector.CRASH_EXIT_CODE)
                    if action == FaultInjector.DUPLICATE:
                        conn.write(encoded, attempt_timeout)
                        self.note_message(message, stamp=self._stamp())
                reply = waiter.wait(attempt_timeout)
            except OSError as exc:
                last_error = exc
                self.retransmissions += 1
                self.note_timeout(
                    f"{kind.value} exchange {self.site_id}->{dst} timed "
                    "out; retransmitting",
                    site=self.site_id,
                )
                continue
            finally:
                conn.pending.pop(exchange_id, None)
            return conn, reply
        raise TransportError(
            f"{kind.value} exchange {self.site_id!r}->{dst!r} failed "
            f"after {attempts} attempts ({last_error})"
        )

    def _stamp(self) -> Optional[dict]:
        """The endpoint's causal stamp, or None when tracing is off."""
        return self.endpoint.stamp() if self.stats.tracing else None

    def _finish(
        self,
        conn: Connection,
        dst: str,
        kind: MessageKind,
        reply_kind: Optional[MessageKind],
        reply: Frame,
    ) -> bytes:
        # The reply piggybacks the responder's clock: merging it makes
        # everything the handler did happen-before this site's next
        # traced event.
        self.endpoint.vclock.merge(dict(reply.clock))
        payload, _lease = self._open_payload(conn, dst, "reply", reply)
        if reply.status == STATUS_HANDLER_ERROR:
            raise RemoteHandlerError(
                f"{kind.value} handler at {dst!r} failed: "
                f"{bytes(payload).decode('utf-8', 'replace')}"
            )
        if reply.status != STATUS_OK:
            raise TransportError(
                f"bad reply status {reply.status!r} from {dst!r}"
            )
        if reply_kind is None:
            if payload:
                raise TransportError(
                    f"one-way {kind} message to {dst!r} produced a reply"
                )
            return b""
        self.note_message(
            Message(dst, self.site_id, reply_kind, payload),
            stamp=self._stamp(),
        )
        return payload

    def ping(self, dst: str, timeout: float = 2.0) -> float:
        """Round-trip a transport-level PING; returns the RTT seconds."""
        self._check_caller()
        address = self._resolve(dst)
        token = next(self._exchange_ids)
        waiter = _Waiter()
        conn = None
        try:
            conn = self._acquire(dst, address)
            conn.pings[token] = waiter
            started = time.monotonic()
            conn.write(encode_frame(Ping(token)), timeout)
            waiter.wait(timeout)
            return time.monotonic() - started
        except OSError as exc:
            raise TransportError(
                f"no PONG from {dst!r} within {timeout}s ({exc})"
            ) from None
        finally:
            if conn is not None:
                conn.pings.pop(token, None)

    # -- payload hooks --------------------------------------------------------

    def _request_frame(
        self, exchange_id: int, dst: str, kind: MessageKind, payload,
        expects_reply: bool, clock,
    ) -> Tuple[Frame, object]:
        """Build one request frame; also returns the logical payload
        the message counters charge."""
        return Request(
            exchange_id=exchange_id,
            src=self.site_id,
            dst=dst,
            kind=kind.value,
            expects_reply=expects_reply,
            payload=payload,
            clock=clock,
        ), payload

    def _abandon(self, frame: Frame) -> None:
        """A request frame's exchange failed; free what it holds."""

    def _reply_frame(self, request: Frame, body) -> Frame:
        """Build the OK reply to ``request``."""
        return Reply(
            request.exchange_id,
            STATUS_OK,
            body,
            clock=clock_to_wire(self.endpoint.vclock.tick()),
        )

    def _open_payload(
        self, conn: Connection, src: str, kind: str, frame: Frame
    ):
        """The payload of a received request or reply, plus the lease
        (``carrier_ref``) the handler may hold on it."""
        return frame.payload, None

    # -- receiving ------------------------------------------------------------

    def _dispatch(self, conn: Connection, frame: Frame) -> bool:
        """Handle one frame a link received; False once the connection
        is finished (the peer said goodbye)."""
        if isinstance(frame, (Request, SegRequest)):
            try:
                self._executor.submit(self._serve, conn, frame)
            except RuntimeError:  # executor shut down: we are closing
                pass
        elif isinstance(frame, (Reply, SegReply)):
            waiter = conn.pending.get(frame.exchange_id)
            # A late reply to an exchange that already timed out and
            # completed via retransmission is simply dropped.
            if waiter is not None:
                waiter.resolve(frame)
        elif isinstance(frame, Ping):
            conn.try_write(encode_frame(Pong(frame.token)))
        elif isinstance(frame, Pong):
            waiter = conn.pings.pop(frame.token, None)
            if waiter is not None:
                waiter.resolve(frame)
        elif isinstance(frame, Goodbye):
            reason = f"peer said goodbye: {frame.reason}"
            self._drop_conn(conn, ConnectionResetError(reason))
            return False
        return True

    def _serve(self, conn: Connection, request) -> None:
        """Run (or replay) one exchange and send its reply frame."""
        key = (request.src, request.exchange_id)
        cache = self.endpoint.reply_cache
        while True:
            with self._serve_lock:
                encoded = cache.get(key)
                if encoded is not None:
                    break
                gate = self._inflight.get(key)
                if gate is None:
                    self._inflight[key] = threading.Event()
                    break
            # A retransmission arrived while the first transmission's
            # handler is still running: wait for that one result.
            gate.wait(HANDSHAKE_TIMEOUT)
        if encoded is None:
            try:
                encoded = self._execute(conn, request)
                with self._serve_lock:
                    cache.put(key, encoded)
            finally:
                with self._serve_lock:
                    gate = self._inflight.pop(key, None)
                if gate is not None:
                    gate.set()
        if self._faults is not None and (
            self._faults.reply_action() == FaultInjector.DROP
        ):
            self.stats.record_event(
                self.clock.now,
                "loss",
                f"injected drop of reply {self.site_id}->{request.src}",
                data={"site": self.site_id},
            )
            return
        # The peer will retransmit and hit the reply cache if this
        # write fails (connection torn down, ring full).
        conn.try_write(encoded, timeout=1.0)

    def _execute(self, conn: Connection, request) -> bytes:
        """Dispatch one request to its handler on this worker thread."""
        lease = None
        try:
            kind = MessageKind(request.kind)
            if self._faults is not None and (
                self._faults.crash_on_receive(kind)
            ):
                # Planned death: the frame arrived but this process
                # dies before its handler can run.
                os._exit(FaultInjector.CRASH_EXIT_CODE)
            # Observe the sender's piggybacked clock before the handler
            # runs, so every event the handler records happens-after
            # everything the sender did up to this exchange.
            self.endpoint.vclock.merge(dict(request.clock))
            payload, lease = self._open_payload(
                conn, request.src, request.kind, request
            )
            body = self.endpoint.handle(Message(
                request.src, request.dst, kind, payload, carrier_ref=lease
            ))
            if lease is not None and not lease.retained:
                # The handler is done with the view: re-check for a
                # tear before the extent goes back to its owner.
                lease.validate()
            if not request.expects_reply and body:
                raise TransportError(
                    f"one-way {kind} message produced a reply"
                )
            return encode_frame(self._reply_frame(request, body))
        except Exception as exc:  # noqa: BLE001 - ship transport errors
            return encode_frame(Reply(
                request.exchange_id,
                STATUS_HANDLER_ERROR,
                f"{type(exc).__name__}: {exc}".encode("utf-8"),
                clock=clock_to_wire(self.endpoint.vclock.tick()),
            ))
        finally:
            if lease is not None:
                lease.settle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.site_id!r}, "
            f"address={self.address!r})"
        )
