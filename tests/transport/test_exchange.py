"""The exchange contract both real carriers share, run on each of them.

Handshake, connection reuse, retries, at-most-once serving, handler
errors, nested exchanges and ping all live in one engine
(:mod:`repro.transport.exchange`); every test here runs once over TCP
sockets and once over shared-memory rings.  What only one link does —
rings, segment extents, leases — is tested in ``test_shm.py``.

All tests run several transports inside one interpreter; each still
has its own listener, receive threads and handler executor, exactly as
separate processes would.
"""

import os
import sys
import threading

import pytest

from repro.simnet.message import MessageKind
from repro.transport.base import RetryPolicy, TransportError
from repro.transport.exchange import (
    FaultInjector,
    HandshakeError,
    RemoteHandlerError,
)
from repro.transport.shm import SHM_DIR, ShmTransport
from repro.transport.tcp import TcpTransport

CARRIERS = {"tcp": TcpTransport, "shm": ShmTransport}

FAST_RETRY = RetryPolicy(
    timeout=0.2, backoff=2.0, max_timeout=1.0, max_attempts=4
)


@pytest.fixture(params=sorted(CARRIERS))
def carrier(request):
    return request.param


@pytest.fixture
def stacks(carrier):
    """Factory for started transports, all closed at teardown."""
    opened = []

    def make(site_id, **kwargs):
        kwargs.setdefault("retry", FAST_RETRY)
        transport = CARRIERS[carrier](site_id, **kwargs)
        transport.start()
        opened.append(transport)
        for other in opened:
            if other is not transport:
                if transport.address is not None:
                    other.add_peer(site_id, transport.address)
                if other.address is not None:
                    transport.add_peer(other.site_id, other.address)
        return transport

    yield make
    for transport in opened:
        transport.close()
    if carrier == "shm":
        # Every segment this test created must be gone from /dev/shm.
        names = [t.name for t in opened]
        leftovers = [
            entry
            for entry in os.listdir(SHM_DIR)
            if any(entry.startswith(name) for name in names)
        ]
        assert leftovers == []


def _echo_server(stacks, site_id="B", **kwargs):
    server = stacks(site_id, **kwargs)
    server.endpoint.register_handler(
        MessageKind.CALL, lambda m: b"echo:" + m.payload
    )
    return server


def test_basic_exchange(stacks):
    _echo_server(stacks)
    client = stacks("A")
    reply = client.endpoint.send(
        "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
    )
    assert reply == b"echo:hi"


def test_one_way_message(stacks):
    server = stacks("B")
    seen = []
    server.endpoint.register_handler(
        MessageKind.INVALIDATE, lambda m: seen.append(m.payload) or b""
    )
    client = stacks("A")
    assert client.endpoint.send("B", MessageKind.INVALIDATE, b"x") == b""
    assert seen == [b"x"]


def test_connection_pool_reuses_one_dial(stacks):
    _echo_server(stacks)
    client = stacks("A")
    for index in range(10):
        client.endpoint.send(
            "B",
            MessageKind.CALL,
            str(index).encode(),
            reply_kind=MessageKind.REPLY,
        )
    assert client.dials["B"] == 1


def test_handshake_version_mismatch_refused(stacks):
    _echo_server(stacks)
    rogue = stacks("R", protocol_version=99)
    with pytest.raises(HandshakeError) as excinfo:
        rogue.endpoint.send(
            "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
        )
    assert "version" in str(excinfo.value)


def test_dropped_request_is_retransmitted(stacks):
    _echo_server(stacks)
    client = stacks("A", faults=FaultInjector(drop_requests={1}))
    reply = client.endpoint.send(
        "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
    )
    assert reply == b"echo:hi"
    assert client.retransmissions == 1


def test_duplicated_request_executes_once(stacks):
    server = stacks("B")
    calls = []
    server.endpoint.register_handler(
        MessageKind.CALL,
        lambda m: calls.append(m.payload) or str(len(calls)).encode(),
    )
    client = stacks("A", faults=FaultInjector(duplicate_requests={1}))
    reply = client.endpoint.send(
        "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
    )
    assert reply == b"1"
    # Both copies of the frame reached the server; the handler (which
    # is deliberately not idempotent) must still have run exactly once.
    assert calls == [b"hi"]


def test_dropped_reply_served_from_cache(stacks):
    server = stacks("B", faults=FaultInjector(drop_replies={1}))
    calls = []
    server.endpoint.register_handler(
        MessageKind.CALL,
        lambda m: calls.append(m.payload) or str(len(calls)).encode(),
    )
    client = stacks("A")
    reply = client.endpoint.send(
        "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
    )
    # The first reply was dropped on the wire; the retransmission must
    # be answered from the server's reply cache, not by re-execution.
    assert reply == b"1"
    assert calls == [b"hi"]
    assert client.retransmissions >= 1
    assert server.endpoint.reply_cache.retransmission_hits >= 1


def test_retry_exhaustion_raises(stacks):
    _echo_server(stacks)
    client = stacks(
        "A",
        faults=FaultInjector(drop_requests={1, 2}),
        retry=RetryPolicy(timeout=0.1, max_attempts=2),
    )
    with pytest.raises(TransportError):
        client.endpoint.send(
            "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
        )


def test_unknown_destination_raises(stacks):
    client = stacks("A")
    with pytest.raises(TransportError):
        client.endpoint.send(
            "nowhere", MessageKind.CALL, b"", reply_kind=MessageKind.REPLY
        )


def test_remote_handler_exception_propagates(stacks):
    server = stacks("B")

    def explode(message):
        raise RuntimeError("kaboom")

    server.endpoint.register_handler(MessageKind.CALL, explode)
    client = stacks("A")
    with pytest.raises(RemoteHandlerError) as excinfo:
        client.endpoint.send(
            "B", MessageKind.CALL, b"", reply_kind=MessageKind.REPLY
        )
    assert "kaboom" in str(excinfo.value)


def test_nested_exchange_back_to_blocked_caller(stacks):
    """B's handler calls back into A while A is blocked on B — the
    shape of every fault-driven data request.  Needs A's receive side
    free while its caller waits; a deadlock here fails by timeout."""
    a = stacks("A")
    b = stacks("B")
    a.endpoint.register_handler(
        MessageKind.DATA_REQUEST, lambda m: b"data:" + m.payload
    )

    def relay(message):
        inner = b.endpoint.send(
            "A",
            MessageKind.DATA_REQUEST,
            message.payload,
            reply_kind=MessageKind.DATA_REPLY,
        )
        return b"relay:" + inner

    b.endpoint.register_handler(MessageKind.CALL, relay)
    reply = a.endpoint.send(
        "B", MessageKind.CALL, b"x", reply_kind=MessageKind.REPLY
    )
    assert reply == b"relay:data:x"


def test_ping_measures_round_trip(stacks):
    _echo_server(stacks)
    client = stacks("A")
    assert client.ping("B") > 0.0


def test_send_before_start_raises(carrier):
    transport = CARRIERS[carrier]("A")
    try:
        with pytest.raises(TransportError):
            transport.exchange("B", MessageKind.CALL, b"", None)
    finally:
        transport.close()


# -- one multiplexed connection per peer --------------------------------------


def _run_threads(targets):
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(20)
    assert not any(thread.is_alive() for thread in threads)


def test_concurrent_exchanges_share_one_connection(stacks):
    """Four callers exchange with one peer at once: the handler first
    waits on a 4-party barrier, so all four are in flight together on
    the one connection; then each caller keeps exchanging under a short
    switch interval.  Every reply must find its own caller, every
    exchange must run its handler exactly once, and nothing redials."""
    server = stacks("B")
    barrier = threading.Barrier(4, timeout=10)

    def handler(message):
        if message.payload.startswith(b"sync"):
            barrier.wait()
        return b"echo:" + message.payload

    server.endpoint.register_handler(MessageKind.CALL, handler)
    client = stacks("A", retry=RetryPolicy(timeout=15.0, max_attempts=1))
    replies = {}

    def call(index):
        for round_ in range(21):
            body = b"%s-%d-%d" % (b"sync" if round_ == 0 else b"r", index,
                                  round_)
            replies[body] = client.endpoint.send(
                "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run_threads([lambda i=i: call(i) for i in range(4)])
    finally:
        sys.setswitchinterval(interval)
    assert len(replies) == 84
    assert all(reply == b"echo:" + body for body, reply in replies.items())
    assert len(server.endpoint.reply_cache) == 84
    assert client.retransmissions == 0
    assert client.dials["B"] == 1


def test_dropped_request_spares_sibling_in_flight(stacks):
    """An injected drop retransmits its own exchange only: a sibling
    exchange in flight on the same connection completes untouched,
    without the connection being torn down and redialled."""
    server = stacks("B")
    running = threading.Event()
    release = threading.Event()
    calls = []

    def handler(message):
        calls.append(bytes(message.payload))
        if message.payload == b"slow":
            running.set()
            release.wait(10)
        return b"echo:" + message.payload

    server.endpoint.register_handler(MessageKind.CALL, handler)
    client = stacks("A", faults=FaultInjector(drop_requests={2}))
    replies = {}

    def slow():
        replies["slow"] = client.endpoint.send(
            "B", MessageKind.CALL, b"slow", reply_kind=MessageKind.REPLY
        )

    def fast():
        assert running.wait(10)
        try:
            # The second request of this transport: dropped once.
            replies["fast"] = client.endpoint.send(
                "B", MessageKind.CALL, b"fast", reply_kind=MessageKind.REPLY
            )
        finally:
            release.set()

    _run_threads([slow, fast])
    assert replies == {"slow": b"echo:slow", "fast": b"echo:fast"}
    assert sorted(calls) == [b"fast", b"slow"]
    assert client.retransmissions >= 1
    assert client.dials["B"] == 1


def test_close_ends_every_link_thread(carrier):
    before = set(threading.enumerate())
    server = CARRIERS[carrier]("B")
    client = CARRIERS[carrier]("A")
    server.start()
    client.start()
    client.add_peer("B", server.address)
    server.endpoint.register_handler(MessageKind.CALL, lambda m: b"ok")
    client.endpoint.send(
        "B", MessageKind.CALL, b"", reply_kind=MessageKind.REPLY
    )
    client.close()
    server.close()
    leftover = [
        thread
        for thread in threading.enumerate()
        if thread not in before and thread.is_alive()
        and not thread.name.startswith("rpc-")  # idle handler workers
    ]
    assert leftover == []


def test_accepted_connection_carries_the_reverse_direction(stacks):
    """After A dials B, B's own exchanges to A ride the same connection:
    one connection per peer pair, not one per direction."""
    a = stacks("A")
    b = _echo_server(stacks)
    a.endpoint.register_handler(MessageKind.CALL, lambda m: b"back")
    a.endpoint.send("B", MessageKind.CALL, b"", reply_kind=MessageKind.REPLY)
    reply = b.endpoint.send(
        "A", MessageKind.CALL, b"", reply_kind=MessageKind.REPLY
    )
    assert reply == b"back"
    assert a.dials == {"B": 1}
    assert b.dials == {}
