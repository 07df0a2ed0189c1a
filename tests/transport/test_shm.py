"""ShmTransport behaviour: rings, segment extents, leases, reaping.

The exchange contract the shm link shares with TCP runs over both
carriers in ``test_exchange.py``; this file covers what is unique to
shared memory: extent handovers for bulk payloads, the stamp/epoch
validation protocol, zero-copy send buffers, deferred reply acks,
stale-segment reaping and the resource-tracker bookkeeping.

All tests run several transports inside one interpreter; the rings are
genuinely shared memory, so the cross-process protocol is exercised in
full (separate-process coverage lives in ``test_cross_process.py`` and
the crash matrix).
"""

import os
import struct
import threading
import time
from multiprocessing import resource_tracker

import pytest

from repro.simnet.message import MessageKind
from repro.simnet.stats import StatsCollector
from repro.transport.base import RetryPolicy, TransportError
from repro.transport.framing import FramingError
from repro.transport.shm import (
    SHM_DIR,
    SegmentAllocator,
    ShmTransport,
    _EXTENT_HEADER,
    _Ring,
    _attach_segment,
    _close_segment,
    _create_segment,
    purge_stale_segments,
)

FAST_RETRY = RetryPolicy(
    timeout=0.2, backoff=2.0, max_timeout=1.0, max_attempts=4
)

_U64 = struct.Struct("<Q")


# -- ring unit tests ----------------------------------------------------------


def _make_ring(slots=4, slot_bytes=64):
    region = bytearray(_Ring.region_size(slots, slot_bytes))
    mv = memoryview(region)
    _Ring.format(mv, 0, slots, slot_bytes)
    producer = _Ring(mv, 0, slots, slot_bytes)
    consumer = _Ring(mv, 0, slots, slot_bytes)
    return producer, consumer


def test_ring_round_trip():
    producer, consumer = _make_ring()
    assert consumer.try_pop() is None
    assert producer.try_push(b"hello")
    assert consumer.try_pop() == b"hello"
    assert consumer.try_pop() is None


def test_ring_full_refuses_then_recovers():
    producer, consumer = _make_ring(slots=2)
    assert producer.try_push(b"a")
    assert producer.try_push(b"b")
    # Both slots hold unconsumed frames: the producer must not overwrite.
    assert not producer.try_push(b"c")
    assert consumer.try_pop() == b"a"
    assert producer.try_push(b"c")
    assert consumer.try_pop() == b"b"
    assert consumer.try_pop() == b"c"


def test_ring_wraps_many_laps():
    producer, consumer = _make_ring(slots=3)
    for lap in range(50):
        body = str(lap).encode()
        assert producer.try_push(body)
        assert consumer.try_pop() == body


def test_ring_oversize_frame_raises():
    producer, _consumer = _make_ring(slot_bytes=32)
    with pytest.raises(FramingError):
        producer.try_push(b"x" * 33)


# -- allocator unit tests -----------------------------------------------------


@pytest.fixture
def allocator():
    alloc = SegmentAllocator(
        "srpc-test-" + os.urandom(4).hex(), 64 * 1024
    )
    yield alloc
    alloc.close()


def test_allocator_reserve_publish_release(allocator):
    offset, stamp, view = allocator.reserve(100)
    view[:3] = b"abc"
    allocator.publish(offset)
    # The stamp lands in the extent header, after the payload write.
    assert _U64.unpack_from(allocator.shm.buf, offset)[0] == stamp
    assert allocator.release(offset, stamp)
    assert allocator.pinned_bytes() == 0


def test_allocator_release_is_stamp_guarded(allocator):
    offset, stamp, _view = allocator.reserve(100)
    # A stale ack (wrong stamp) must not free a live extent.
    assert not allocator.release(offset, stamp + 1)
    assert allocator.pinned_bytes() > 0
    assert allocator.release(offset, stamp)


def test_allocator_skips_pinned_extents(allocator):
    offset_a, stamp_a, _ = allocator.reserve(100)
    offset_b, stamp_b, _ = allocator.reserve(100)
    assert offset_a != offset_b
    allocator.release(offset_a, stamp_a)
    offset_c, _stamp_c, _ = allocator.reserve(40 * 1024)
    # The big extent must not overlap the still-pinned b.
    start_c, end_c = offset_c, offset_c + _EXTENT_HEADER + 40 * 1024
    start_b, end_b = offset_b, offset_b + _EXTENT_HEADER + 100
    assert end_c <= start_b or start_c >= end_b
    allocator.release(offset_b, stamp_b)


def test_allocator_exhaustion_raises(allocator):
    pins = [allocator.reserve(8 * 1024) for _ in range(7)]
    with pytest.raises(TransportError) as excinfo:
        allocator.reserve(32 * 1024, timeout=0.2)
    assert "segment-size" in str(excinfo.value)
    for offset, stamp, _ in pins:
        allocator.release(offset, stamp)


def test_allocator_oversize_payload_raises(allocator):
    with pytest.raises(TransportError):
        allocator.reserve(65 * 1024)


def test_allocator_release_peer(allocator):
    allocator.reserve(64, peer="B")
    allocator.reserve(64, peer="B")
    allocator.reserve(64, peer="C")
    assert allocator.release_peer("B") == 2
    assert allocator.release_peer("B") == 0
    assert allocator.release_peer("C") == 1


def test_allocator_epoch_bump(allocator):
    before = allocator.epoch
    allocator.bump_epoch()
    assert allocator.epoch == before + 1
    header_epoch = _U64.unpack_from(allocator.shm.buf, 16)[0]
    assert header_epoch == allocator.epoch


# -- transport fixture --------------------------------------------------------


@pytest.fixture
def stacks():
    """Factory for started transports, all closed at teardown."""
    opened = []

    def make(site_id, **kwargs):
        kwargs.setdefault("retry", FAST_RETRY)
        transport = ShmTransport(site_id, **kwargs)
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
    names = [t.name for t in opened]
    for transport in opened:
        transport.close()
    # Every segment this test created must be gone from /dev/shm.
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


# -- segment handover (what shm adds) -----------------------------------------


def test_bulk_payload_ships_as_extent(stacks):
    """Payloads above the spill threshold travel as segment offsets:
    the ring carries a fixed-size descriptor, the bytes never move."""
    _echo_server(stacks)
    client = stacks("A")
    body = bytes(range(256)) * 4096  # 1 MiB, way past any slot
    reply = client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    assert reply == b"echo:" + body
    # The reply came back as an extent too: the client mapped it in
    # place instead of copying a stream.
    assert client.handovers == 1


def test_bulk_reply_handover_counted_on_server(stacks):
    server = _echo_server(stacks)
    client = stacks("A")
    body = b"z" * (client.spill_threshold + 1)
    reply = client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    assert reply == b"echo:" + body
    assert server.handovers == 1  # the request extent, mapped by B
    assert client.handovers == 1  # the reply extent, mapped by A


def test_small_payload_stays_inline(stacks):
    server = _echo_server(stacks)
    client = stacks("A")
    client.endpoint.send(
        "B", MessageKind.CALL, b"tiny", reply_kind=MessageKind.REPLY
    )
    assert client.handovers == 0
    assert server.handovers == 0


def test_bulk_counters_charge_logical_bytes(stacks):
    """Stats must count the payload the runtime sent, not the 60-byte
    descriptor the ring carried — counter parity with tcp/simnet."""
    stats = StatsCollector()
    _echo_server(stacks, stats=stats)
    client = stacks("A", stats=stats)
    body = b"q" * 100_000
    client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    assert stats.bytes_by_kind[MessageKind.CALL] == len(body)
    assert stats.bytes_by_kind[MessageKind.REPLY] == len(body) + len(b"echo:")


def test_reserve_payload_zero_copy_send(stacks):
    """A caller can write straight into the data segment and ship the
    extent without the transport ever copying the body."""
    server = stacks("B")
    server.endpoint.register_handler(
        MessageKind.CALL, lambda m: str(len(m.payload)).encode()
    )
    client = stacks("A")
    payload = client.reserve_payload(50_000)
    payload.view[:] = b"w" * 50_000
    reply = client.exchange(
        "B", MessageKind.CALL, payload, MessageKind.REPLY
    )
    assert reply == b"50000"
    assert server.handovers == 1


def test_extent_pins_drain_after_ack(stacks):
    """The server's SEG_ACK (sent once its handler returns) unpins the
    request extent, so repeated bulk sends do not exhaust the segment."""
    _echo_server(stacks)
    client = stacks("A", segment_size=1 << 20)
    body = b"r" * 200_000  # five in flight would overflow 1 MiB
    for _ in range(20):
        client.endpoint.send(
            "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
        )
    deadline = time.monotonic() + 2.0
    while client._allocator.pinned_bytes() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert client._allocator.pinned_bytes() == 0


def test_handover_trace_event(stacks):
    """Tracing records a ``segment-handover`` event per mapped extent,
    carrying the extent identity and the mapper's causal stamp."""
    stats = StatsCollector(trace=True)
    server = _echo_server(stacks, stats=stats)
    client = stacks("A", stats=stats)
    body = b"t" * 100_000
    client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    events = list(stats.events_in("segment-handover"))
    assert len(events) == 2  # request mapped at B, reply mapped at A
    request_event = next(e for e in events if e.data["kind"] == "call")
    assert request_event.data["src"] == "A"
    assert request_event.data["dst"] == "B"
    assert request_event.data["length"] == len(body)
    assert request_event.data["segment"] == client._allocator.name
    assert request_event.data["epoch"] == request_event.data["segment_epoch"]
    assert request_event.data["extent"] > 0
    for key in ("site", "seq", "vc"):
        assert key in request_event.data


def test_stale_epoch_reference_rejected(stacks):
    """Bumping the segment epoch invalidates every outstanding
    reference: a mapped-too-late extent fails loudly, never reads
    half-written bytes."""
    server = stacks("B")
    seen = []
    server.endpoint.register_handler(
        MessageKind.CALL, lambda m: seen.append(bytes(m.payload)) or b"ok"
    )
    client = stacks("A")
    body = b"s" * 100_000
    client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    client._allocator.bump_epoch()
    with pytest.raises(TransportError):
        server._validate_extent(
            client._allocator.name,
            SegmentAllocator.HEADER + _EXTENT_HEADER,
            1,
            client._allocator.epoch - 1,
        )


def test_torn_extent_stamp_rejected(stacks):
    server = stacks("B")
    client = stacks("A")
    offset, stamp, view = client._allocator.reserve(64)
    view[:2] = b"ok"
    client._allocator.publish(offset)
    # Open the segment at B, then claim a different stamp: torn.
    with pytest.raises(TransportError) as excinfo:
        server._validate_extent(
            client._allocator.name,
            offset + _EXTENT_HEADER,
            stamp + 7,
            client._allocator.epoch,
        )
    assert "torn" in str(excinfo.value)
    client._allocator.release(offset, stamp)


def test_handler_retains_lease_past_return(stacks):
    """A handler that must keep a zero-copy payload alive calls
    ``carrier_ref.retain()``; the view stays valid until it releases."""
    server = stacks("B")
    held = {}

    def keep(message):
        if message.carrier_ref is not None:
            message.carrier_ref.retain()
            held["lease"] = message.carrier_ref
            held["view"] = message.payload
        return b"kept"

    server.endpoint.register_handler(MessageKind.CALL, keep)
    client = stacks("A")
    body = b"k" * 100_000
    client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    assert bytes(held["view"]) == body
    held["lease"].validate()  # still current: epoch and stamp intact
    held["lease"].release()


# -- stale segment reaping ----------------------------------------------------


def test_purge_reaps_dead_owner_segments():
    """Segments whose recorded owner pid is dead get unlinked; live
    owners' segments are left alone."""
    prefix = "srpc-purge-" + os.urandom(3).hex()
    dead = SegmentAllocator(prefix + "-dead", 64 * 1024)
    live = SegmentAllocator(prefix + "-live", 64 * 1024)
    try:
        # Forge a dead owner: pid 1 is init (alive), so use an absurd
        # pid that cannot exist on this host.
        _U64.pack_into(dead.shm.buf, 24, 2**22 + 12345)
        reaped = purge_stale_segments(prefix)
        assert prefix + "-dead" in reaped
        assert prefix + "-live" not in reaped
        assert not os.path.exists(os.path.join(SHM_DIR, prefix + "-dead"))
        assert os.path.exists(os.path.join(SHM_DIR, prefix + "-live"))
    finally:
        dead._mv = memoryview(b"")
        dead.shm.close()
        live.close()


def test_close_unlinks_every_segment():
    transport = ShmTransport("solo")
    transport.start()
    name = transport.name
    assert os.path.exists(os.path.join(SHM_DIR, name))
    assert os.path.exists(os.path.join(SHM_DIR, name + ".d"))
    transport.close()
    leftovers = [
        entry for entry in os.listdir(SHM_DIR) if entry.startswith(name)
    ]
    assert leftovers == []


# -- resource-tracker bookkeeping ---------------------------------------------


def test_interleaved_create_and_attach_keep_the_tracker_balanced(
    monkeypatch,
):
    """A dialer's create and a poller's attach of one segment in one
    process must not interleave as REGISTER, REGISTER, UNREGISTER,
    UNREGISTER: the tracker keeps names in a set, so the second
    UNREGISTER would find nothing (the tracker process then prints a
    ``KeyError`` traceback)."""
    tracked = set()
    unbalanced = []
    registered = threading.Event()

    def register(name, rtype):
        tracked.add(name)
        registered.set()
        # Widen the window between this REGISTER and its UNREGISTER.
        time.sleep(0.2)

    def unregister(name, rtype):
        try:
            tracked.remove(name)
        except KeyError:
            unbalanced.append(name)

    monkeypatch.setattr(resource_tracker, "register", register)
    monkeypatch.setattr(resource_tracker, "unregister", unregister)
    name = "srpc-race-" + os.urandom(4).hex()
    segments = []

    def attach():
        assert registered.wait(5)
        segments.append(_attach_segment(name))

    attacher = threading.Thread(target=attach)
    attacher.start()
    created = _create_segment(name, 4096)
    attacher.join(5)
    try:
        assert len(segments) == 1
        assert unbalanced == []
        assert tracked == set()
    finally:
        for segment in segments:
            _close_segment(segment)
        _close_segment(created, unlink=True)
