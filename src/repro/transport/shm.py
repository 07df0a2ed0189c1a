"""A zero-copy shared-memory carrier: segment-offset page shipping.

:class:`ShmTransport` is the third carrier beside the simulator and
:class:`~repro.transport.tcp.TcpTransport`.  It speaks the exact same
:class:`~repro.transport.base.Transport` / ``Endpoint`` contract —
every runtime, workload, benchmark and test runs on it unmodified via
``make_world(transport="shm")`` — but nothing it ships crosses a
socket.  Control traffic flows through lock-free SPSC ring buffers in
a shared *connection segment*; bulk payloads (protected-page fills,
activity transfers, write-back batches) never enter the rings at all:
the sender parks the bytes once in its own *data segment* and ships a
``SEG_REQUEST`` / ``SEG_REPLY`` frame carrying only ``(segment,
offset, length, extent, epoch)`` — the swizzling target of a long
pointer becomes a segment offset, and the receiver reads the payload
in place through a ``memoryview``.

Layout and protocol
-------------------

Three kinds of POSIX shared-memory segment, all named under the
transport's random base name (``srpc-<hex>``):

* the **listener segment** (the base name itself) is the transport's
  published address — directory registrations carry it in the ``host``
  field with port 0.  Its header holds magic, protocol version, owner
  pid and a ready/closed word so a dialer can refuse a corpse.
* a **connection segment** (``<listener>.c<hex>``) is created by each
  dialer: a header with per-side closed flags and heartbeat words,
  then two slotted SPSC rings (dialer→listener, listener→dialer).
  A slot is ``[seq:u64][len:u32][pad][payload]``; the producer writes
  length and payload first and publishes by storing ``seq = pos + 1``
  last, the consumer retires the slot by storing ``seq = pos + slots``
  (Vyukov's sequence scheme, futex-free: both sides spin with a short
  sleep backoff; aligned 8-byte stores are the only synchronisation).
* the **data segment** (``<listener>.d``) backs the zero-copy path:
  a :class:`SegmentAllocator` hands out epoch-stamped *extents*
  (``[stamp:u64][len:u32][pad]`` + payload, stamp written last as the
  publication barrier).  The receiver validates the segment epoch and
  extent stamp before reading and acknowledges with ``SEG_ACK`` when
  done, which unpins the extent for reuse.  The two-phase write-back
  of DESIGN.md §12 commits *in place*: ``WRITEBACK_PREPARE`` stages a
  :class:`SegmentLease` on the staged batch (the bytes stay in the
  sender's segment), and ``WRITEBACK_COMMIT`` applies through the
  staged view and releases the lease — the commit is the flip of the
  extent's stamp word from pinned to retired, not a re-ship of pages.

Reliability is the shared engine of :mod:`repro.transport.exchange`,
exactly as on TCP: this module is the *link* — dial (create a
connection segment and handshake on the caller's thread), accept and
deliver (one poller thread scans for dialers and drains every receive
ring into the engine), write one frame into a ring, close — plus the
engine's two payload hooks, which spill large request and reply bodies
into the data segment and map received extents.  Peer death is
detected by heartbeat words going stale (or a closed flag) — never a
hang — and a dying transport bumps its data segment's epoch so any
extent reference still in flight fails validation instead of reading
freed memory (no torn page can be observed).

Every exchange carries the PR 6 vector clocks in its frame header, and
every zero-copy mapping records a ``segment-handover`` trace event
(checked offline by rule SRPC330 and replayed by the SRPC4xx
sanitizer).  Segments a crashed process left behind are reaped by
:func:`purge_stale_segments`, keyed on the owner pid in each header.
"""

from __future__ import annotations

import itertools
import os
import struct
import threading
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.simnet.message import MessageKind
from repro.transport.base import Endpoint, TransportError
from repro.transport.exchange import (
    HANDSHAKE_TIMEOUT,
    Connection,
    FramedTransport,
)
from repro.transport.framing import (
    PROTOCOL_VERSION,
    STATUS_OK,
    FramingError,
    Frame,
    SegAck,
    SegReply,
    SegRequest,
    clock_to_wire,
    decode_frame,
    encode_frame,
)

#: Where the kernel exposes POSIX shared memory objects.
SHM_DIR = "/dev/shm"

#: Listener/data/connection segment names all start with this.
NAME_PREFIX = "srpc-"

#: Data segment capacity (``--segment-size``).
DEFAULT_SEGMENT_SIZE = 16 * 1024 * 1024

#: Slots per SPSC ring (``--ring-slots``).
DEFAULT_RING_SLOTS = 64

#: Payload capacity of one ring slot; frames that do not fit ship
#: their payload through the data segment instead.
SLOT_BYTES = 4096

#: Payloads above this ship as segment extents; the threshold leaves
#: headroom in the slot for the frame envelope.
SPILL_THRESHOLD = SLOT_BYTES - 512

#: Seconds of silent heartbeat after which a peer is declared dead.
PEER_TIMEOUT = 2.0

#: How often the poller bumps its heartbeat words.
HEARTBEAT_INTERVAL = 0.05

#: How often the listener rescans ``/dev/shm`` for new dialers.
ACCEPT_SCAN_INTERVAL = 0.002

#: A pinned extent whose SEG_ACK never arrives is reclaimed after
#: this many seconds (the peer crashed mid-read, or a retained
#: write-back lease was orphaned by an aborted session).
PIN_TTL = 60.0

_LISTENER_MAGIC = b"SRPCLSN1"
_CONN_MAGIC = b"SRPCCON1"
_DATA_MAGIC = b"SRPCDAT1"

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

# Listener segment header offsets.
_L_MAGIC, _L_VERSION, _L_READY, _L_CLOSED, _L_PID = 0, 8, 12, 16, 24
_LISTENER_SEG_SIZE = 64

# Connection segment header offsets (rings follow at _CONN_HEADER).
_C_MAGIC, _C_VERSION, _C_READY = 0, 8, 12
_C_CLOSED_A, _C_CLOSED_B = 16, 20
_C_HB_A, _C_HB_B, _C_PID_A, _C_PID_B = 24, 32, 40, 48
_CONN_HEADER = 64

# Data segment header offsets (extents follow at SegmentAllocator.HEADER).
_D_MAGIC, _D_VERSION, _D_EPOCH, _D_PID, _D_SIZE = 0, 8, 16, 24, 32

# Per-slot ring header: published sequence number, payload length.
_SLOT_HEADER = 16

# Per-extent header: publication stamp, payload length.
_EXTENT_HEADER = 16


def _ring_decode(data: bytes) -> Frame:
    """Decode one ring slot (a whole wire image, prefix included).

    Slots carry :func:`encode_frame` output verbatim — the 4-byte
    length prefix is redundant next to the slot's own length word, but
    keeping it means recorded frames are byte-identical across the TCP
    and shm carriers.
    """
    return decode_frame(memoryview(data)[4:])


#: Serialises every tracked open with its untrack (see :func:`_open_segment`).
_TRACKER_LOCK = threading.Lock()


def _open_segment(name: str, **options) -> shared_memory.SharedMemory:
    """Open a segment and detach it from the resource tracker.

    CPython (bpo-39959) registers shared memory with the tracker on
    *attach* as well as create, so any process that merely mapped a
    segment would unlink it on exit — yanking live memory out from
    under its surviving peers and spewing leak warnings.  Ownership is
    ours to manage: each segment is unlinked exactly once, by its
    creator's ``close()`` or by :func:`purge_stale_segments`.

    The tracker keeps registered names in a *set*, so when a dialer's
    create and a poller's attach of one segment interleave in one
    process (REGISTER, REGISTER, UNREGISTER, UNREGISTER) the second
    UNREGISTER finds nothing and the tracker prints a ``KeyError``.
    The lock keeps each REGISTER paired with its UNREGISTER.
    """
    with _TRACKER_LOCK:
        shm = shared_memory.SharedMemory(name=name, **options)
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals
            pass
    return shm


def _create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    return _open_segment(name, create=True, size=size)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    return _open_segment(name)


def _close_segment(
    shm: Optional[shared_memory.SharedMemory], unlink: bool = False
) -> None:
    """Best-effort unmap (and unlink) tolerating exported views.

    ``mmap.close`` refuses while zero-copy ``memoryview``s over the
    segment are still alive (``BufferError``); the mapping then simply
    lives until process exit.  ``unlink`` always proceeds — a POSIX
    shm object stays readable for everyone who already mapped it.
    """
    if shm is None:
        return
    if unlink:
        # Not shm.unlink(): that would send a second UNREGISTER to the
        # resource tracker (we already detached in ``_open_segment``), and
        # the tracker daemon logs a KeyError for every unpaired one.
        try:
            import _posixshmem

            _posixshmem.shm_unlink(shm._name)
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - teardown best effort
            pass
    try:
        shm.close()
    except BufferError:
        # Zero-copy views over the mapping are still alive.  Hand the
        # mmap over to them (it unmaps when the last view dies), close
        # the fd now, and blank the object so its ``__del__`` does not
        # retry ``close()`` and re-raise at GC time.
        try:
            shm._mmap = None
            if shm._fd >= 0:
                os.close(shm._fd)
                shm._fd = -1
        except Exception:  # pragma: no cover - teardown best effort
            pass
    except Exception:  # pragma: no cover - teardown best effort
        pass


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    except OSError:  # pragma: no cover - defensive
        return False
    return True


def purge_stale_segments(prefix: str = NAME_PREFIX) -> List[str]:
    """Unlink segments whose recorded owner process is dead.

    Crash tests kill hosts with ``os._exit``, which never runs
    ``close()``; the segments they leave in :data:`SHM_DIR` carry the
    owner pid in their header, so anybody (the next test, a fresh
    host) can reap them.  Returns the names unlinked.
    """
    reaped: List[str] = []
    try:
        names = sorted(os.listdir(SHM_DIR))
    except OSError:  # pragma: no cover - no /dev/shm
        return reaped
    for name in names:
        if not name.startswith(prefix):
            continue
        try:
            shm = _attach_segment(name)
        except (FileNotFoundError, OSError, ValueError):
            continue
        try:
            magic = bytes(shm.buf[:8])
            if magic == _LISTENER_MAGIC:
                pid = _U64.unpack_from(shm.buf, _L_PID)[0]
            elif magic == _CONN_MAGIC:
                pid = _U64.unpack_from(shm.buf, _C_PID_A)[0]
            elif magic == _DATA_MAGIC:
                pid = _U64.unpack_from(shm.buf, _D_PID)[0]
            else:
                continue
            if not _pid_alive(pid):
                reaped.append(name)
        finally:
            _close_segment(shm, unlink=name in reaped)
    return reaped


def _backoff():
    """Spin → yield → sleep, the futex-free waiting discipline.

    Each ``next()`` is one pause.  A handful of raw spins catches the
    common case (the peer is about to publish), ``sleep(0)`` yields the
    GIL to in-process peers, and a short capped sleep keeps an idle
    poller near-free while bounding added latency to ~0.2 ms.
    """
    for spins in itertools.count(1):
        if spins > 64:
            time.sleep(min(0.0002, 0.00001 * (spins - 64)))
        elif spins > 16:
            time.sleep(0)
        yield


class _Ring:
    """One SPSC slotted ring inside a connection segment.

    Exactly one process produces and exactly one consumes; within the
    producing process a lock serialises concurrent senders, so the
    cross-process protocol stays single-producer.  Publication relies
    on aligned 8-byte stores being atomic and ordered after the
    payload write (x86-64 TSO; CPython's ``pack_into`` into an aligned
    ``memoryview`` is a single 8-byte store).
    """

    def __init__(
        self, mv: memoryview, base: int, slots: int, slot_bytes: int
    ) -> None:
        self._mv = mv
        self._base = base
        self._slots = slots
        self._stride = _SLOT_HEADER + slot_bytes
        self.capacity = slot_bytes
        self._pos = 0  # this side's produce (or consume) position
        self._lock = threading.Lock()

    @staticmethod
    def region_size(slots: int, slot_bytes: int) -> int:
        return slots * (_SLOT_HEADER + slot_bytes)

    @staticmethod
    def format(mv: memoryview, base: int, slots: int, slot_bytes: int) -> None:
        """Initialise slot sequence numbers for an empty ring."""
        stride = _SLOT_HEADER + slot_bytes
        for index in range(slots):
            _U64.pack_into(mv, base + index * stride, index)
            _U32.pack_into(mv, base + index * stride + 8, 0)

    def try_push(self, data: bytes) -> bool:
        """Publish one frame; False when the ring is full."""
        if len(data) > self.capacity:
            raise FramingError(
                f"frame of {len(data)} bytes exceeds the ring slot "
                f"capacity of {self.capacity}"
            )
        with self._lock:
            pos = self._pos
            slot = self._base + (pos % self._slots) * self._stride
            if _U64.unpack_from(self._mv, slot)[0] != pos:
                return False
            body = slot + _SLOT_HEADER
            _U32.pack_into(self._mv, slot + 8, len(data))
            self._mv[body : body + len(data)] = data
            # The store of seq = pos + 1 is the publication barrier.
            _U64.pack_into(self._mv, slot, pos + 1)
            self._pos = pos + 1
            return True

    def try_pop(self) -> Optional[bytes]:
        """Consume one frame; None when the ring is empty."""
        pos = self._pos
        slot = self._base + (pos % self._slots) * self._stride
        if _U64.unpack_from(self._mv, slot)[0] != pos + 1:
            return None
        length = _U32.unpack_from(self._mv, slot + 8)[0]
        body = slot + _SLOT_HEADER
        data = bytes(self._mv[body : body + length])
        # Retiring the slot hands it back to the producer's next lap.
        _U64.pack_into(self._mv, slot, pos + self._slots)
        self._pos = pos + 1
        return data


class _Connection(Connection):
    """One connection segment: two rings plus liveness words."""

    def __init__(
        self,
        name: str,
        shm: shared_memory.SharedMemory,
        slots: int,
        dialer: bool,
    ) -> None:
        super().__init__()
        self.name = name
        self.shm = shm
        self.owned = dialer  # the dialer created the segment (and unlinks)
        self._mv = mv = shm.buf
        region = _Ring.region_size(slots, SLOT_BYTES)
        rings = [
            _Ring(mv, _CONN_HEADER + side * region, slots, SLOT_BYTES)
            for side in (0, 1)
        ]
        words = [(_C_HB_A, _C_CLOSED_A), (_C_HB_B, _C_CLOSED_B)]
        # Ring 0 and the A words belong to the dialer, 1 and B to the
        # listener.
        mine = 0 if dialer else 1
        self.tx, self.rx = rings[mine], rings[1 - mine]
        self._hb_mine, self._closed_mine = words[mine]
        self._hb_theirs, self._closed_theirs = words[1 - mine]
        self._hb_value = 0
        self._peer_hb = -1
        self._peer_hb_seen = time.monotonic()

    def beat(self) -> None:
        """Bump this side's heartbeat word."""
        self._hb_value += 1
        _U64.pack_into(self._mv, self._hb_mine, self._hb_value)

    def peer_stalled(self, timeout: float) -> bool:
        """True once the peer's heartbeat word has been silent too long."""
        current = _U64.unpack_from(self._mv, self._hb_theirs)[0]
        now = time.monotonic()
        if current != self._peer_hb:
            self._peer_hb = current
            self._peer_hb_seen = now
            return False
        return now - self._peer_hb_seen > timeout

    def peer_closed(self) -> bool:
        return _U32.unpack_from(self._mv, self._closed_theirs)[0] != 0

    def mark_closed(self) -> None:
        try:
            _U32.pack_into(self._mv, self._closed_mine, 1)
        except Exception:  # pragma: no cover - segment already unmapped
            pass

    def write(self, data: bytes, timeout: float) -> None:
        """Push one frame, spinning while the ring is full."""
        deadline = time.monotonic() + timeout
        pause = _backoff()
        while True:
            if not self.alive:
                raise ConnectionResetError(
                    f"connection {self.name} is closed"
                )
            if self.tx.try_push(data):
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"ring to {self.peer!r} full for {timeout}s"
                )
            next(pause)

    def abort(self, error: Exception) -> None:
        self.mark_closed()
        super().abort(error)

    def release(self) -> None:
        """Unmap (and unlink, if we created the segment)."""
        self._mv = memoryview(b"")
        self.tx = self.rx = None  # type: ignore[assignment]
        _close_segment(self.shm, unlink=self.owned)


class SegmentLease:
    """A receiver's claim on one extent of a peer's data segment.

    Attached to :attr:`Message.carrier_ref` whenever a payload is a
    zero-copy view.  The transport settles the lease (sends the
    ``SEG_ACK`` that unpins the extent) as soon as the handler
    returns, *unless* the handler called :meth:`retain` — the staged
    write-back does exactly that, keeping the batch pinned in the
    sender's segment until ``WRITEBACK_COMMIT`` applies it in place
    and releases.
    """

    def __init__(
        self, transport: "ShmTransport", conn: _Connection, frame,
        view: memoryview,
    ) -> None:
        """Lease the extent a ``SEG_REQUEST`` / ``SEG_REPLY`` names."""
        self._transport = transport
        self._conn = conn
        self.segment = frame.segment
        self.offset = frame.offset
        self.extent = frame.extent
        self.epoch = frame.epoch
        self.view: Optional[memoryview] = view
        self.retained = False
        self._released = False
        self._lock = threading.Lock()

    def retain(self) -> None:
        """Keep the extent pinned past the handler's return."""
        with self._lock:
            if self._released:
                raise TransportError(
                    f"lease on {self.segment}+{self.offset} already released"
                )
            self.retained = True

    def validate(self) -> None:
        """Re-check the extent's stamp and epoch (tear detection)."""
        self._transport._validate_extent(
            self.segment, self.offset, self.extent, self.epoch
        )

    def release(self) -> None:
        """Drop the view and acknowledge the extent back to its owner."""
        with self._lock:
            if self._released:
                return
            self._released = True
            self.view = None
        self._transport._lease_released(self)
        ack = encode_frame(
            SegAck(segment=self.segment, offset=self.offset,
                   extent=self.extent)
        )
        # Best effort: a dead connection means the owner is reaping
        # pins for this peer (or expiring them by TTL) anyway.
        self._conn.try_write(ack)

    def settle(self) -> None:
        """Release unless the handler retained the lease."""
        if not self.retained:
            self.release()


class SegmentPayload:
    """A payload already resident in this transport's data segment.

    The fully zero-copy *send* path: ``reserve_payload`` hands out a
    writable view straight into the data segment, the caller fills it
    (or decodes/encodes in place), and ``exchange`` ships only the
    offset — no per-byte work happens in the carrier at all.  Plain
    ``bytes`` payloads still work everywhere and cost the carrier one
    copy into the segment.
    """

    __slots__ = ("offset", "stamp", "view", "length", "published")

    def __init__(
        self, offset: int, stamp: int, view: memoryview, length: int
    ) -> None:
        self.offset = offset
        self.stamp = stamp
        self.view = view
        self.length = length
        self.published = False

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0


class SegmentAllocator:
    """Epoch-stamped extent allocator over one data segment.

    Extents are bump-allocated and *pinned* until the receiving peer
    acknowledges them (``SEG_ACK``) — the allocator skips pinned
    regions when the bump pointer laps the segment.  Every extent
    carries a monotonically increasing stamp written *after* its
    payload: the stamp both publishes the bytes and lets a reader
    detect a stale or torn reference (stamp mismatch).  The segment
    header's epoch word invalidates every outstanding reference at
    once — bumped when the owner shuts down or a peer is declared
    dead, so a crashed owner's extents fail validation instead of
    being read half-written.
    """

    HEADER = 64

    def __init__(self, name: str, size: int) -> None:
        if size < self.HEADER + _EXTENT_HEADER + 64:
            raise ValueError(f"data segment size {size} too small")
        self.name = name
        self.size = size
        self.shm = _create_segment(name, size)
        self._mv = self.shm.buf
        # The magic goes in LAST: purge_stale_segments treats a valid
        # magic with a dead (or zero) owner pid as reapable, so the pid
        # must be visible before the segment identifies itself.
        _U32.pack_into(self._mv, _D_VERSION, PROTOCOL_VERSION)
        _U64.pack_into(self._mv, _D_EPOCH, 1)
        _U64.pack_into(self._mv, _D_PID, os.getpid())
        _U64.pack_into(self._mv, _D_SIZE, size)
        self._mv[_D_MAGIC : _D_MAGIC + 8] = _DATA_MAGIC
        self._epoch = 1
        self._stamps = itertools.count(1)
        self._bump = self.HEADER
        # offset -> [end, stamp, pinned_at, peer]
        self._pins: Dict[int, List] = {}
        self._lock = threading.Lock()

    @property
    def epoch(self) -> int:
        return self._epoch

    def bump_epoch(self) -> None:
        """Invalidate every outstanding extent reference at once."""
        with self._lock:
            self._epoch += 1
            _U64.pack_into(self._mv, _D_EPOCH, self._epoch)

    def pinned_bytes(self) -> int:
        with self._lock:
            return sum(end - off for off, (end, *_rest) in self._pins.items())

    def reserve(
        self,
        length: int,
        peer: Optional[str] = None,
        timeout: float = HANDSHAKE_TIMEOUT,
    ) -> Tuple[int, int, memoryview]:
        """Pin a fresh extent; returns ``(offset, stamp, view)``.

        The view is the writable payload region.  The extent is not
        visible to readers until :meth:`publish` stamps it.
        """
        need = _EXTENT_HEADER + length
        need += (-need) % 64
        if need > self.size - self.HEADER:
            raise TransportError(
                f"payload of {length} bytes exceeds the {self.size}-byte "
                f"data segment {self.name!r} (raise --segment-size)"
            )
        deadline = time.monotonic() + timeout
        pause = _backoff()
        while True:
            with self._lock:
                offset = self._find(need)
                if offset is not None:
                    stamp = next(self._stamps)
                    self._pins[offset] = [
                        offset + need, stamp, time.monotonic(), peer,
                    ]
                    break
            self.expire_pins()
            if time.monotonic() > deadline:
                raise TransportError(
                    f"data segment {self.name!r} has no room for "
                    f"{length} bytes ({len(self._pins)} extents pinned; "
                    "raise --segment-size)"
                )
            next(pause)
        body = offset + _EXTENT_HEADER
        _U32.pack_into(self._mv, offset + 8, length)
        return offset, stamp, self._mv[body : body + length]

    def _find(self, need: int) -> Optional[int]:
        """First gap of ``need`` bytes not overlapping a pinned extent."""
        pins = sorted(
            (off, entry[0]) for off, entry in self._pins.items()
        )
        for start in (self._bump, self.HEADER):
            pos = start
            while pos + need <= self.size:
                clash = next(
                    (p for p in pins if p[0] < pos + need and p[1] > pos),
                    None,
                )
                if clash is None:
                    self._bump = pos + need
                    return pos
                pos = clash[1]
        return None

    def publish(self, offset: int) -> None:
        """Stamp the extent — the store that makes it readable."""
        with self._lock:
            entry = self._pins.get(offset)
            if entry is None:
                raise TransportError(
                    f"publish of unreserved extent at offset {offset}"
                )
            stamp = entry[1]
        _U64.pack_into(self._mv, offset, stamp)

    def release(self, offset: int, stamp: int) -> bool:
        """Unpin the extent, guarded by its stamp (stale acks no-op)."""
        with self._lock:
            entry = self._pins.get(offset)
            if entry is None or entry[1] != stamp:
                return False
            del self._pins[offset]
            return True

    def repin(self, offset: int, peer: str) -> None:
        """Charge a pinned extent to ``peer`` (see :meth:`release_peer`)."""
        with self._lock:
            entry = self._pins.get(offset)
            if entry is not None:
                entry[3] = peer

    def release_peer(self, peer: str) -> int:
        """Unpin everything shipped to a now-dead peer."""
        with self._lock:
            stale = [
                off for off, entry in self._pins.items()
                if entry[3] == peer
            ]
            for off in stale:
                del self._pins[off]
            return len(stale)

    def expire_pins(self, ttl: float = PIN_TTL) -> int:
        """Reclaim pins whose SEG_ACK never arrived (crashed readers)."""
        now = time.monotonic()
        with self._lock:
            stale = [
                off for off, entry in self._pins.items()
                if now - entry[2] > ttl
            ]
            for off in stale:
                del self._pins[off]
            return len(stale)

    def close(self) -> None:
        """Invalidate outstanding references, unmap and unlink."""
        try:
            self.bump_epoch()
        except (ValueError, TypeError):  # pragma: no cover - unmapped
            pass
        self._mv = memoryview(b"")
        _close_segment(self.shm, unlink=True)


class ShmEndpoint(Endpoint):
    """The one address space a :class:`ShmTransport` hosts."""

    def __init__(self, site_id: str, transport: "ShmTransport") -> None:
        super().__init__(site_id)
        self.transport = transport

    def send(
        self,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        """Run one framed exchange with ``dst``; blocks until replied."""
        return self.transport.exchange(
            dst, kind, payload, reply_kind, timeout=timeout
        )


class ShmTransport(FramedTransport):
    """Ring-buffered, segment-offset-shipped at-most-once exchanges.

    ``peers`` maps site ids to listener segment names (directory
    records carry the name in their ``host`` field, port 0); see
    :class:`~repro.transport.exchange.FramedTransport` for the rest.
    """

    endpoint_class = ShmEndpoint

    #: A refused dial here is a missing or closed listener segment;
    #: poll for it briskly instead of sitting out the attempt timeout.
    redial_pause = 0.05

    def __init__(
        self,
        site_id: str,
        *,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        ring_slots: int = DEFAULT_RING_SLOTS,
        **options,
    ) -> None:
        super().__init__(site_id, **options)
        if ring_slots < 2:
            raise ValueError(f"bad ring geometry slots={ring_slots}")
        self._segment_size = segment_size
        self._ring_slots = ring_slots
        self.spill_threshold = SPILL_THRESHOLD
        self.name = NAME_PREFIX + os.urandom(6).hex()
        self.handovers = 0
        self._allocator: Optional[SegmentAllocator] = None
        self._listener_shm: Optional[shared_memory.SharedMemory] = None
        self._accepting: Dict[str, Tuple[_Connection, float]] = {}
        self._seen_conn_names: Set[str] = set()
        self._attached: Dict[str, Tuple[shared_memory.SharedMemory,
                                        memoryview]] = {}
        self._attach_lock = threading.Lock()
        self._deferred = threading.local()
        self._all_deferred: Set[SegmentLease] = set()
        self._deferred_lock = threading.Lock()
        self._stopping = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    def _open(self) -> Optional[str]:
        """Create segments and start the poller; the address is the
        listener segment name (``None`` when not listening)."""
        if not os.path.isdir(SHM_DIR):  # pragma: no cover - exotic host
            raise TransportError(
                f"shared-memory carrier needs {SHM_DIR} (POSIX shm)"
            )
        self._allocator = SegmentAllocator(
            self.name + ".d", self._segment_size
        )
        address = None
        if self._listen:
            shm = _create_segment(self.name, _LISTENER_SEG_SIZE)
            mv = shm.buf
            # Magic last: a concurrent purge must never see the magic
            # with the owner-pid word still zero (it would reap us).
            _U32.pack_into(mv, _L_VERSION, self._protocol_version)
            _U64.pack_into(mv, _L_PID, os.getpid())
            _U32.pack_into(mv, _L_CLOSED, 0)
            _U32.pack_into(mv, _L_READY, 1)
            mv[_L_MAGIC : _L_MAGIC + 8] = _LISTENER_MAGIC
            self._listener_shm = shm
            address = self.name
        self._spawn(f"shm-poll-{self.site_id}", self._poll_loop)
        return address

    def close(self) -> None:
        """Say goodbye, invalidate the segment epoch, unlink everything."""
        if self._closed:
            return
        # Settle zero-copy reply leases still deferred anywhere.
        with self._deferred_lock:
            leases = list(self._all_deferred)
        for lease in leases:
            lease.release()
        super().close()
        for conn, _deadline in self._accepting.values():
            conn.release()
        self._accepting.clear()
        with self._attach_lock:
            attached = list(self._attached.values())
            self._attached.clear()
        for shm, _mv in attached:
            _close_segment(shm)
        if self._allocator is not None:
            self._allocator.close()
        _close_segment(self._listener_shm, unlink=True)

    def _stop(self) -> None:
        if self._listener_shm is not None:
            _U32.pack_into(self._listener_shm.buf, _L_CLOSED, 1)
        self._stopping.set()

    # -- peer addressing ------------------------------------------------------

    def add_peer(self, site_id: str, address: Union[str, Tuple]) -> None:
        """Teach this transport which listener segment ``site_id`` owns
        (a segment name, or a directory ``(name, 0)`` pair)."""
        if isinstance(address, tuple):
            address = address[0]
        self._peers[site_id] = str(address)

    # -- payload hooks: spill to the data segment, map extents ----------------

    def reserve_payload(self, length: int) -> SegmentPayload:
        """A writable view straight into this transport's data segment.

        Fill it and pass the :class:`SegmentPayload` to ``exchange`` /
        ``send`` in place of ``bytes``: the carrier then ships only
        the segment offset — zero per-byte cost end to end.
        """
        if self._allocator is None:
            raise TransportError(
                f"transport for {self.site_id!r} is not started"
            )
        offset, stamp, view = self._allocator.reserve(length)
        return SegmentPayload(offset, stamp, view, length)

    def _spill(self, body, peer: Optional[str] = None) -> Optional[dict]:
        """Park a large (or pre-reserved) body in the data segment;
        returns the extent fields of its SEG frame, else ``None``.

        ``peer`` re-routes the extent's pin to the peer that will read
        it, so a dead reader's unacked extent is reaped with its
        connection.
        """
        if isinstance(body, SegmentPayload):
            spill = body
        elif len(body) > self.spill_threshold and self._allocator:
            spill = self.reserve_payload(len(body))
            spill.view[:] = body
        else:
            return None
        if not spill.published:
            self._allocator.publish(spill.offset)
            spill.published = True
        if peer is not None:
            self._allocator.repin(spill.offset, peer)
        return dict(
            segment=self._allocator.name,
            offset=spill.offset + _EXTENT_HEADER,
            length=spill.length,
            extent=spill.stamp,
            epoch=self._allocator.epoch,
        )

    def _request_frame(
        self, exchange_id, dst, kind, payload, expects_reply, clock
    ):
        # A new exchange from this thread: the views of its previous
        # replies are consumed, so their extents can be acknowledged.
        self._flush_deferred()
        extent = self._spill(payload)
        if extent is None:
            return super()._request_frame(
                exchange_id, dst, kind, payload, expects_reply, clock
            )
        if isinstance(payload, SegmentPayload):
            payload = payload.view
        return SegRequest(
            exchange_id=exchange_id,
            src=self.site_id,
            dst=dst,
            kind=kind.value,
            expects_reply=expects_reply,
            clock=clock,
            **extent,
        ), payload

    def _abandon(self, frame: Frame) -> None:
        if isinstance(frame, SegRequest) and self._allocator is not None:
            self._allocator.release(
                frame.offset - _EXTENT_HEADER, frame.extent
            )

    def _reply_frame(self, request: Frame, body) -> Frame:
        extent = self._spill(body, peer=request.src)
        if extent is None:
            return super()._reply_frame(request, body)
        return SegReply(
            exchange_id=request.exchange_id,
            status=STATUS_OK,
            clock=clock_to_wire(self.endpoint.vclock.tick()),
            **extent,
        )

    def _open_payload(self, conn, src, kind, frame):
        if isinstance(frame, SegRequest):
            return self._map_extent(conn, src, kind, frame)
        if isinstance(frame, SegReply):
            # The ack is deferred until this thread's next exchange so
            # the caller can consume the view first.
            view, lease = self._map_extent(conn, src, "reply", frame)
            self._defer_release(lease)
            return view, None
        return frame.payload, None

    def _defer_release(self, lease: SegmentLease) -> None:
        acks = getattr(self._deferred, "acks", None)
        if acks is None:
            acks = []
            self._deferred.acks = acks
        acks.append(lease)
        with self._deferred_lock:
            self._all_deferred.add(lease)

    def _flush_deferred(self) -> None:
        acks = getattr(self._deferred, "acks", None)
        if not acks:
            return
        pending, self._deferred.acks = list(acks), []
        for lease in pending:
            lease.release()

    def _lease_released(self, lease: SegmentLease) -> None:
        with self._deferred_lock:
            self._all_deferred.discard(lease)

    # -- connection management ------------------------------------------------

    def _dial(self, dst: str, listener_name: str) -> _Connection:
        try:
            listener = _attach_segment(listener_name)
        except (FileNotFoundError, OSError, ValueError) as exc:
            raise ConnectionRefusedError(
                f"no listener segment {listener_name!r} ({exc})"
            ) from None
        try:
            if bytes(listener.buf[:8]) != _LISTENER_MAGIC:
                raise ConnectionRefusedError(
                    f"segment {listener_name!r} is not a listener"
                )
            if _U32.unpack_from(listener.buf, _L_READY)[0] != 1 or (
                _U32.unpack_from(listener.buf, _L_CLOSED)[0] != 0
            ):
                raise ConnectionRefusedError(
                    f"listener {listener_name!r} is not accepting"
                )
            pid = _U64.unpack_from(listener.buf, _L_PID)[0]
            if not _pid_alive(pid):
                raise ConnectionRefusedError(
                    f"listener {listener_name!r} owner (pid {pid}) is dead"
                )
        finally:
            _close_segment(listener)
        conn_name = f"{listener_name}.c{os.urandom(4).hex()}"
        region = _Ring.region_size(self._ring_slots, SLOT_BYTES)
        shm = _create_segment(conn_name, _CONN_HEADER + 2 * region)
        mv = shm.buf
        # Pid before magic: purge_stale_segments reaps any magicked
        # segment whose owner-pid word reads zero or dead.
        _U32.pack_into(mv, _C_VERSION, self._protocol_version)
        _U64.pack_into(mv, _C_PID_A, os.getpid())
        mv[_C_MAGIC : _C_MAGIC + 8] = _CONN_MAGIC
        _Ring.format(mv, _CONN_HEADER, self._ring_slots, SLOT_BYTES)
        _Ring.format(mv, _CONN_HEADER + region, self._ring_slots, SLOT_BYTES)
        _U32.pack_into(mv, _C_READY, 1)
        conn = _Connection(conn_name, shm, self._ring_slots, dialer=True)
        conn.peer = dst
        conn.beat()
        # Handshake runs on this thread; the poller takes over only
        # after the connection is adopted (SPSC stays SPSC).
        self._greet(conn, lambda: self._await_frame(conn, dst))
        return conn

    @staticmethod
    def _await_frame(conn: _Connection, dst: str) -> Frame:
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT
        pause = _backoff()
        data = conn.rx.try_pop()
        while data is None:
            if time.monotonic() > deadline:
                raise ConnectionRefusedError(
                    f"no WELCOME from {dst!r} within {HANDSHAKE_TIMEOUT}s"
                )
            next(pause)
            data = conn.rx.try_pop()
        return _ring_decode(data)

    def _drop_conn(self, conn: _Connection, error: Exception) -> None:
        super()._drop_conn(conn, error)
        if conn.peer and self._allocator is not None:
            self._allocator.release_peer(conn.peer)

    # -- poller ---------------------------------------------------------------

    def _poll_loop(self) -> None:
        pause = _backoff()
        last_scan = 0.0
        last_beat = 0.0
        while not self._stopping.is_set():
            progressed = False
            now = time.monotonic()
            if self._listen and now - last_scan >= ACCEPT_SCAN_INTERVAL:
                last_scan = now
                try:
                    progressed |= self._scan_for_dialers()
                except Exception:  # pragma: no cover - defensive
                    pass
            progressed |= self._pump_accepting(now)
            beat = now - last_beat >= HEARTBEAT_INTERVAL
            if beat:
                last_beat = now
            for conn in self._connections():
                if not conn.alive:
                    continue
                try:
                    progressed |= self._pump(conn)
                except Exception:  # pragma: no cover - defensive
                    self._drop_conn(conn, ConnectionResetError("poll failure"))
                    continue
                if beat:
                    try:
                        conn.beat()
                        gone = conn.peer_closed() or (
                            conn.peer_stalled(PEER_TIMEOUT)
                        )
                    except Exception:  # segment released under us
                        gone = True
                    if gone:
                        error = ConnectionResetError(f"{conn.peer!r} is gone")
                        self._drop_conn(conn, error)
            if beat and self._allocator is not None:
                self._allocator.expire_pins()
            if progressed:
                pause = _backoff()
            else:
                next(pause)

    def _scan_for_dialers(self) -> bool:
        """Attach fresh connection segments dialers created for us."""
        prefix = self.name + ".c"
        progressed = False
        try:
            names = os.listdir(SHM_DIR)
        except OSError:  # pragma: no cover - /dev/shm vanished
            return False
        for name in names:
            if not name.startswith(prefix) or name in self._seen_conn_names:
                continue
            self._seen_conn_names.add(name)
            try:
                shm = _attach_segment(name)
            except (FileNotFoundError, OSError, ValueError):
                continue
            if bytes(shm.buf[:8]) != _CONN_MAGIC or (
                _U32.unpack_from(shm.buf, _C_READY)[0] != 1
            ):
                _close_segment(shm)
                self._seen_conn_names.discard(name)
                continue
            conn = _Connection(name, shm, self._ring_slots, dialer=False)
            _U64.pack_into(shm.buf, _C_PID_B, os.getpid())
            conn.beat()
            self._accepting[name] = (
                conn, time.monotonic() + HANDSHAKE_TIMEOUT
            )
            progressed = True
        return progressed

    def _pump_accepting(self, now: float) -> bool:
        """Finish handshakes on connections still awaiting HELLO."""
        progressed = False
        for name, (conn, deadline) in list(self._accepting.items()):
            data = conn.rx.try_pop()
            if data is None:
                if now > deadline:
                    del self._accepting[name]
                    conn.release()
                continue
            progressed = True
            del self._accepting[name]
            try:
                answer, conn.peer = self._answer_hello(_ring_decode(data))
                conn.try_write(encode_frame(answer))
            except FramingError:
                conn.peer = None
            if conn.peer is None:
                conn.release()
            else:
                self._adopt(conn, dialed=False)
        return progressed

    def _pump(self, conn: _Connection) -> bool:
        """Drain one connection's receive ring into the engine."""
        progressed = False
        while True:
            data = conn.rx.try_pop()
            if data is None:
                return progressed
            progressed = True
            try:
                frame = _ring_decode(data)
            except FramingError:
                self._drop_conn(
                    conn, ConnectionResetError("malformed frame")
                )
                return True
            if isinstance(frame, SegAck):
                if self._allocator is not None:
                    self._allocator.release(
                        frame.offset - _EXTENT_HEADER, frame.extent
                    )
            elif not self._dispatch(conn, frame):
                return True

    # -- segment mapping ------------------------------------------------------

    def _data_view(self, segment: str) -> memoryview:
        with self._attach_lock:
            entry = self._attached.get(segment)
            if entry is None:
                try:
                    shm = _attach_segment(segment)
                except (FileNotFoundError, OSError, ValueError) as exc:
                    raise TransportError(
                        f"cannot attach data segment {segment!r} ({exc})"
                    ) from None
                if bytes(shm.buf[:8]) != _DATA_MAGIC:
                    _close_segment(shm)
                    raise TransportError(
                        f"segment {segment!r} is not a data segment"
                    )
                entry = (shm, shm.buf)
                self._attached[segment] = entry
            return entry[1]

    def _validate_extent(
        self, segment: str, offset: int, extent: int, epoch: int
    ) -> memoryview:
        mv = self._data_view(segment)
        seg_epoch = _U64.unpack_from(mv, _D_EPOCH)[0]
        if seg_epoch != epoch:
            raise TransportError(
                f"stale extent reference into {segment!r}: frame epoch "
                f"{epoch} vs segment epoch {seg_epoch} (owner restarted "
                "or shut down)"
            )
        header = offset - _EXTENT_HEADER
        if header < SegmentAllocator.HEADER or offset > len(mv):
            raise TransportError(
                f"extent offset {offset} out of bounds for {segment!r}"
            )
        stamp = _U64.unpack_from(mv, header)[0]
        if stamp != extent:
            raise TransportError(
                f"torn extent at {segment!r}+{offset}: stamp {stamp} "
                f"vs expected {extent} (extent reused or unpublished)"
            )
        return mv

    def _map_extent(
        self, conn: _Connection, src: str, kind: str, frame
    ) -> Tuple[memoryview, SegmentLease]:
        """Validate and map one SEG frame's extent; records the
        handover event."""
        segment, offset, length = frame.segment, frame.offset, frame.length
        mv = self._validate_extent(segment, offset, frame.extent, frame.epoch)
        stored = _U32.unpack_from(mv, offset - 8)[0]
        if stored != length:
            raise TransportError(
                f"torn extent at {segment!r}+{offset}: length {stored} "
                f"vs expected {length}"
            )
        view = mv[offset : offset + length]
        lease = SegmentLease(self, conn, frame, view)
        self.handovers += 1
        if self.stats.tracing:
            data = {
                "src": src,
                "dst": self.site_id,
                "kind": kind,
                "segment": segment,
                "offset": offset,
                "length": length,
                "extent": frame.extent,
                "epoch": frame.epoch,
                # The live epoch word, re-read at mapping time: rule
                # SRPC330 checks it against the frame's epoch offline.
                "segment_epoch": _U64.unpack_from(mv, _D_EPOCH)[0],
            }
            data.update(self.endpoint.stamp())
            self.stats.record_event(
                self.clock.now,
                "segment-handover",
                f"{src}->{self.site_id} {kind} {length}B in place "
                f"@{segment}+{offset}",
                data=data,
            )
        return view, lease
