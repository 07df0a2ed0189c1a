"""Length-prefixed binary framing for the real carriers.

Every frame on the wire is a 4-byte big-endian body length followed by
the body; the body is a frame-type word followed by XDR-encoded fields
(the same :mod:`repro.xdr` stream codec the RPC payloads use, so the
whole wire format has one encoding discipline).  The TCP transport
writes frames onto sockets; the shared-memory transport
(:mod:`repro.transport.shm`) writes the *same* frames into its ring
buffers, so both carriers share one codec and one handshake.

Frame vocabulary::

    HELLO        client -> server  protocol version + sender site id
    WELCOME      server -> client  accepted version + server site id
    GOODBYE      either direction  refusal / orderly close, with reason
    REQUEST      client -> server  one exchange: id, src, dst, kind, body
    REPLY        server -> client  exchange id, status, body
    PING         client -> server  liveness probe (token)
    PONG         server -> client  liveness echo (token)
    SEG_REQUEST  client -> server  a REQUEST whose payload lives in a
                                   shared data segment (name, offset,
                                   length, extent stamp, epoch)
    SEG_REPLY    server -> client  a REPLY shipped the same way
    SEG_ACK      either direction  the receiver is done reading one
                                   segment extent; the owner may reuse it

The ``SEG_*`` frames are the shared-memory carrier's zero-copy path:
instead of copying a large payload through the ring they hand over an
*offset* into the sender's data segment (see
:class:`repro.transport.shm.SegmentAllocator`), which the receiver maps
as a ``memoryview`` and decodes in place.  TCP never emits them.

The handshake is versioned: a connection opens with ``HELLO``; the
server answers ``WELCOME`` when it speaks that version and ``GOODBYE``
(then closes) when it does not, so incompatible peers fail loudly at
connect time instead of corrupting exchanges.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Tuple, Union

from repro.transport.base import TransportError
from repro.xdr.errors import XdrError
from repro.xdr.stream import XdrDecoder, XdrEncoder

#: Current wire protocol version, sent in every HELLO/WELCOME.
#: Version 2 added the piggybacked vector clock on REQUEST/REPLY.
PROTOCOL_VERSION = 2

#: Upper bound on one frame body; guards against garbage length words.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Wire size of the length prefix.
LENGTH_PREFIX = struct.Struct("!I")

#: Reply status codes.
STATUS_OK = 0
STATUS_HANDLER_ERROR = 1


class FramingError(TransportError):
    """A frame could not be encoded or decoded."""


class FrameType(enum.IntEnum):
    """The 1-byte discriminator opening every frame body."""

    HELLO = 1
    WELCOME = 2
    GOODBYE = 3
    REQUEST = 4
    REPLY = 5
    PING = 6
    PONG = 7
    SEG_REQUEST = 8
    SEG_REPLY = 9
    SEG_ACK = 10


@dataclass(frozen=True)
class Hello:
    """Connection opener: who is calling and which protocol they speak."""

    version: int
    site_id: str


@dataclass(frozen=True)
class Welcome:
    """Handshake acceptance: the version in force and the server's id."""

    version: int
    site_id: str


@dataclass(frozen=True)
class Goodbye:
    """Refusal or orderly close, with a human-readable reason."""

    site_id: str
    reason: str


@dataclass(frozen=True)
class Request:
    """One exchange request.

    ``exchange_id`` is unique per sending site; the receiver's
    duplicate suppression keys on ``(src, exchange_id)``, so a
    retransmitted request (same id) never re-runs the handler.
    """

    exchange_id: int
    src: str
    dst: str
    kind: str
    expects_reply: bool
    payload: bytes
    #: Sender's vector clock, piggybacked for causal trace stamping:
    #: sorted ``(site id, tick count)`` pairs.
    clock: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Reply:
    """The response to one exchange, matched by ``exchange_id``."""

    exchange_id: int
    status: int
    payload: bytes
    #: Responder's vector clock at reply time (see :class:`Request`).
    clock: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Ping:
    """Transport-level liveness probe."""

    token: int


@dataclass(frozen=True)
class Pong:
    """Echo of one :class:`Ping`'s token."""

    token: int


@dataclass(frozen=True)
class SegRequest:
    """A :class:`Request` whose payload is handed over by reference.

    ``segment`` names the sender's shared data segment; the payload is
    the ``length`` bytes at ``offset``.  ``extent`` is the extent's
    publication stamp and ``epoch`` the segment epoch at allocation
    time: the receiver validates both before and after reading, so a
    recycled or invalidated extent is detected instead of silently
    yielding a torn payload.
    """

    exchange_id: int
    src: str
    dst: str
    kind: str
    expects_reply: bool
    segment: str
    offset: int
    length: int
    extent: int
    epoch: int
    clock: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class SegReply:
    """A :class:`Reply` shipped by segment reference (see above)."""

    exchange_id: int
    status: int
    segment: str
    offset: int
    length: int
    extent: int
    epoch: int
    clock: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class SegAck:
    """The receiver finished reading one extent; the owner may reuse it."""

    segment: str
    offset: int
    extent: int


Frame = Union[
    Hello, Welcome, Goodbye, Request, Reply, Ping, Pong,
    SegRequest, SegReply, SegAck,
]


def clock_to_wire(clock) -> Tuple[Tuple[str, int], ...]:
    """Normalize a vector-clock mapping into its wire form."""
    return tuple(sorted((str(k), int(v)) for k, v in dict(clock).items()))


def _encode_clock(
    encoder: XdrEncoder, clock: Tuple[Tuple[str, int], ...]
) -> None:
    encoder.pack_uint32(len(clock))
    for site, count in clock:
        encoder.pack_string(site)
        encoder.pack_uint64(count)


def _decode_clock(decoder: XdrDecoder) -> Tuple[Tuple[str, int], ...]:
    count = decoder.unpack_uint32()
    return tuple(
        (decoder.unpack_string(), decoder.unpack_uint64())
        for _ in range(count)
    )


def encode_frame(frame: Frame) -> bytes:
    """Serialize ``frame`` as length prefix + body."""
    encoder = XdrEncoder.pooled()
    try:
        return bytes(encode_frame_into(frame, encoder))
    finally:
        encoder.release()


def encode_frame_into(frame: Frame, encoder: XdrEncoder) -> memoryview:
    """Serialize ``frame`` into ``encoder``; return the wire image.

    The whole wire image — length prefix and body — is packed into the
    encoder's single buffer, so a ``Request``/``Reply`` payload is
    copied exactly once between the caller and the socket.  The
    returned view aliases the encoder's buffer: write (or copy) it
    before reusing the encoder.
    """
    start = encoder.size
    encoder.pack_uint32(0)  # length prefix, patched below
    if isinstance(frame, Hello):
        encoder.pack_uint32(FrameType.HELLO)
        encoder.pack_uint32(frame.version)
        encoder.pack_string(frame.site_id)
    elif isinstance(frame, Welcome):
        encoder.pack_uint32(FrameType.WELCOME)
        encoder.pack_uint32(frame.version)
        encoder.pack_string(frame.site_id)
    elif isinstance(frame, Goodbye):
        encoder.pack_uint32(FrameType.GOODBYE)
        encoder.pack_string(frame.site_id)
        encoder.pack_string(frame.reason)
    elif isinstance(frame, Request):
        encoder.pack_uint32(FrameType.REQUEST)
        encoder.pack_uint64(frame.exchange_id)
        encoder.pack_string(frame.src)
        encoder.pack_string(frame.dst)
        encoder.pack_string(frame.kind)
        encoder.pack_bool(frame.expects_reply)
        _encode_clock(encoder, frame.clock)
        encoder.pack_opaque(frame.payload)
    elif isinstance(frame, Reply):
        encoder.pack_uint32(FrameType.REPLY)
        encoder.pack_uint64(frame.exchange_id)
        encoder.pack_uint32(frame.status)
        _encode_clock(encoder, frame.clock)
        encoder.pack_opaque(frame.payload)
    elif isinstance(frame, Ping):
        encoder.pack_uint32(FrameType.PING)
        encoder.pack_uint64(frame.token)
    elif isinstance(frame, Pong):
        encoder.pack_uint32(FrameType.PONG)
        encoder.pack_uint64(frame.token)
    elif isinstance(frame, SegRequest):
        encoder.pack_uint32(FrameType.SEG_REQUEST)
        encoder.pack_uint64(frame.exchange_id)
        encoder.pack_string(frame.src)
        encoder.pack_string(frame.dst)
        encoder.pack_string(frame.kind)
        encoder.pack_bool(frame.expects_reply)
        _encode_clock(encoder, frame.clock)
        encoder.pack_string(frame.segment)
        encoder.pack_uint64(frame.offset)
        encoder.pack_uint32(frame.length)
        encoder.pack_uint64(frame.extent)
        encoder.pack_uint64(frame.epoch)
    elif isinstance(frame, SegReply):
        encoder.pack_uint32(FrameType.SEG_REPLY)
        encoder.pack_uint64(frame.exchange_id)
        encoder.pack_uint32(frame.status)
        _encode_clock(encoder, frame.clock)
        encoder.pack_string(frame.segment)
        encoder.pack_uint64(frame.offset)
        encoder.pack_uint32(frame.length)
        encoder.pack_uint64(frame.extent)
        encoder.pack_uint64(frame.epoch)
    elif isinstance(frame, SegAck):
        encoder.pack_uint32(FrameType.SEG_ACK)
        encoder.pack_string(frame.segment)
        encoder.pack_uint64(frame.offset)
        encoder.pack_uint64(frame.extent)
    else:
        raise FramingError(f"cannot encode frame {frame!r}")
    body_length = encoder.size - start - LENGTH_PREFIX.size
    if body_length > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame body of {body_length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    image = encoder.getbuffer()[start:]
    LENGTH_PREFIX.pack_into(image, 0, body_length)
    return image


def decode_frame(body) -> Frame:
    """Parse one frame body (the bytes after the length prefix)."""
    decoder = XdrDecoder(body)
    try:
        raw_type = decoder.unpack_uint32()
        try:
            frame_type = FrameType(raw_type)
        except ValueError:
            raise FramingError(f"unknown frame type {raw_type!r}") from None
        if frame_type is FrameType.HELLO:
            frame: Frame = Hello(
                version=decoder.unpack_uint32(),
                site_id=decoder.unpack_string(),
            )
        elif frame_type is FrameType.WELCOME:
            frame = Welcome(
                version=decoder.unpack_uint32(),
                site_id=decoder.unpack_string(),
            )
        elif frame_type is FrameType.GOODBYE:
            frame = Goodbye(
                site_id=decoder.unpack_string(),
                reason=decoder.unpack_string(),
            )
        elif frame_type is FrameType.REQUEST:
            frame = Request(
                exchange_id=decoder.unpack_uint64(),
                src=decoder.unpack_string(),
                dst=decoder.unpack_string(),
                kind=decoder.unpack_string(),
                expects_reply=decoder.unpack_bool(),
                clock=_decode_clock(decoder),
                payload=decoder.unpack_opaque(),
            )
        elif frame_type is FrameType.REPLY:
            frame = Reply(
                exchange_id=decoder.unpack_uint64(),
                status=decoder.unpack_uint32(),
                clock=_decode_clock(decoder),
                payload=decoder.unpack_opaque(),
            )
        elif frame_type is FrameType.PING:
            frame = Ping(token=decoder.unpack_uint64())
        elif frame_type is FrameType.PONG:
            frame = Pong(token=decoder.unpack_uint64())
        elif frame_type is FrameType.SEG_REQUEST:
            frame = SegRequest(
                exchange_id=decoder.unpack_uint64(),
                src=decoder.unpack_string(),
                dst=decoder.unpack_string(),
                kind=decoder.unpack_string(),
                expects_reply=decoder.unpack_bool(),
                clock=_decode_clock(decoder),
                segment=decoder.unpack_string(),
                offset=decoder.unpack_uint64(),
                length=decoder.unpack_uint32(),
                extent=decoder.unpack_uint64(),
                epoch=decoder.unpack_uint64(),
            )
        elif frame_type is FrameType.SEG_REPLY:
            frame = SegReply(
                exchange_id=decoder.unpack_uint64(),
                status=decoder.unpack_uint32(),
                clock=_decode_clock(decoder),
                segment=decoder.unpack_string(),
                offset=decoder.unpack_uint64(),
                length=decoder.unpack_uint32(),
                extent=decoder.unpack_uint64(),
                epoch=decoder.unpack_uint64(),
            )
        else:
            frame = SegAck(
                segment=decoder.unpack_string(),
                offset=decoder.unpack_uint64(),
                extent=decoder.unpack_uint64(),
            )
        decoder.expect_done()
    except XdrError as exc:
        raise FramingError(f"malformed frame body: {exc}") from None
    return frame


def split_buffer(buffer: bytes) -> Tuple[Union[Frame, None], bytes]:
    """Parse one frame off the front of ``buffer`` if complete.

    Returns ``(frame, rest)``; ``frame`` is ``None`` while the buffer
    holds less than one whole frame.  Used by tests and any sans-I/O
    consumer; the TCP link reads frames directly off its socket with
    :func:`frame_length`.
    """
    if len(buffer) < LENGTH_PREFIX.size:
        return None, buffer
    (length,) = LENGTH_PREFIX.unpack_from(buffer)
    if length > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    end = LENGTH_PREFIX.size + length
    if len(buffer) < end:
        return None, buffer
    body = memoryview(buffer)[LENGTH_PREFIX.size : end]
    return decode_frame(body), buffer[end:]


def frame_length(prefix: bytes) -> int:
    """Decode and bounds-check one 4-byte length prefix."""
    (length,) = LENGTH_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length
