"""Pluggable transports: how messages actually cross address spaces.

The runtimes in :mod:`repro.rpc` and :mod:`repro.smartrpc` speak to
their peers through a deliberately narrow waist — a
:class:`~repro.transport.base.Transport` owning the shared clock, cost
model and statistics, plus one :class:`~repro.transport.base.Endpoint`
per address space offering ``register_handler`` / ``send``.  Three
implementations exist:

* :class:`repro.simnet.network.Network` — the deterministic in-process
  simulator the paper's figures are reproduced on;
* :class:`repro.transport.tcp.TcpTransport` — a real TCP carrier
  (length-prefixed frames over blocking sockets, one connection per
  peer) so the same sessions run across genuine OS processes;
* :class:`repro.transport.shm.ShmTransport` — a zero-copy
  shared-memory carrier: control frames over lock-free SPSC ring
  buffers, bulk payloads handed over as epoch-stamped offsets into a
  shared data segment (no per-byte wire cost at all).

Both real carriers are *links* under one exchange engine,
:class:`repro.transport.exchange.FramedTransport`: the versioned
handshake, timeout/backoff retransmission, at-most-once duplicate
suppression and fault injection are written once there.

``python -m repro.transport serve`` hosts one address space per OS
process; see :mod:`repro.transport.host`.
"""

from repro.transport.base import (
    Endpoint,
    ReplyCache,
    RetryPolicy,
    Transport,
    TransportError,
)
from repro.transport.exchange import (
    FaultInjector,
    FramedTransport,
    HandshakeError,
    RemoteHandlerError,
)
from repro.transport.framing import PROTOCOL_VERSION
from repro.transport.shm import (
    SegmentAllocator,
    SegmentLease,
    SegmentPayload,
    ShmEndpoint,
    ShmTransport,
    purge_stale_segments,
)
from repro.transport.tcp import TcpEndpoint, TcpTransport
from repro.transport.wallclock import WallClock

__all__ = [
    "Endpoint",
    "FaultInjector",
    "FramedTransport",
    "HandshakeError",
    "PROTOCOL_VERSION",
    "RemoteHandlerError",
    "ReplyCache",
    "RetryPolicy",
    "SegmentAllocator",
    "SegmentLease",
    "SegmentPayload",
    "ShmEndpoint",
    "ShmTransport",
    "TcpEndpoint",
    "TcpTransport",
    "Transport",
    "TransportError",
    "WallClock",
    "purge_stale_segments",
]
