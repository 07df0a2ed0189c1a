"""A real inter-process carrier: framed exchanges over TCP sockets.

:class:`TcpTransport` carries the same :class:`~repro.simnet.message`
traffic as the simulator, but across genuine OS processes over
localhost (or any) TCP.  The protocol — retries, at-most-once serving,
the versioned handshake, fault injection — is the shared engine of
:mod:`repro.transport.exchange`; this module is only the *link*, built
on plain blocking sockets:

* an accept thread hands each inbound socket to its own reader thread,
  which answers the handshake and then delivers frames to the engine;
* every peer gets one connection, multiplexing all exchanges in flight
  in either direction, read by one reader thread;
* a caller writes its own request with ``sendall`` under the
  connection's write lock — no thread sits between caller and socket.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional, Tuple

from repro.simnet.message import MessageKind
from repro.transport.base import Endpoint
from repro.transport.exchange import (
    HANDSHAKE_TIMEOUT,
    Connection,
    FramedTransport,
)
from repro.transport.framing import (
    LENGTH_PREFIX,
    FramingError,
    decode_frame,
    encode_frame,
    frame_length,
)


class TcpEndpoint(Endpoint):
    """The one address space a :class:`TcpTransport` hosts."""

    def __init__(self, site_id: str, transport: "TcpTransport") -> None:
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


class _Socket(Connection):
    """One TCP connection: locked ``sendall`` out, one buffered reader in."""

    def __init__(self, sock: socket.socket, peer: Optional[str] = None):
        super().__init__(peer)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._rfile = sock.makefile("rb")
        self._lock = threading.Lock()

    def write(self, data: bytes, timeout: float) -> None:
        # Blocking: the peer's reader thread always drains its socket.
        if not self.alive:
            raise ConnectionResetError("connection is closed")
        with self._lock:
            self.sock.sendall(data)

    def read_frame(self):
        """Read one frame; ``None`` on clean EOF."""
        prefix = self._rfile.read(LENGTH_PREFIX.size)
        if not prefix:
            return None
        if len(prefix) < LENGTH_PREFIX.size:
            raise FramingError(
                "connection closed mid-frame (truncated length prefix)"
            )
        length = frame_length(prefix)
        body = self._rfile.read(length)
        if len(body) < length:
            raise FramingError("connection closed mid-frame (truncated body)")
        return decode_frame(body)

    def abort(self, error: Exception) -> None:
        super().abort(error)
        # Wakes this connection's reader thread with EOF.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def release(self) -> None:
        for closable in (self._rfile, self.sock):
            try:
                closable.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass


class TcpTransport(FramedTransport):
    """Length-prefixed, retried, at-most-once exchanges over TCP.

    ``peers`` maps site ids to ``(host, port)``; see
    :class:`~repro.transport.exchange.FramedTransport` for the other
    options.
    """

    endpoint_class = TcpEndpoint

    def __init__(
        self,
        site_id: str,
        host: str = "127.0.0.1",
        port: int = 0,
        **options,
    ) -> None:
        super().__init__(site_id, **options)
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None

    def _open(self) -> Optional[Tuple[str, int]]:
        if not self._listen:
            return None
        self._listener = socket.create_server((self._host, self._port))
        self._spawn(f"tcp-accept-{self.site_id}", self._accept_loop)
        host, port = self._listener.getsockname()[:2]
        return host, port

    def _stop(self) -> None:
        if self._listener is not None:
            # shutdown() is what wakes a thread blocked in accept().
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            self._spawn(f"tcp-conn-{self.site_id}", self._serve_socket, sock)

    def _serve_socket(self, sock: socket.socket) -> None:
        """Answer the handshake, then read frames until the peer leaves."""
        conn = _Socket(sock)
        with self._conn_lock:
            # Tracked from the start so close() can wake the handshake.
            self._conns.add(conn)
        try:
            if not self._closed:
                sock.settimeout(HANDSHAKE_TIMEOUT)
                answer, conn.peer = self._answer_hello(conn.read_frame())
                conn.write(encode_frame(answer), HANDSHAKE_TIMEOUT)
                sock.settimeout(None)
        except (OSError, ValueError, FramingError):
            conn.peer = None
        if conn.peer is None:
            self._drop_conn(conn, ConnectionResetError("handshake failed"))
        else:
            self._adopt(conn, dialed=False)
            self._read_loop(conn)

    def _dial(self, dst: str, address) -> Connection:
        sock = socket.create_connection(
            tuple(address), timeout=HANDSHAKE_TIMEOUT
        )
        conn = _Socket(sock, dst)
        self._greet(conn, conn.read_frame)
        sock.settimeout(None)
        self._spawn(f"tcp-conn-{self.site_id}", self._read_loop, conn)
        return conn

    def _read_loop(self, conn: _Socket) -> None:
        try:
            while True:
                frame = conn.read_frame()
                if frame is None or not self._dispatch(conn, frame):
                    break
        except (OSError, ValueError, FramingError):
            pass
        finally:
            self._drop_conn(conn, ConnectionResetError("connection lost"))
