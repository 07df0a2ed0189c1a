"""What only the TCP link does: blocking sockets, reader threads.

The exchange contract itself (retries, at-most-once, handshake, ping)
runs over both carriers in ``test_exchange.py``.
"""

import socket
import subprocess
import sys

import pytest

from repro.simnet.message import MessageKind
from repro.transport.base import RetryPolicy
from repro.transport.tcp import TcpTransport


@pytest.fixture
def server():
    transport = TcpTransport("B", retry=RetryPolicy(timeout=0.2))
    transport.start()
    transport.endpoint.register_handler(
        MessageKind.CALL, lambda m: b"echo:" + m.payload
    )
    yield transport
    transport.close()


def test_link_modules_do_not_import_asyncio():
    code = (
        "import sys, repro.transport.tcp, repro.transport.shm; "
        "assert 'asyncio' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_garbage_from_a_peer_drops_only_that_connection(server):
    """A peer that sends a malformed frame loses its own connection;
    the listener and every other peer carry on."""
    with socket.create_connection(server.address, timeout=5) as rogue:
        rogue.sendall(b"\x00\x00\x00\x03xyz")
        # The reader rejects the frame and closes the socket.
        assert rogue.recv(1024) == b""
    client = TcpTransport("A")
    client.start()
    try:
        client.add_peer("B", server.address)
        assert client.endpoint.send(
            "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
        ) == b"echo:hi"
    finally:
        client.close()
