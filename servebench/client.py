"""A minimal HTTP/1.1 keep-alive client for the load generator.

The load generator runs in its own process, so it never shares the
server's interpreter lock, and on one thread.
"""

from __future__ import annotations

import json
import socket
import time


def encode_request(method: str, path: str, payload=None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection to the server under test."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        self.sock.close()

    def _recv_into(self, buffer: bytearray) -> None:
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffer += chunk

    def call(self, request: bytes) -> "tuple[int, bytes]":
        """Send one request; the ``(status, body)`` of its response."""
        self.sock.sendall(request)
        buffer = bytearray()
        while (head_end := buffer.find(b"\r\n\r\n")) < 0:
            self._recv_into(buffer)
        lines = buffer[:head_end].decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _sep, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        end = head_end + 4 + length
        while len(buffer) < end:
            self._recv_into(buffer)
        return status, bytes(buffer[head_end + 4:end])


def drive(connections: list, requests: list) -> list:
    """Send ``(connection index, encoded request)`` pairs one at a time.

    Each request goes out when the previous answer is complete (a closed
    loop), so no two requests are ever in flight together.  Returns one
    ``(t_send, t_done, status, body)`` per request; times are
    ``time.perf_counter()`` seconds.
    """
    results = []
    for index, request in requests:
        start = time.perf_counter()
        status, body = connections[index].call(request)
        results.append((start, time.perf_counter(), status, body))
    return results
