"""A raw-socket HTTP/1.1 client for load generation.

``http.client`` costs tens of microseconds per request in Python and
saturated near 1.5k requests/s, below the server's knee, so the
benchmark frames requests and responses itself over keep-alive
sockets.  Framing is by ``Content-Length`` only (the server never
sends chunked bodies); a response whose headers say ``Connection:
close`` marks the connection closed after its body.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass

__all__ = ["HttpResponse", "RawConnection", "parse_head"]

_RECV = 65536


@dataclass(frozen=True, slots=True)
class HttpResponse:
    status: int
    headers: dict[str, str]
    body: bytes


def parse_head(head: bytes) -> tuple[int, dict[str, str]]:
    """Status code and lower-cased headers of one response head.

    ``head`` is everything before the blank line, without the final
    CRLF pair; every header line is parsed the same way, whichever
    position it holds.
    """
    lines = head.split(b"\r\n")
    parts = lines[0].split(b" ", 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        raise ValueError(f"malformed status line {lines[0][:80]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep:
            raise ValueError(f"malformed header line {line[:80]!r}")
        headers[name.strip().lower().decode("latin-1")] = value.strip().decode("latin-1")
    return int(parts[1]), headers


class RawConnection:
    """One keep-alive connection; not thread-safe (one per thread)."""

    def __init__(self, host: str, port: int, *, timeout: float = 10.0) -> None:
        self._host_header = f"{host}:{port}".encode("ascii")
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        self.closed = False

    @classmethod
    def from_socket(cls, sock: socket.socket, host: str = "test") -> "RawConnection":
        """Wrap an already-connected socket (self-tests use socketpairs)."""
        conn = cls.__new__(cls)
        conn._host_header = host.encode("ascii")
        conn.sock = sock
        conn._buffer = bytearray()
        conn.closed = False
        return conn

    def send(self, method: str, target: str, body: bytes = b"", *, close: bool = False) -> None:
        head = [f"{method} {target} HTTP/1.1".encode("ascii"), b"Host: " + self._host_header]
        if method == "POST":
            head.append(b"Content-Type: application/json")
            head.append(b"Content-Length: %d" % len(body))
        if close:
            head.append(b"Connection: close")
        self.sock.sendall(b"\r\n".join(head) + b"\r\n\r\n" + body)

    def _fill(self) -> None:
        chunk = self.sock.recv(_RECV)
        if not chunk:
            self.closed = True
            raise ConnectionError("server closed the connection mid-response")
        self._buffer += chunk

    def receive(self) -> HttpResponse:
        """Read exactly one response off the connection."""
        while True:
            end = self._buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        status, headers = parse_head(bytes(self._buffer[:end]))
        length = int(headers.get("content-length", "0"))
        start = end + 4
        while len(self._buffer) < start + length:
            self._fill()
        body = bytes(self._buffer[start:start + length])
        del self._buffer[:start + length]
        if headers.get("connection", "").lower() == "close":
            self.closed = True
        return HttpResponse(status, headers, body)

    def request(self, method: str, target: str, body: bytes = b"", *, close: bool = False) -> HttpResponse:
        self.send(method, target, body, close=close)
        return self.receive()

    def close(self) -> None:
        self.closed = True
        self.sock.close()

    def __enter__(self) -> "RawConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
