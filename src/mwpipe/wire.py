"""Live-adapter wire protocol: length-prefixed UTF-8 text frames over TCP.

One frame per sample, identical content to a bag record line. A frame is
the ASCII decimal byte length of the payload, a newline, then the payload
bytes. Text framing keeps the stream debuggable with netcat while staying
unambiguous for binary-safe readers.
"""

from __future__ import annotations

import socket

from .bag import _record_line, header_lines, paced_samples, read_manifest


def send_frame(sock: socket.socket, payload: bytes):
    sock.sendall(str(len(payload)).encode("ascii") + b"\n" + payload)


def recv_frames(sock: socket.socket):
    """Yield payload bytes per frame until the peer closes the stream."""
    buf = b""
    while True:
        while b"\n" not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                return
            buf += chunk
        header, buf = buf.split(b"\n", 1)
        length = int(header)
        while len(buf) < length:
            chunk = sock.recv(65536)
            if not chunk:
                return
            buf += chunk
        yield buf[:length]
        buf = buf[length:]


def serve_bag(path, host: str = "127.0.0.1", port: int = 0,
              rate: float | str = "max", ready=None) -> tuple:
    """Serve a bag's records as frames to one client; returns (host, port, n).

    The manifest is sent as frame 0. ready, when given, is a callable
    invoked with (host, port) once listening (used to synchronize tests).
    """
    samples = paced_samples(path, rate)
    read_manifest(path)  # raises on a bad header before we bind
    manifest_line = header_lines(path)[1].rstrip(b"\r\n")
    srv = socket.create_server((host, port))
    bound = srv.getsockname()
    if ready is not None:
        ready(bound[0], bound[1])
    conn, _ = srv.accept()
    sent = 0
    try:
        send_frame(conn, manifest_line)
        for sample in samples:
            send_frame(conn, _record_line(sample).rstrip("\n").encode("utf-8"))
            sent += 1
    finally:
        conn.close()
        srv.close()
    return bound[0], bound[1], sent
