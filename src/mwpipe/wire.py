"""Live-adapter wire protocol: length-prefixed UTF-8 text frames over TCP.

A frame is the ASCII decimal byte length of the payload, a newline, then the
payload bytes; no payload may exceed MAX_FRAME_BYTES. Text framing keeps the
stream debuggable with netcat while staying unambiguous for binary-safe
readers.

serve_bag sends the bag's manifest line as frame 0, then one frame per
record carrying that record's line from the bag verbatim, without its
newline. For a bag BagWriter wrote, the frames after frame 0 are therefore
its canonical record lines; a hand-written line that is valid but not
canonical (extra whitespace, an integer in an f64 field) goes out as it
was written. At rate "max" frames are sent in batches of at least 64 KiB;
a paced stream sends each frame as soon as it is due.
Batching changes how the stream is cut into writes, never its bytes.
"""

from __future__ import annotations

import socket

from .bag import header_lines, paced_samples, read_manifest
from .errors import WireError

MAX_FRAME_BYTES = 16 * 1024 * 1024
# The longest header of a frame within MAX_FRAME_BYTES, newline excluded.
_MAX_HEADER_BYTES = len(str(MAX_FRAME_BYTES))
_SEND_BATCH_BYTES = 64 * 1024
_RECV_BYTES = 64 * 1024


def _frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return b"%d\n%b" % (len(payload), payload)


def send_frame(sock: socket.socket, payload: bytes):
    sock.sendall(_frame(payload))


def recv_frames(sock: socket.socket):
    """Yield payload bytes per frame until the peer closes the stream.

    A header that is not a decimal length, or a length above
    MAX_FRAME_BYTES, raises WireError, and so does a close inside a frame,
    in its header or its payload; a close between frames ends the stream.
    Each received byte is copied a bounded number of times.
    """
    buf = b""
    pos = 0  # start of the first unread frame in buf
    while True:
        nl = buf.find(b"\n", pos, pos + _MAX_HEADER_BYTES + 1)
        if nl < 0:
            if len(buf) - pos > _MAX_HEADER_BYTES:
                raise WireError(f"frame header longer than {_MAX_HEADER_BYTES} bytes: "
                                f"{buf[pos:pos + 32]!r}")
            chunk = sock.recv(_RECV_BYTES)
            if not chunk:
                if len(buf) > pos:
                    raise WireError(f"stream ended inside a frame header: {buf[pos:]!r}")
                return
            buf = buf[pos:] + chunk
            pos = 0
            continue
        header = buf[pos:nl]
        if not header.isdigit():
            raise WireError(f"frame header is not a decimal length: {header!r}")
        length = int(header)
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
        end = nl + 1 + length
        if len(buf) < end:
            # Gather the rest of the frame in one join, not one copy per recv.
            parts = [buf[pos:]]
            have = len(buf)
            while have < end:
                chunk = sock.recv(_RECV_BYTES)
                if not chunk:
                    raise WireError(f"stream ended {end - have} bytes short of a "
                                    f"{length}-byte frame")
                parts.append(chunk)
                have += len(chunk)
            buf = b"".join(parts)
            nl, end, pos = nl - pos, end - pos, 0
        yield buf[nl + 1:end]
        pos = end


def serve_bag(path, host: str = "127.0.0.1", port: int = 0,
              rate: float | str = "max", ready=None) -> tuple:
    """Serve a bag's records as frames to one client; returns (host, port, n).

    The manifest is sent as frame 0. ready, when given, is a callable
    invoked with (host, port) once listening (used to synchronize tests).
    A corrupt record raises CorruptBag once every record before it is sent.
    """
    samples = paced_samples(path, rate)
    read_manifest(path)  # raises on a bad header before we bind
    manifest_line = header_lines(path)[1].rstrip(b"\r\n")
    # Paced, each frame goes out at once, so none waits behind a pacing sleep.
    batch_bytes = _SEND_BATCH_BYTES if rate == "max" else 0
    srv = socket.create_server((host, port))
    bound = srv.getsockname()
    if ready is not None:
        ready(bound[0], bound[1])
    conn, _ = srv.accept()
    sent = 0
    try:
        out = bytearray(_frame(manifest_line))
        with open(path, "rb") as fh:
            try:
                for offset, _ in samples:
                    fh.seek(offset)
                    out += _frame(fh.readline().rstrip(b"\n"))
                    sent += 1
                    if len(out) >= batch_bytes:
                        conn.sendall(out)
                        out.clear()
            finally:
                # At the end, and before an error such as CorruptBag leaves,
                # the client gets every frame built so far.
                conn.sendall(out)
    finally:
        conn.close()
        srv.close()
    return bound[0], bound[1], sent
