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
was written. The frames are cut straight from the judged chunks of the bag
(bag.paced_chunks), so each line is read once. The records that are due go
out in writes of up to _SEND_ROWS frames: at rate "max" a chunk (about
128 KiB of lines) takes a few writes, and a paced stream writes its next
records as soon as they are due. Batching changes how the stream is cut
into writes, never its bytes.
"""

from __future__ import annotations

import socket

from .bag import header_lines, paced_chunks, read_manifest
from .errors import WireError

MAX_FRAME_BYTES = 16 * 1024 * 1024
# The longest header of a frame within MAX_FRAME_BYTES, newline excluded.
_MAX_HEADER_BYTES = len(str(MAX_FRAME_BYTES))
_RECV_BYTES = 64 * 1024
# Records framed per write; a bound on the line and frame objects alive at once.
_SEND_ROWS = 512


def send_frame(sock: socket.socket, payload: bytes):
    _send_frames(sock, [payload])


def recv_frames(sock: socket.socket):
    """Yield payload bytes per frame until the peer closes the stream.

    A header that is not a decimal length as _send_frames writes it (digits
    only, no leading zero), or a length above MAX_FRAME_BYTES, raises
    WireError, and so does a close inside a frame, in its header or its
    payload; a close between frames ends the stream.
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
        if not header.isdigit() or header.startswith(b"0") and header != b"0":
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


def _send_frames(conn: socket.socket, payloads: list):
    """Send the frames of the given payloads in one write. A payload over
    MAX_FRAME_BYTES raises WireError once those before it are sent."""
    if payloads and max(map(len, payloads)) > MAX_FRAME_BYTES:
        k = next(i for i, p in enumerate(payloads) if len(p) > MAX_FRAME_BYTES)
        _send_frames(conn, payloads[:k])
        raise WireError(f"frame of {len(payloads[k])} bytes exceeds {MAX_FRAME_BYTES}")
    parts = [b""] * (2 * len(payloads))
    parts[::2] = map(b"%d\n".__mod__, map(len, payloads))
    parts[1::2] = payloads
    conn.sendall(b"".join(parts))


def serve_bag(path, host: str = "127.0.0.1", port: int = 0,
              rate: float | str = "max", ready=None) -> tuple:
    """Serve a bag's records as frames to one client; returns (host, port, n).

    The manifest is sent as frame 0. ready, when given, is a callable
    invoked with (host, port) once listening (used to synchronize tests).
    A refused record (bag.paced_chunks), on a topic the manifest does not
    list among them, raises CorruptBag, a record due further off than the
    clock can wait RateTooSlow, and a line too long for a frame WireError,
    once every record before it is sent. A client that hangs up raises
    WireError with the number of records sent before, and so does an
    address that cannot be bound (in use, or not this host's).
    """
    chunks = paced_chunks(path, rate)
    read_manifest(path)  # raises on a bad header before we bind
    manifest_line = header_lines(path)[1].rstrip(b"\r\n")
    try:
        srv = socket.create_server((host, port))
    except OSError as e:
        raise WireError(f"cannot listen on {host}:{port}: {e}") from e
    sent = 0
    with srv:
        bound = srv.getsockname()
        if ready is not None:
            ready(bound[0], bound[1])
        conn, _ = srv.accept()

        def send(payloads):
            try:
                _send_frames(conn, payloads)
            except OSError as e:  # a reset connection or a broken pipe
                raise WireError(f"the client hung up after {sent} records: {e}") from e

        with conn:
            send([manifest_line])
            for chunk, lo, hi in chunks:
                at = chunk.offsets
                for a in range(lo, hi, _SEND_ROWS):
                    b = min(a + _SEND_ROWS, hi)
                    end = at[b] - at[0] if b < len(at) else len(chunk.data)
                    lines = chunk.data[at[a] - at[0]:end].split(b"\n")[:b - a]
                    send(lines)
                    sent += len(lines)
                del chunk  # not alive while the next chunk is judged
    return bound[0], bound[1], sent
