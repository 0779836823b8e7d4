import json
import socket
import struct
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from mwpipe.bag import BagWriter, header_lines
from mwpipe.bus import Bus, TopicDescriptor
from mwpipe.errors import CorruptBag, RateTooSlow, WireError
from mwpipe.wire import MAX_FRAME_BYTES, recv_frames, send_frame, serve_bag

from oracles import body_bytes, load_samples


def make_bag(path, n=40):
    bus = Bus()
    t = bus.open_topic(TopicDescriptor("w.x", {"v": "f64"}, 10.0))
    w = BagWriter(path, bus)
    w.start()
    for i in range(n):
        bus.publish(t, {"v": i / 7.0}, t_ns=i * 100_000_000)
    w.close()
    return path


def test_frame_round_trip_over_socketpair():
    a, b = socket.socketpair()
    payloads = [b"hello", b"", b"x" * 70000, "unicode µS".encode()]
    for p in payloads:
        send_frame(a, p)
    a.close()
    assert list(recv_frames(b)) == payloads
    b.close()


def test_a_client_that_hangs_up_is_a_wire_error(tmp_path):
    """The client reads the manifest and the first record, then resets the
    connection; the next paced record, due 0.4 s on, finds it gone. One
    record in flight is enough, whatever the size of the socket buffers."""
    path = make_bag(tmp_path / "wire.bag")  # a record every 100 ms
    bound, outcome = {}, {}
    ready = threading.Event()

    def serve():
        try:
            serve_bag(path, rate=0.25, ready=lambda h, p: (bound.update(addr=(h, p)), ready.set()))
        except Exception as e:
            outcome["error"] = e

    server = threading.Thread(target=serve)
    server.start()
    assert ready.wait(5.0)
    with socket.create_connection(bound["addr"], timeout=5.0) as sock:
        frames = recv_frames(sock)
        next(frames), next(frames)
        # closed with a reset, not an orderly shutdown the server could write past
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    server.join(timeout=10.0)
    assert not server.is_alive()
    error = outcome.get("error")
    assert isinstance(error, WireError), outcome
    sent = int(str(error).split("the client hung up after ")[1].split(" records")[0])
    assert 1 <= sent < 40


def test_serve_bag_streams_all_records(tmp_path):
    path = make_bag(tmp_path / "wire.bag")
    expected = load_samples(path)
    bound = {}
    ready = threading.Event()

    def on_ready(host, port):
        bound["addr"] = (host, port)
        ready.set()

    server = threading.Thread(
        target=serve_bag, args=(path,), kwargs={"port": 0, "ready": on_ready})
    server.start()
    assert ready.wait(5.0)
    with socket.create_connection(bound["addr"], timeout=5.0) as sock:
        frames = list(recv_frames(sock))
    server.join(timeout=5.0)
    manifest = json.loads(frames[0])
    assert manifest["format"] == "MWBAG1"
    records = [json.loads(f) for f in frames[1:]]
    assert len(records) == len(expected)
    for rec, sample in zip(records, expected):
        assert rec["t"] == sample.t_ns
        assert rec["topic"] == sample.topic
        assert rec["seq"] == sample.seq
        assert rec["data"]["v"] == sample.payload["v"]


def test_serve_bag_rejects_bad_rate_before_binding(tmp_path):
    path = make_bag(tmp_path / "rate.bag")

    def ready(host, port):
        raise AssertionError(f"bound {host}:{port} before checking the rate")

    with pytest.raises(ValueError):
        serve_bag(path, port=0, rate=0, ready=ready)


def test_serve_bag_on_a_port_in_use_is_a_wire_error(tmp_path):
    path = make_bag(tmp_path / "busy.bag")
    with socket.create_server(("127.0.0.1", 0)) as held:
        port = held.getsockname()[1]
        with pytest.raises(WireError, match=f"cannot listen on 127.0.0.1:{port}"):
            serve_bag(path, port=port)


def test_serve_bag_closes_its_listener_when_ready_raises(tmp_path):
    path = make_bag(tmp_path / "ready.bag")
    bound = {}

    def ready(host, port):
        bound["port"] = port
        raise RuntimeError("ready failed")

    with pytest.raises(RuntimeError) as raised:
        serve_bag(path, port=0, ready=ready)
    # The traceback keeps serve_bag's frame alive, so a listener the function
    # did not close itself would still hold the port here.
    with socket.create_server(("127.0.0.1", bound["port"])):
        pass
    assert str(raised.value) == "ready failed"


class ChunkedSocket:
    """A socket stand-in whose recv returns the stream cut at given sizes."""

    def __init__(self, data: bytes, sizes):
        self.data = data
        self.sizes = list(sizes)

    def recv(self, n: int) -> bytes:
        size = min(n, self.sizes.pop(0) if self.sizes else n)
        chunk, self.data = self.data[:size], self.data[size:]
        return chunk


@given(payloads=st.lists(st.binary(max_size=300), max_size=20),
       sizes=st.lists(st.integers(1, 400), max_size=50))
def test_recv_frames_ignores_how_the_stream_is_split(payloads, sizes):
    a, b = socket.socketpair()
    with a, b:
        for p in payloads:
            send_frame(a, p)
        a.shutdown(socket.SHUT_WR)
        stream = b""
        while chunk := b.recv(65536):
            stream += chunk
    assert list(recv_frames(ChunkedSocket(stream, sizes))) == payloads
    assert list(recv_frames(ChunkedSocket(stream, [1] * len(stream)))) == payloads


BAD_STREAMS = {
    "not_decimal": b"abc\n",
    "negative": b"-1\nx",
    "empty_header": b"\nx",
    "over_cap": b"%d\n" % (MAX_FRAME_BYTES + 1),
    "header_without_newline": b"1" * 64,
    "cut_in_header": b"12",
    "cut_in_payload": b"9\nhel",
}


@pytest.mark.parametrize("stream", BAD_STREAMS.values(), ids=BAD_STREAMS)
def test_recv_frames_rejects_bad_header(stream):
    a, b = socket.socketpair()
    with a, b:
        a.sendall(b"5\nhello" + stream)
        a.close()
        frames = recv_frames(b)
        assert next(frames) == b"hello"
        with pytest.raises(WireError):
            next(frames)


def test_send_frame_rejects_payload_over_cap():
    a, b = socket.socketpair()
    with a, b, pytest.raises(WireError):
        send_frame(a, bytes(MAX_FRAME_BYTES + 1))


def serve_in_thread(path, rate):
    """serve_bag on a thread; returns (frames received, server outcome)."""
    bound = {}
    ready = threading.Event()
    outcome = {}

    def on_ready(host, port):
        bound["addr"] = (host, port)
        ready.set()

    def serve():
        try:
            outcome["sent"] = serve_bag(path, port=0, rate=rate, ready=on_ready)[2]
        except Exception as e:
            outcome["error"] = e

    server = threading.Thread(target=serve)
    server.start()
    assert ready.wait(5.0)
    with socket.create_connection(bound["addr"], timeout=5.0) as sock:
        frames = list(recv_frames(sock))
    server.join(timeout=5.0)
    assert not server.is_alive()
    return frames, outcome


@pytest.mark.parametrize("rate", ["max", 1000.0])
def test_serve_bag_frames_are_the_bag_lines(tmp_path, rate):
    path = make_bag(tmp_path / "lines.bag", n=2000)
    lines = path.read_bytes().splitlines(keepends=True)
    # A valid record that is not canonical is forwarded as written.
    lines[7] = lines[7].replace(b'"seq":', b' "seq" : ')
    path.write_bytes(b"".join(lines))
    frames, outcome = serve_in_thread(path, rate)
    assert frames[0] == header_lines(path)[1].rstrip(b"\n")
    assert frames[1:] == body_bytes(path).split(b"\n")[:-1]
    assert outcome == {"sent": 2000}


def test_serve_bag_corrupt_record_raises_after_earlier_frames(tmp_path):
    path = make_bag(tmp_path / "corrupt.bag")
    lines = path.read_bytes().splitlines(keepends=True)
    lines[12] = b'{"t":\n'
    path.write_bytes(b"".join(lines))
    frames, outcome = serve_in_thread(path, "max")
    assert isinstance(outcome["error"], CorruptBag)
    assert frames[1:] == [line.rstrip(b"\n") for line in lines[2:12]]


def test_paced_serve_sends_each_frame_when_due(tmp_path):
    bus = Bus()
    t = bus.open_topic(TopicDescriptor("w.x", {"v": "f64"}))
    w = BagWriter(tmp_path / "paced.bag", bus)
    w.start()
    bus.publish(t, {"v": 0.0}, t_ns=0)
    bus.publish(t, {"v": 1.0}, t_ns=1_000_000_000)
    w.close()
    bound = {}
    ready = threading.Event()

    def on_ready(host, port):
        bound["addr"] = (host, port)
        ready.set()

    server = threading.Thread(target=serve_bag, args=(tmp_path / "paced.bag",),
                              kwargs={"port": 0, "rate": 1.0, "ready": on_ready})
    server.start()
    assert ready.wait(5.0)
    with socket.create_connection(bound["addr"], timeout=5.0) as sock:
        frames = recv_frames(sock)
        start = time.monotonic()
        next(frames)
        next(frames)
        first_record_s = time.monotonic() - start
        next(frames)
        second_record_s = time.monotonic() - start
    server.join(timeout=5.0)
    assert not server.is_alive()
    assert first_record_s < 0.5 < second_record_s



# Streams near the frame format: headers that are digits, not digits, too
# long or above the cap, with payloads shorter or longer than they say.
frame_headers = st.one_of(
    st.integers(0, 40).map(lambda n: b"%d" % n),
    st.just(b"%d" % MAX_FRAME_BYTES), st.just(b"%d" % (MAX_FRAME_BYTES + 1)),
    st.binary(max_size=12),
)
framed = st.lists(st.tuples(frame_headers, st.sampled_from([b"\n", b"", b"\r\n"]),
                            st.binary(max_size=40)), max_size=6).map(
    lambda parts: b"".join(h + nl + p for h, nl, p in parts))


@settings(max_examples=300, deadline=2000)
@given(stream=st.one_of(st.binary(max_size=300), framed),
       sizes=st.lists(st.integers(1, 64), max_size=20))
@example(stream=b"9" * 40 + b"\n", sizes=[])
@example(stream=b"%d\nab" % MAX_FRAME_BYTES, sizes=[])
def test_recv_frames_parses_or_raises_wire_error(stream, sizes):
    """Any byte stream gives its frames or a WireError, in bounded time."""
    try:
        frames = list(recv_frames(ChunkedSocket(stream, sizes)))
    except WireError:
        return
    assert b"".join(b"%d\n%b" % (len(f), f) for f in frames) == stream


def test_a_rate_too_slow_to_wait_for_a_record_stops_serving_after_the_records_before(tmp_path):
    """At rate 1e-300 the second record is due some 1e296 s on: the first
    goes out, then serving stops with RateTooSlow."""
    frames, outcome = serve_in_thread(make_bag(tmp_path / "wire.bag"), 1e-300)
    assert isinstance(outcome.get("error"), RateTooSlow), outcome
    assert len(frames) == 2  # the manifest and the one record due at once
