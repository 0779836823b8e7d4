import json
import socket
import threading

import pytest

from mwpipe.bag import load_samples
from mwpipe.bus import Bus, ManualClock, TopicDescriptor
from mwpipe.bag import BagWriter
from mwpipe.wire import recv_frames, send_frame, serve_bag


def make_bag(path, n=40):
    bus = Bus(clock=ManualClock())
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
