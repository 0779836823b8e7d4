import json
import time

import pytest

from mwpipe.bag import (
    BagWriter,
    body_bytes,
    iter_samples,
    load_samples,
    read_manifest,
    replay,
    validate,
)
from mwpipe.bus import Bus, ManualClock, TopicDescriptor
from mwpipe.errors import CorruptBag, UnknownMagic


def small_bus():
    bus = Bus(clock=ManualClock())
    a = bus.open_topic(TopicDescriptor("t.a", {"v": "f64"}, 10.0))
    b = bus.open_topic(TopicDescriptor("t.b", {"v": "f64", "s": "str"}))
    return bus, a, b


def write_small_bag(path, n=50):
    bus, a, b = small_bus()
    w = BagWriter(path, bus, session_meta={"kind": "test"})
    w.start()
    for i in range(n):
        bus.publish(a, {"v": float(i)}, t_ns=i * 100_000_000)
        if i % 5 == 0:
            bus.publish(b, {"v": i / 3.0, "s": f"mark{i}"}, t_ns=i * 100_000_000 + 7)
    w.close()
    return path


def test_empty_session_header_only(tmp_path):
    bus, _, _ = small_bus()
    w = BagWriter(tmp_path / "empty.bag", bus)
    w.start()
    w.close()
    manifest = read_manifest(tmp_path / "empty.bag")
    assert manifest["format"] == "MWBAG1"
    assert {t["name"] for t in manifest["topics"]} == {"t.a", "t.b"}
    assert load_samples(tmp_path / "empty.bag") == []
    assert validate(tmp_path / "empty.bag").ok


def test_record_read_round_trip_exact(tmp_path):
    path = write_small_bag(tmp_path / "rt.bag")
    bus, a, b = small_bus()
    originals = []
    for i in range(50):
        originals.append(bus.publish(a, {"v": float(i)}, t_ns=i * 100_000_000))
        if i % 5 == 0:
            originals.append(bus.publish(b, {"v": i / 3.0, "s": f"mark{i}"},
                                         t_ns=i * 100_000_000 + 7))
    originals.sort(key=lambda s: (s.t_ns, s.topic, s.seq))
    loaded = load_samples(path)
    assert loaded == originals


def test_float_payloads_round_trip_bit_exact(tmp_path):
    bus = Bus(clock=ManualClock())
    t = bus.open_topic(TopicDescriptor("f.x", {"v": "f64"}))
    w = BagWriter(tmp_path / "f.bag", bus)
    w.start()
    values = [0.1, 1 / 3, 2**-52, 1e300, -7.000000000000001]
    for i, v in enumerate(values):
        bus.publish(t, {"v": v}, t_ns=i + 1)
    w.close()
    loaded = load_samples(tmp_path / "f.bag")
    assert [s.payload["v"] for s in loaded] == values


def test_replay_preserves_samples_and_seqs(tmp_path):
    path = write_small_bag(tmp_path / "replay.bag")
    bus = replay(path, rate="max", retain=True)
    merged = bus.subscribe_merged(["t.a", "t.b"])
    assert [(s.topic, s.t_ns, s.seq) for s in merged] == \
        [(s.topic, s.t_ns, s.seq) for s in load_samples(path)]


def test_replay_record_identity_on_body(tmp_path):
    src = write_small_bag(tmp_path / "src.bag")
    bus = Bus(clock=ManualClock())
    w = BagWriter(tmp_path / "dst.bag", bus)
    replay(src, bus=bus, rate="max", retain=False)
    w.close()
    assert body_bytes(tmp_path / "dst.bag") == body_bytes(src)


def test_replay_rate_pacing(tmp_path):
    # 0.5 s of data at rate 2.0 should take about 0.25 s wall
    bus, a, _ = small_bus()
    w = BagWriter(tmp_path / "paced.bag", bus)
    w.start()
    for i in range(6):
        bus.publish(a, {"v": 0.0}, t_ns=i * 100_000_000)
    w.close()
    t0 = time.monotonic()
    replay(tmp_path / "paced.bag", rate=2.0, retain=False)
    elapsed = time.monotonic() - t0
    assert 0.2 <= elapsed <= 0.4


def test_truncated_final_line_tolerated(tmp_path):
    path = write_small_bag(tmp_path / "trunc.bag")
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-9])  # cut into the final record
    full = write_small_bag(tmp_path / "full.bag")
    with pytest.warns(UserWarning):
        loaded = load_samples(path)
    assert len(loaded) == len(load_samples(full)) - 1
    bus = Bus(clock=ManualClock())
    with pytest.warns(UserWarning):
        replay(path, bus=bus, rate="max", retain=False)


def test_unknown_magic(tmp_path):
    p = tmp_path / "bad.bag"
    p.write_text("NOTABAG\n{}\n")
    with pytest.raises(UnknownMagic):
        read_manifest(p)


MALFORMED_HEADERS = {
    "magic_not_utf8": b"\xffMWBAG1\n{}\n",
    "manifest_is_list": b"MWBAG1\n[1,2]\n",
    "manifest_not_utf8": b"MWBAG1\n\xff\xfe{}\n",
    "topic_without_name": (b'MWBAG1\n{"topics":[{"schema":{"v":"f64"}}]}\n'
                           b'{"t":0,"topic":"a.b","seq":0,"data":{"v":1.0}}\n'),
}


@pytest.mark.parametrize("raw", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
def test_malformed_header_is_a_typed_error(tmp_path, raw):
    p = tmp_path / "h.bag"
    p.write_bytes(raw)
    report = validate(p)
    assert [i.kind for i in report.issues] == ["header"]
    with pytest.raises(CorruptBag):
        list(iter_samples(p))


def test_validate_reports_non_utf8_record(tmp_path):
    path = write_small_bag(tmp_path / "enc.bag")
    lines = path.read_bytes().splitlines(keepends=True)
    lines[5] = b'{"t":\xff}\n'
    path.write_bytes(b"".join(lines))
    report = validate(path)
    assert any(i.kind == "parse" and i.byte_offset for i in report.issues)


def test_validate_accepts_recorded_bag(tmp_path):
    path = write_small_bag(tmp_path / "ok.bag")
    report = validate(path)
    assert report.ok
    assert report.records == 60


def corrupt_line(path, match, mutate):
    lines = open(path, "r").read().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if i >= 2 and match(json.loads(line)):
            rec = json.loads(line)
            mutate(rec)
            lines[i] = json.dumps(rec, separators=(",", ":")) + "\n"
            break
    open(path, "w").write("".join(lines))


def test_validate_detects_seq_jump(tmp_path):
    path = write_small_bag(tmp_path / "seq.bag")
    corrupt_line(path, lambda r: r["topic"] == "t.a" and r["seq"] == 20,
                 lambda r: r.update(seq=21))
    report = validate(path)
    assert not report.ok
    assert any(i.kind == "seq" and i.topic == "t.a" and "21" in i.message
               for i in report.issues)


def test_validate_detects_out_of_order_with_offset(tmp_path):
    path = write_small_bag(tmp_path / "ord.bag")
    corrupt_line(path, lambda r: r["topic"] == "t.a" and r["seq"] == 30,
                 lambda r: r.update(t=5))
    report = validate(path)
    assert not report.ok
    issue = next(i for i in report.issues if i.kind == "order")
    assert issue.byte_offset is not None and issue.byte_offset > 0


def test_validate_detects_bad_magic(tmp_path):
    p = tmp_path / "m.bag"
    p.write_text("WRONG\n{}\n")
    report = validate(p)
    assert not report.ok
    assert report.issues[0].kind == "header"


def test_validate_detects_schema_violation(tmp_path):
    path = write_small_bag(tmp_path / "schema.bag")
    corrupt_line(path, lambda r: r["topic"] == "t.a" and r["seq"] == 10,
                 lambda r: r["data"].update(v="oops"))
    report = validate(path)
    assert any(i.kind == "schema" for i in report.issues)


def test_validate_detects_rate_gap(tmp_path):
    bus = Bus(clock=ManualClock())
    t = bus.open_topic(TopicDescriptor("g.x", {"v": "f64"}, 10.0))
    w = BagWriter(tmp_path / "gap.bag", bus)
    w.start()
    for i in range(10):
        bus.publish(t, {"v": 0.0}, t_ns=i * 100_000_000)
    bus.publish(t, {"v": 0.0}, t_ns=2_000_000_000)  # 1.1 s gap at 10 Hz
    w.close()
    report = validate(tmp_path / "gap.bag")
    assert any(i.kind == "gap" for i in report.issues)


def test_validate_detects_unknown_topic(tmp_path):
    path = write_small_bag(tmp_path / "unk.bag")
    lines = open(path).read().splitlines(keepends=True)
    rogue = '{"t":99999999999,"topic":"no.topic","seq":0,"data":{"v":1.0}}\n'
    open(path, "w").write("".join(lines) + rogue)
    report = validate(path)
    assert any(i.kind == "manifest" and i.topic == "no.topic" for i in report.issues)


def test_flush_watermark_keeps_future_samples(tmp_path):
    bus, a, _ = small_bus()
    w = BagWriter(tmp_path / "wm.bag", bus)
    w.start()
    for i in range(10):
        bus.publish(a, {"v": float(i)}, t_ns=i * 10)
    w.flush_until(50)
    on_disk = open(tmp_path / "wm.bag").read().splitlines()
    assert len(on_disk) == 2 + 5  # magic + manifest + five records below t=50
    w.close()
    assert len(load_samples(tmp_path / "wm.bag")) == 10
