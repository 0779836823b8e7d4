import json
import math
import socket
import struct
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mwpipe.bag as mbag
import mwpipe.wire as mwire
from mwpipe.bag import (
    BagWriter,
    _decode_record,
    _fast_decoders,
    header_lines,
    iter_samples,
    judged_chunks,
    read_manifest,
    replay,
    validate,
)
from mwpipe.bus import Bus, TimedSample, TopicDescriptor, canonical_row
from mwpipe.errors import (CorruptBag, MwpipeError, RateTooSlow, SchemaMismatch, UnknownMagic,
                           WireError)
from mwpipe.export import extract_csv
from mwpipe.session import SESSION_TOPICS
from mwpipe.synth import SynthProfile, gen_rr_series, render_cardiac
from mwpipe.wire import recv_frames, serve_bag

from oracles import (block_samples, body_bytes, load_samples, record_line, records,
                     replay_oracle, serve_bag_oracle, validate_oracle)


def small_bus():
    bus = Bus()
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
        originals += block_samples(bus.publish(a, {"v": float(i)}, t_ns=i * 100_000_000))
        if i % 5 == 0:
            originals += block_samples(bus.publish(b, {"v": i / 3.0, "s": f"mark{i}"},
                                                   t_ns=i * 100_000_000 + 7))
    originals.sort(key=lambda s: (s.t_ns, s.topic, s.seq))
    loaded = load_samples(path)
    assert loaded == originals


def test_float_payloads_round_trip_bit_exact(tmp_path):
    bus = Bus()
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
    bus = Bus()
    seen = []
    bus.add_listener(seen.append)
    assert replay(path, bus=bus, rate="max") is bus
    # The bus leaves cross-topic order unspecified: each topic's stream,
    # every block expanded, is the bag's. A chunk's rows of a topic are one block.
    assert max(len(block.times_ns) for block in seen) > 1
    expected = {}
    for sample in load_samples(path):
        expected.setdefault(sample.topic, []).append(exact(sample))
    assert topic_streams(seen) == expected


def test_replay_takes_retain_false_only(tmp_path):
    path = write_small_bag(tmp_path / "retain.bag")
    bus = replay(path, rate="max", retain=False)
    assert sum(bus.topic(d.name).next_seq for d in bus.topics()) == 60
    with pytest.raises(ValueError):
        replay(path, rate="max", retain=True)


def test_replay_record_identity_on_body(tmp_path):
    src = write_small_bag(tmp_path / "src.bag")
    bus = Bus()
    w = BagWriter(tmp_path / "dst.bag", bus)
    replay(src, bus=bus, rate="max")
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
    replay(tmp_path / "paced.bag", rate=2.0)
    elapsed = time.monotonic() - t0
    assert 0.2 <= elapsed <= 0.4


def test_a_rate_too_slow_to_wait_for_a_record_stops_replay_after_the_records_before(tmp_path):
    """At rate 1e-300 the record at 0.1 s is due some 1e299 s on: the one at
    0 is published, then replay stops with RateTooSlow, not OverflowError."""
    bus, a, _ = small_bus()
    w = BagWriter(tmp_path / "slow.bag", bus)
    for i in range(3):
        bus.publish(a, {"v": 0.0}, t_ns=i * 100_000_000)
    w.close()
    replayed = Bus()
    with pytest.raises(RateTooSlow, match=r"record at byte \d+ is due in 1e\+29\d s"):
        replay(tmp_path / "slow.bag", bus=replayed, rate=1e-300)
    assert [replayed.topic(d.name).next_seq for d in replayed.topics()] == [1, 0]


def test_truncated_final_line_tolerated(tmp_path):
    path = write_small_bag(tmp_path / "trunc.bag")
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:-9])  # cut into the final record
    full = write_small_bag(tmp_path / "full.bag")
    with pytest.warns(UserWarning):
        loaded = load_samples(path)
    assert len(loaded) == len(load_samples(full)) - 1
    bus = Bus()
    with pytest.warns(UserWarning):
        replay(path, bus=bus, rate="max")


def test_unknown_magic(tmp_path):
    p = tmp_path / "bad.bag"
    p.write_text("NOTABAG\n{}\n")
    with pytest.raises(UnknownMagic):
        read_manifest(p)


def bag_with_topics(entries: bytes) -> bytes:
    """A bag whose manifest lists the given topic entries, then one record
    on topic a.b."""
    return (b'MWBAG1\n{"topics":[' + entries + b']}\n'
            b'{"t":0,"topic":"a.b","seq":0,"data":{"v":1.0}}\n')


def bag_with_rate(rate: bytes) -> bytes:
    """A bag with two records on topic a.b of the given nominal rate, so that
    validate's gap check reads the rate."""
    return (bag_with_topics(b'{"name":"a.b","schema":{"v":"f64"},"nominal_rate_hz":%s}' % rate)
            + b'{"t":1,"topic":"a.b","seq":1,"data":{"v":1.0}}\n')


MALFORMED_HEADERS = {
    "magic_not_utf8": b"\xffMWBAG1\n{}\n",
    "manifest_is_list": b"MWBAG1\n[1,2]\n",
    "manifest_not_utf8": b"MWBAG1\n\xff\xfe{}\n",
    "topic_without_name": (b'MWBAG1\n{"topics":[{"schema":{"v":"f64"}}]}\n'
                           b'{"t":0,"topic":"a.b","seq":0,"data":{"v":1.0}}\n'),
    "schema_not_object": bag_with_topics(b'{"name":"a.b","schema":5}'),
    "kind_not_string": bag_with_topics(b'{"name":"a.b","schema":{"v":5}}'),
    "unknown_kind": bag_with_topics(b'{"name":"a.b","schema":{"v":"f32"}}'),
    "vec_kind": bag_with_topics(b'{"name":"a.b","schema":{"v":"vec"}}'),
    "negative_rate": bag_with_topics(b'{"name":"a.b","schema":{"v":"f64"},"nominal_rate_hz":-1}'),
    "rate_not_number": bag_with_topics(b'{"name":"a.b","nominal_rate_hz":"x"}'),
    "rate_beyond_float": bag_with_rate(b"1" + b"0" * 400),
    "rate_infinite": bag_with_rate(b"Infinity"),
    "repeated_name": bag_with_topics(b'{"name":"a.b"},{"name":"a.b"}'),
    "first_line_without_end": b"MWBAG1" * 200_000,
    "long_topic_name": bag_with_topics(b'{"name":"%s"}' % (b"x" * 1_000_000)),
    "long_entry_not_object": bag_with_topics(b'"%s"' % (b"x" * 1_000_000)),
    "long_kind": bag_with_topics(b'{"name":"a.b","schema":{"v":"%s"}}' % (b"f" * 1_000_000)),
}


@pytest.mark.parametrize("raw", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
def test_malformed_header_is_a_typed_error(tmp_path, raw):
    p = tmp_path / "h.bag"
    p.write_bytes(raw)
    report = validate(p)
    assert [i.kind for i in report.issues] == ["header"]
    assert len(str(report.issues[0])) < 200
    with pytest.raises(CorruptBag):
        list(iter_samples(p))
    with pytest.raises(CorruptBag):
        replay(p)


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
    with open(path, "r") as fh:
        lines = fh.read().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if i >= 2 and match(json.loads(line)):
            rec = json.loads(line)
            mutate(rec)
            lines[i] = json.dumps(rec, separators=(",", ":")) + "\n"
            break
    with open(path, "w") as fh:
        fh.write("".join(lines))


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
    corrupt_line(path, lambda r: r["topic"] == "t.a" and r["seq"] == 20,
                 lambda r: r["data"].update(v=True))
    report = validate(path)
    assert [(i.kind, i.topic) for i in report.issues] == [("schema", "t.a")] * 2


def test_validate_detects_rate_gap(tmp_path):
    bus = Bus()
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
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    rogue = '{"t":99999999999,"topic":"no.topic","seq":0,"data":{"v":1.0}}\n'
    with open(path, "w") as fh:
        fh.write("".join(lines) + rogue)
    report = validate(path)
    assert any(i.kind == "manifest" and i.topic == "no.topic" for i in report.issues)


def published_order(tmp_path, publishes):
    """(topic, t) of each record of a bag written from the given
    (topic, t) publishes, in the bag's order."""
    bus = Bus()
    for name in sorted({name for name, _ in publishes}):
        bus.open_topic(TopicDescriptor(name, {"v": "f64"}))
    w = BagWriter(tmp_path / "order.bag", bus)
    for name, t in publishes:
        bus.publish(name, {"v": 0.0}, t_ns=t)
    w.close()
    return [(s.topic, s.t_ns) for s in load_samples(tmp_path / "order.bag")]


def test_bag_interleaves_topics_by_t(tmp_path):
    order = published_order(tmp_path, [("a.x", 1), ("a.x", 3), ("b.y", 2), ("b.y", 4)])
    assert order == [("a.x", 1), ("b.y", 2), ("a.x", 3), ("b.y", 4)]


def test_bag_breaks_t_ties_by_topic_name(tmp_path):
    order = published_order(tmp_path, [("b.y", 10), ("a.x", 10)])
    assert order == [("a.x", 10), ("b.y", 10)]


def test_stamp_at_int64_max_round_trips(tmp_path):
    bus, a, b = small_bus()
    w = BagWriter(tmp_path / "max.bag", bus)
    bus.publish_block(a, np.array([2**63 - 2, 2**63 - 1]), np.array([[1.0, 2.0]]))
    bus.publish(b, {"v": 3.0, "s": "last"}, t_ns=2**63 - 1)
    w.close()
    assert [(s.topic, s.t_ns, s.seq) for s in load_samples(tmp_path / "max.bag")] == \
        [("t.a", 2**63 - 2, 0), ("t.a", 2**63 - 1, 1), ("t.b", 2**63 - 1, 0)]


def test_flush_watermark_keeps_future_samples(tmp_path):
    bus, a, _ = small_bus()
    w = BagWriter(tmp_path / "wm.bag", bus)
    w.start()
    for i in range(10):
        bus.publish(a, {"v": float(i)}, t_ns=i * 10)
    w.flush_until(50)
    with open(tmp_path / "wm.bag") as fh:
        on_disk = fh.read().splitlines()
    assert len(on_disk) == 2 + 5  # magic + manifest + five records below t=50
    w.close()
    assert len(load_samples(tmp_path / "wm.bag")) == 10


def test_a_block_is_written_as_it_was_published(tmp_path):
    """The writer formats a block's rows when they are published, so arrays
    that the publisher overwrites before the flush do not reach the bag."""
    bus, a, _ = small_bus()
    w = BagWriter(tmp_path / "block.bag", bus)
    times, columns = np.array([10, 20, 30]), np.array([[1.5, 2.5, 3.5]])
    bus.publish_block(a, times, columns)
    columns[0] = -7.0
    times += 5
    w.close()
    assert [(s.t_ns, s.seq, s.payload) for s in load_samples(tmp_path / "block.bag")] == \
        [(10, 0, {"v": 1.5}), (20, 1, {"v": 2.5}), (30, 2, {"v": 3.5})]


def test_close_closes_the_file_when_the_last_flush_raises(tmp_path):
    bus = Bus()
    a = bus.open_topic(TopicDescriptor("a.x", {"v": "f64"}))
    b = bus.open_topic(TopicDescriptor("b.x", {"v": "f64"}))
    w = BagWriter(tmp_path / "late.bag", bus)
    bus.publish(a, {"v": 1.0}, t_ns=10)
    w.flush_until(11)
    bus.publish(b, {"v": 1.0}, t_ns=5)  # below what is written: the last flush raises
    with pytest.raises(CorruptBag):
        w.close()
    assert w._fh is None


BAD_RECORDS = {
    "data_not_object": b'{"t":1,"topic":"t.a","seq":0,"data":5}\n',
    "t_not_int": b'{"t":"x","topic":"t.a","seq":0,"data":{"v":1.0}}\n',
    "seq_not_int": b'{"t":1,"topic":"t.a","seq":1.5,"data":{"v":1.0}}\n',
    "t_bool": b'{"t":true,"topic":"t.a","seq":0,"data":{"v":1.0}}\n',
    "t_401_digits": b'{"t":1' + b"0" * 400 + b',"topic":"t.a","seq":0,"data":{"v":1.5}}\n',
    "t_above_int64": b'{"t":9223372036854775808,"topic":"t.a","seq":0,"data":{"v":1.5}}\n',
    "t_below_int64": b'{"t":-9223372036854775809,"topic":"t.a","seq":0,"data":{"v":1.5}}\n',
    "nested_too_deep": b'{"t":1,"topic":"t.a","seq":0,"data":' + b"[" * 100_000 + b"}\n",
}


@pytest.mark.parametrize("bad", BAD_RECORDS.values(), ids=BAD_RECORDS)
def test_undecodable_record_is_a_typed_error(tmp_path, bad):
    path = write_small_bag(tmp_path / "bad.bag")
    lines = path.read_bytes().splitlines(keepends=True)
    lines[5] = bad
    path.write_bytes(b"".join(lines))
    offset = len(b"".join(lines[:5]))
    report = validate(path)
    assert ("parse", offset) in [(i.kind, i.byte_offset) for i in report.issues]
    with pytest.raises(CorruptBag):
        list(iter_samples(path))


# -- the compiled decode path against the json.loads reference ---------------

DECODE_TOPICS = {"t.a": {"v": "f64"}, "t.o": {"v": "f64?"}, "f.x": {"a": "f64", "b": "f64"},
                 "t.i": {"n": "i64"}}
GOOD_LINE = b'{"t":0,"topic":"t.a","seq":0,"data":{"v":1.5}}\n'


def bag_with_lines(path, lines, topics=DECODE_TOPICS, rates=None):
    rates = rates or {}
    manifest = {"format": "MWBAG1",
                "topics": [{"name": n, "schema": s, "nominal_rate_hz": rates.get(n)}
                           for n, s in topics.items()]}
    with open(path, "wb") as fh:
        fh.write(b"MWBAG1\n" + json.dumps(manifest).encode() + b"\n" + b"".join(lines))
    return path


LONG_NAME = "x" * 1_000_000
LONG_FIELD_BAGS = {
    "long_extra_field": ({"t.a": {"v": "f64"}},
                         b'{"t":0,"topic":"t.a","seq":0,"data":{"v":1.5,"%s":1.0}}\n'
                         % LONG_NAME.encode()),
    "long_manifest_field": ({"t.a": {"v": "f64", LONG_NAME: "f64"}}, GOOD_LINE),
}


@pytest.mark.parametrize("topics, line", LONG_FIELD_BAGS.values(), ids=LONG_FIELD_BAGS)
def test_a_long_field_name_is_cut_in_messages(tmp_path, topics, line):
    path = bag_with_lines(tmp_path / "long.bag", [line], topics)
    report = validate(path)
    assert [i.kind for i in report.issues] == ["schema"]
    assert len(str(report.issues[0])) < 200
    with pytest.raises(CorruptBag) as e:
        list(iter_samples(path))
    assert len(str(e.value)) < 200


def reference_decode(line):
    """(sample, misfit) as _decode_record judges a line; (None, the reason)
    when it cannot decode it."""
    try:
        return _decode_record(line, DECODE_TOPICS)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as e:
        return None, str(e)


def exact(sample):
    """A sample with every float as its type and bit pattern."""
    if sample is None:
        return None
    payload = [(k, type(v), struct.pack("<d", v) if isinstance(v, float) else v)
               for k, v in sample.payload.items()]
    return sample.topic, type(sample.t_ns), sample.t_ns, type(sample.seq), sample.seq, payload


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(t=st.integers(0, 2**63 - 1), seq=st.integers(0, 2**40), a=finite, b=finite)
@example(t=0, seq=0, a=-0.0, b=0.0)
@example(t=1, seq=1, a=5e-324, b=-2.225073858507201e-308)
@example(t=2, seq=2, a=1e308, b=-1e308)
@example(t=3, seq=3, a=1.7976931348623157e308, b=1e-05)
def test_fast_decoder_matches_json_path(tmp_path_factory, t, seq, a, b):
    line = record_line(TimedSample("f.x", t, seq, {"a": a, "b": b}), DECODE_TOPICS["f.x"]).encode()
    assert _fast_decoders(DECODE_TOPICS)[b"f.x"][2].fullmatch(line)
    path = bag_with_lines(tmp_path_factory.mktemp("fast") / "f.bag", [line, GOOD_LINE])
    (_, got), _ = iter_samples(path)
    assert exact(got) == exact(reference_decode(line)[0])


# Every kind, with optional fields present and absent, and every session topic.
CODEC_TOPICS = {"k.all": {"f": "f64", "i": "i64", "b": "bool", "s": "str"},
                "k.opt": {"a": "f64?", "n": "i64", "s": "str?", "z": "bool?", "q": "f64"},
                "k.none": {"a": "f64?", "b": "f64?"},
                **{d.name: d.schema for d in SESSION_TOPICS}}
CODEC_VALUES = {"f64": finite, "i64": st.integers(-2**63, 2**63 - 1), "bool": st.booleans(),
                "str": st.text(max_size=8)}


@st.composite
def codec_samples(draw):
    topic = draw(st.sampled_from(sorted(CODEC_TOPICS)))
    payload = {f: draw(CODEC_VALUES[kind.rstrip("?")])
               for f, kind in CODEC_TOPICS[topic].items()
               if not kind.endswith("?") or draw(st.booleans())}
    return TimedSample(topic, draw(st.integers(-2**63, 2**63 - 1)),
                       draw(st.integers(0, 2**63 - 1)), payload)


@settings(max_examples=150, deadline=None)
@given(samples=st.lists(codec_samples(), min_size=1, max_size=8))
@example(samples=[
    TimedSample("k.all", -2**63, 0, {"f": -0.0, "i": -2**63, "b": True,
                                     "s": 'q"\\/\x00\x1f\x7f\n\u00e9\ud800\U0001f600'}),
    TimedSample("k.opt", 2**63 - 1, 2**63 - 1, {"n": 0, "q": 5e-324}),
    TimedSample("k.opt", 1, 1, {"a": 1e308, "n": -1, "s": "", "z": False,
                                "q": -1.7976931348623157e308}),
    TimedSample("k.none", 2, 2, {}),
    TimedSample("k.none", 3, 3, {"b": 1e16}),
])
def test_writer_lines_decode_to_their_samples(tmp_path_factory, samples):
    """Decoding what BagWriter writes gives back the samples, and every such
    line is judged by its topic's compiled line, never by the reference."""
    lines = [record_line(s, CODEC_TOPICS[s.topic]).encode() for s in samples]
    path = bag_with_lines(tmp_path_factory.mktemp("codec") / "c.bag", lines, CODEC_TOPICS)
    with mock.patch.object(mbag, "_decode_record", side_effect=AssertionError):
        (chunk,) = judged_chunks(path)
        assert chunk.refused == []
        assert [exact(s) for s in load_samples(path)] == [exact(s) for s in samples]


PERTURBED = {
    **BAD_RECORDS,
    "minus_zero_int": b'{"t":1,"topic":"t.a","seq":0,"data":{"v":-0}}\n',
    "minus_zero_float": b'{"t":1,"topic":"t.a","seq":0,"data":{"v":-0.0}}\n',
    "int_in_f64": b'{"t":1,"topic":"t.a","seq":0,"data":{"v":5}}\n',
    "bool_in_f64": b'{"t":1,"topic":"t.a","seq":0,"data":{"v":true}}\n',
    "leading_zero": b'{"t":01,"topic":"t.a","seq":0,"data":{"v":1.5}}\n',
    "bare_fraction": b'{"t":1,"topic":"t.a","seq":0,"data":{"v":1.}}\n',
    "nan": b'{"t":1,"topic":"t.a","seq":0,"data":{"v":NaN}}\n',
    "whitespace": b'{"t": 1, "topic": "t.a", "seq": 0, "data": {"v": 1.5}}\n',
    "crlf": b'{"t":1,"topic":"t.a","seq":0,"data":{"v":1.5}}\r\n',
    "reordered_keys": b'{"topic":"t.a","t":1,"seq":0,"data":{"v":1.5}}\n',
    "reordered_fields": b'{"t":1,"topic":"f.x","seq":0,"data":{"b":2.5,"a":1.5}}\n',
    "missing_field": b'{"t":1,"topic":"f.x","seq":0,"data":{"a":1.5}}\n',
    "unknown_topic": b'{"t":1,"topic":"no.such","seq":0,"data":{"v":1.5}}\n',
    "optional_field": b'{"t":1,"topic":"t.o","seq":0,"data":{"v":1.5}}\n',
    "not_a_record": b"[1,2]\n",
    "f64_overflows": b'{"t":1,"topic":"t.a","seq":0,"data":{"v":1e999}}\n',
    "f64_overflows_negative": b'{"t":1,"topic":"f.x","seq":0,"data":{"a":1.5,"b":-1e999}}\n',
    "i64_above_int64": b'{"t":1,"topic":"t.i","seq":0,"data":{"n":9223372036854775808}}\n',
    "i64_below_int64": b'{"t":1,"topic":"t.i","seq":0,"data":{"n":-9223372036854775809}}\n',
    "int_overflows_f64": b'{"t":1,"topic":"t.a","seq":0,"data":{"v":1' + b"0" * 400 + b"}}\n",
}


@pytest.mark.parametrize("line", PERTURBED.values(), ids=PERTURBED)
def test_perturbed_line_decodes_as_json_path(tmp_path, line):
    path = bag_with_lines(tmp_path / "p.bag", [GOOD_LINE, line, GOOD_LINE])
    expected, misfit = reference_decode(line)
    _, (offset, got, why), _ = records(path)
    assert offset == path.read_bytes().index(line)
    assert exact(got) == exact(expected)
    assert why == misfit
    if misfit is not None:
        with pytest.raises(CorruptBag):
            list(iter_samples(path))


@pytest.mark.parametrize("name", ["i64_above_int64", "i64_below_int64"])
def test_an_i64_beyond_int64_is_refused(tmp_path, name):
    """Such a value has 19 digits, as many as the compiled line takes, and
    the bus never publishes it."""
    path = bag_with_lines(tmp_path / "i.bag", [GOOD_LINE, PERTURBED[name]])
    assert [(i.kind, i.topic) for i in validate(path).issues] == [("schema", "t.i")]
    with pytest.raises(CorruptBag):
        list(iter_samples(path))


def test_an_int_too_large_for_a_float_is_a_schema_misfit(tmp_path):
    """The reference decoder reads it as JSON reads it, an int, and the
    bus's f64 check refuses it, as the bus refuses to publish it."""
    path = bag_with_lines(tmp_path / "big.bag", [PERTURBED["int_overflows_f64"]])
    (issue,) = validate(path).issues
    assert (issue.kind, issue.topic, issue.message) == \
        ("schema", "t.a", "field 'v' is outside the float range")
    with pytest.raises(CorruptBag, match="outside the float range"):
        list(iter_samples(path))


# -- every reader takes the one verdict -----------------------------------------

FUZZ_TOPICS = {**DECODE_TOPICS, "m.x": {"n": "i64", "s": "str", "ok": "bool", "l": "f64?"}}
FUZZ_VALUES = {"f64": finite, "i64": st.integers(-2**63, 2**63 - 1), "bool": st.booleans(),
               "str": st.text(max_size=4)}
OVERFLOW_LINES = [b'{"t":%d,"topic":"t.a","seq":0,"data":{"v":%s}}\n',
                  b'{"t":%d,"topic":"t.o","seq":0,"data":{"v":%s}}\n',
                  b'{"t":%d,"topic":"f.x","seq":0,"data":{"a":0.5,"b":%s}}\n']


@st.composite
def writer_lines(draw):
    """A record line as BagWriter writes it, for a topic of FUZZ_TOPICS."""
    topic = draw(st.sampled_from(sorted(FUZZ_TOPICS)))
    payload = {f: draw(FUZZ_VALUES[kind.rstrip("?")]) for f, kind in FUZZ_TOPICS[topic].items()
               if not kind.endswith("?") or draw(st.booleans())}
    sample = TimedSample(topic, draw(st.integers(-2**63, 2**63 - 1)),
                         draw(st.integers(0, 2**63 - 1)), payload)
    return record_line(sample, FUZZ_TOPICS[topic]).encode()


body_lines = st.one_of(
    writer_lines(),
    st.sampled_from(list(PERTURBED.values())),
    st.builds(lambda line, t, value: line % (t, value), st.sampled_from(OVERFLOW_LINES),
              st.integers(0, 10**6), st.sampled_from([b"1e999", b"-1e999"])),
    st.binary(max_size=40),
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(body_lines, max_size=6),
       tail=st.one_of(st.just(b""), writer_lines().map(lambda line: line[:-1]),
                      st.binary(min_size=1, max_size=20)))
def test_readers_take_one_verdict(tmp_path_factory, lines, tail):
    path = bag_with_lines(tmp_path_factory.mktemp("fuzz") / "f.bag", lines + [tail],
                          FUZZ_TOPICS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an unreadable final line is skipped with a warning
        try:
            samples, raised = load_samples(path), False
        except CorruptBag:
            samples, raised = [], True
        report = validate(path)
    for sample in samples:
        schema = FUZZ_TOPICS[sample.topic]
        row = canonical_row(schema, sample.payload)
        assert exact(sample) == exact(sample._replace(
            payload={f: v for f, v in zip(schema, row) if v is not None}))
        assert all(math.isfinite(v) for v in sample.payload.values() if isinstance(v, float))
    assert any(i.kind in ("parse", "schema", "manifest") for i in report.issues) == raised


def ecg_bag(path, overflow_at=None):
    """A 35 s bio.ecg bag as BagWriter writes it; with overflow_at, the value
    of that record reads 1e999."""
    bus = Bus()
    topic = bus.open_topic(TopicDescriptor("bio.ecg", {"v": "f64"}, 252.0))
    w = BagWriter(path, bus)
    wf = render_cardiac(gen_rr_series(SynthProfile(seed=4, duration_s=35.0)), "ecg")
    bus.publish_block(topic, wf.times_ns(), wf.values[None, :])
    w.close()
    if overflow_at is not None:
        lines = path.read_bytes().splitlines(keepends=True)
        head = lines[2 + overflow_at].split(b'"v":')[0]
        lines[2 + overflow_at] = head + b'"v":1e999}}\n'
        path.write_bytes(b"".join(lines))
    return path


def serve_to_one_client(path):
    """serve_bag with one client that reads until the server closes."""
    clients = []

    def drain(host, port):
        def read():
            with socket.create_connection((host, port), timeout=5.0) as sock:
                while sock.recv(65536):
                    pass
        clients.append(threading.Thread(target=read))
        clients[0].start()

    try:
        return serve_bag(path, port=0, ready=drain)
    finally:
        clients[0].join(timeout=5.0)
        assert not clients[0].is_alive()


STRICT_READERS = {
    "load_samples": load_samples,
    "replay": replay,
    "serve_bag": serve_to_one_client,
    "extract_csv": lambda path: extract_csv(path, path.with_suffix(".csv")),
}


@pytest.mark.parametrize("topic", ["bio.eda", "x.y"])
@pytest.mark.parametrize("chunk_bytes", [1, 128 * 1024])
def test_a_record_on_an_unlisted_topic_is_refused_at_its_offset(tmp_path, topic, chunk_bytes):
    """A record on a topic the manifest does not list stops every strict
    reader at the offset of validate's [manifest] issue, even when it is
    named as a bio topic or the caller's bus has that topic."""
    path = ecg_bag(tmp_path / "unlisted.bag")
    lines = path.read_bytes().splitlines(keepends=True)
    t = json.loads(lines[2 + 4000])["t"]
    lines.insert(2 + 4001, b'{"t":%d,"topic":"%s","seq":0,"data":{"v":1.5}}\n' % (t, topic.encode()))
    path.write_bytes(b"".join(lines))
    (issue,) = validate(path).issues
    assert (issue.kind, issue.topic) == ("manifest", topic)
    refused = f"record at byte {issue.byte_offset} is refused: topic not in manifest"
    bus = Bus()
    bus.open_topic(TopicDescriptor(topic, {"v": "f64"}))
    out = tmp_path / "unlisted.csv"
    with mock.patch.object(mbag, "_CHUNK_BYTES", chunk_bytes):
        with pytest.raises(CorruptBag, match=refused):
            list(iter_samples(path))
        with pytest.raises(CorruptBag, match=refused):
            replay(path, bus=bus)
        frames, error = serve_outcome(path)
        with pytest.raises(CorruptBag, match=refused):
            extract_csv(path, out)
    assert error == (CorruptBag, refused)
    assert frames == [lines[1][:-1]] + [line[:-1] for line in lines[2:2 + 4001]]
    assert not out.exists()


def test_extract_keeps_file_order_around_a_non_canonical_line(tmp_path):
    good = ecg_bag(tmp_path / "good.bag")
    lines = good.read_bytes().splitlines(keepends=True)
    # a valid line as json.dumps spaces it, among canonical lines of its
    # topic: the last sample before the first window ends, at 30 s
    lines[2 + 7559] = json.dumps(json.loads(lines[2 + 7559])).encode() + b"\n"
    spaced = tmp_path / "spaced.bag"
    spaced.write_bytes(b"".join(lines))
    assert load_samples(spaced) == load_samples(good)
    csv = [extract_csv(p, p.with_suffix(".csv")) for p in (good, spaced)]
    assert Path(csv[1]).read_bytes() == Path(csv[0]).read_bytes()


@pytest.mark.parametrize("read", STRICT_READERS.values(), ids=STRICT_READERS)
def test_strict_readers_refuse_a_value_that_overflows(tmp_path, read):
    read(ecg_bag(tmp_path / "good.bag"))
    bad = ecg_bag(tmp_path / "bad.bag", overflow_at=1000)
    assert [(i.kind, i.topic) for i in validate(bad).issues] == [("schema", "bio.ecg")]
    with pytest.raises(CorruptBag):
        read(bad)


# -- the template encoder against the json.dumps reference -------------------


def json_line(sample):
    """The record line as json.dumps writes it: the reference encoder."""
    data = json.dumps(sample.payload, separators=(",", ":"), allow_nan=False)
    return f'{{"t":{sample.t_ns},"topic":"{sample.topic}","seq":{sample.seq},"data":{data}}}\n'


field_names = st.text(st.characters(codec="utf-8"), max_size=6)
any_value = st.one_of(finite, st.integers(-2**70, 2**70), st.booleans(),
                      st.text(st.characters(codec="utf-8"), max_size=8))
COMMS = {"request": True, "response": False, "kind": "fault", "target": "radar",
         "channel": "B"}


@given(t=st.integers(-2**63, 2**63 - 1), seq=st.integers(0, 2**63 - 1),
       payload=st.dictionaries(field_names, any_value, max_size=6))
@example(t=0, seq=0, payload={"a": -0.0, "b": 5e-324, "c": -2.225073858507201e-308})
@example(t=1, seq=1, payload={"a": 1e308, "b": -1e308, "c": 1.7976931348623157e308})
@example(t=2, seq=2, payload={"s": 'q"uo\\te\x00\x1f\n\u00e9\u2603\U0001f600', "%d": "%r%%"})
@example(t=3, seq=3, payload={"n": 2**63 - 1, "m": -2**63, "big": 10**30, "b": True})
@example(t=4, seq=4, payload={**COMMS, "latency_s": 1.25})
@example(t=5, seq=5, payload=COMMS)
@example(t=6, seq=6, payload={})
def test_template_line_equals_json_line(t, seq, payload):
    sample = TimedSample("sim.comms", t, seq, payload)
    kinds = {bool: "bool", int: "i64", float: "f64", str: "str"}
    schema = {f: kinds[type(v)] for f, v in payload.items()}
    assert record_line(sample, schema) == json_line(sample)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_record_line_refuses_non_finite_floats(tmp_path, value):
    """The reference encoder refuses a non-finite float, and no record line
    holds one: the bus refuses it before the writer sees it."""
    with pytest.raises(ValueError):
        json_line(TimedSample("t.a", 0, 0, {"v": value}))
    bus, a, _ = small_bus()
    w = BagWriter(tmp_path / "nan.bag", bus)
    with pytest.raises(SchemaMismatch):
        bus.publish(a, {"v": value}, t_ns=0)
    w.close()
    assert body_bytes(tmp_path / "nan.bag") == b""


# -- block publishing against one-by-one publishing ------------------------------

BLOCK_TOPICS = {"b.one": {"v": "f64"}, "b.xyz": {"x": "f64", "y": "f64", "z": "f64"},
                "a.mix": {"n": "i64", "s": "str", "ok": "bool", "l": "f64?"},
                "c.flt": {"v": "f64"}}
# Topics whose blocks come as one float ndarray; the others' come as lists.
AS_ARRAY = {"b.one", "b.xyz"}


@st.composite
def publish_scripts(draw):
    """Per-topic samples with times from a small range (so topics tie on t),
    each topic cut into blocks, and one interleaving of the blocks."""
    events = []
    for name, schema in BLOCK_TOPICS.items():
        times = sorted(draw(st.sets(st.integers(0, 60), max_size=25)))
        rows = []
        for _ in times:
            if name == "a.mix":
                row = {"n": draw(st.integers(-2**63, 2**63 - 1)), "s": draw(st.text(max_size=3)),
                       "ok": draw(st.booleans())}
                if draw(st.booleans()):
                    row["l"] = draw(finite)
            else:
                row = {f: draw(finite) for f in schema}
            rows.append(row)
        i = 0
        while i < len(times):
            size = draw(st.integers(1, 6))
            events.append((name, times[i:i + size], rows[i:i + size]))
            i += size
    order = draw(st.permutations(range(len(events))))
    # keep each topic's blocks in time order, interleaving topics freely
    by_topic = {}
    for k in order:
        by_topic.setdefault(events[k][0], []).append(k)
    queues = {n: sorted(ks) for n, ks in by_topic.items()}
    script = [events[queues[events[k][0]].pop(0)] for k in order]
    flushes = draw(st.sets(st.integers(0, len(script)), max_size=4))
    return script, flushes


def write_script(path, script, flushes, blocks: bool):
    bus = Bus()
    topics = {n: bus.open_topic(TopicDescriptor(n, s))
              for n, s in BLOCK_TOPICS.items()}
    w = BagWriter(path, bus)
    w.start()
    pending = {n: [t for name, ts, _ in script if name == n for t in ts] for n in topics}
    for k, (name, times, rows) in enumerate(script):
        if k in flushes:  # the latest watermark no later sample falls before
            w.flush_until(min((ts[0] for ts in pending.values() if ts), default=10**6))
        if blocks:
            columns = [[r.get(f) for r in rows] for f in BLOCK_TOPICS[name]]
            bus.publish_block(topics[name], np.array(times),
                              np.array(columns) if name in AS_ARRAY else columns)
        else:
            for t, row in zip(times, rows):
                bus.publish(topics[name], row, t_ns=t)
        del pending[name][:len(times)]
    w.close()
    return body_bytes(path)


@settings(max_examples=60, deadline=None)
@given(publish_scripts())
def test_block_bag_equals_one_by_one_bag(tmp_path_factory, script_and_flushes):
    script, flushes = script_and_flushes
    d = tmp_path_factory.mktemp("blocks")
    by_block = write_script(d / "block.bag", script, flushes, blocks=True)
    by_sample = write_script(d / "sample.bag", script, flushes, blocks=False)
    assert by_block == by_sample
    lines = by_sample.decode().splitlines(keepends=True)
    samples = load_samples(d / "sample.bag")
    assert lines == [json_line(s) for s in samples]
    # the bag holds exactly the published (t, topic, seq) set, in merge order
    published = sorted((t, name, seq) for name in BLOCK_TOPICS for seq, t in
                       enumerate(t for n, times, _ in script if n == name for t in times))
    assert [(s.t_ns, s.topic, s.seq) for s in samples] == published


# -- the columnar readers against the per-record oracles --------------------------

READER_RATES = {"t.a": 10.0, "f.x": 3.0, "t.o": 1e9}
# Stamps that tie, that are a gap apart at 3 Hz (666666666.67 ns) or not, and
# at the int64 limits, where a difference overflows int64.
STAMPS = st.one_of(st.integers(0, 3 * 10**9), st.integers(-2**63, 2**63 - 1),
                   st.sampled_from([-2**63, -2**63 + 1, 0, 666_666_666, 666_666_667,
                                    1_333_333_333, 2**63 - 2, 2**63 - 1]))
SEQS = st.one_of(st.integers(-1, 4), st.sampled_from([2**63 - 2, 2**63 - 1, 2**63, 10**25]))


def fuzz_payload(draw, topic):
    return {f: draw(FUZZ_VALUES[kind.rstrip("?")]) for f, kind in FUZZ_TOPICS[topic].items()
            if not kind.endswith("?") or draw(st.booleans())}


@st.composite
def reader_bodies(draw):
    """The body of a bag: BagWriter lines of a clean session, with its
    stamps near 0 or near an int64 limit, then perturbed: records given
    another t, seq or an unknown topic, lines spaced as json.dumps spaces
    them, lines replaced or inserted from PERTURBED, and a final line that
    may be cut short."""
    t = draw(st.sampled_from([0, 2**63 - 10**10, -2**63]))
    samples, schemas = [], []
    for _ in range(draw(st.integers(0, 20))):
        topic = draw(st.sampled_from(sorted(FUZZ_TOPICS)))
        t = min(t + draw(st.integers(0, 10**9)), 2**63 - 1)
        seq = sum(s.topic == topic for s in samples)
        samples.append(TimedSample(topic, t, seq, fuzz_payload(draw, topic)))
        schemas.append(FUZZ_TOPICS[topic])
    for _ in range(draw(st.integers(0, 3))):
        if not samples:
            break
        i = draw(st.integers(0, len(samples) - 1))
        what = draw(st.sampled_from(["t", "seq", "topic"]))
        if what == "t":
            samples[i] = samples[i]._replace(t_ns=draw(STAMPS))
        elif what == "seq":
            samples[i] = samples[i]._replace(seq=draw(SEQS))
        else:
            samples[i] = samples[i]._replace(topic="z.z")
    lines = [record_line(s, schema).encode() for s, schema in zip(samples, schemas)]
    for i in draw(st.sets(st.integers(0, max(len(lines) - 1, 0)), max_size=2)):
        if lines:
            lines[i] = json.dumps(json.loads(lines[i])).encode() + b"\n"
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        line = draw(st.sampled_from(list(PERTURBED.values())))
        if draw(st.booleans()):
            lines.insert(i, line)
        elif i < len(lines):
            lines[i] = line
    tail = draw(st.one_of(st.just(b""), writer_lines().map(lambda line: line[:-1]),
                          writer_lines().map(lambda line: line[:len(line) // 2]),
                          st.binary(min_size=1, max_size=20)))
    return lines + [tail]


def reader_bag(directory, body):
    return bag_with_lines(directory / "r.bag", body, FUZZ_TOPICS, READER_RATES)


def topic_streams(blocks):
    """Topic -> the rows of the blocks a listener saw, in the order seen."""
    streams = {}
    for block in blocks:
        for sample in block_samples(block):
            streams.setdefault(sample.topic, []).append(exact(sample))
    return streams


def replay_outcome(path, run):
    """Each topic's stream a listener sees while run(path, bus) replays a
    bag, with the error it ends with, as (type, message)."""
    bus = Bus()
    seen = []
    bus.add_listener(seen.append)
    error = None
    try:
        run(path, bus)
    except MwpipeError as e:
        error = type(e), str(e)
    return topic_streams(seen), error


def serve_outcome(path):
    """The payloads one client receives from serve_bag, with the error
    serve_bag ends with, as (type, message)."""
    bound, outcome = {}, {}
    ready = threading.Event()

    def on_ready(host, port):
        bound["addr"] = (host, port)
        ready.set()

    def serve():
        try:
            serve_bag(path, port=0, ready=on_ready)
        except Exception as e:  # any error is the outcome, not a lost thread
            outcome["error"] = type(e), str(e)

    server = threading.Thread(target=serve)
    server.start()
    assert ready.wait(5.0)
    with socket.create_connection(bound["addr"], timeout=5.0) as sock:
        frames = list(recv_frames(sock))
    server.join(timeout=5.0)
    assert not server.is_alive()
    return frames, outcome.get("error")


def reader_outputs(path):
    """What validate, replay, serve_bag and extract_csv make of a bag."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an unreadable final line is skipped with a warning
        try:
            csv = Path(extract_csv(path, path.with_suffix(".csv"))).read_bytes()
        except CorruptBag as e:
            csv = str(e)
        return (validate(path), replay_outcome(path, lambda p, bus: replay(p, bus=bus)),
                serve_outcome(path), csv)


def chunked(path, share: float):
    """Chunks of a share of the body, from one line each (share 0) up to
    the whole body in one (share 1), while the context is open."""
    return mock.patch.object(mbag, "_CHUNK_BYTES", 1 + int(share * len(body_bytes(path))))


# Each drawn chunk size, applied to the library and its oracle alike, puts
# other records first in a chunk, where what a reader carries over counts.
@settings(max_examples=200, deadline=None)
@given(body=reader_bodies(), share=st.floats(0, 1))
def test_validate_equals_the_record_loop(tmp_path_factory, body, share):
    path = reader_bag(tmp_path_factory.mktemp("validate"), body)
    with warnings.catch_warnings(), chunked(path, share):
        warnings.simplefilter("ignore")
        assert validate(path) == validate_oracle(path)


@settings(max_examples=200, deadline=None)
@given(body=reader_bodies(), share=st.floats(0, 1))
def test_replay_equals_the_record_loop(tmp_path_factory, body, share):
    path = reader_bag(tmp_path_factory.mktemp("replay"), body)
    with warnings.catch_warnings(), chunked(path, share):
        warnings.simplefilter("ignore")
        assert (replay_outcome(path, lambda p, bus: replay(p, bus=bus))
                == replay_outcome(path, replay_oracle))


@settings(max_examples=100, deadline=None)
@given(body=reader_bodies(), share=st.floats(0, 1))
def test_serve_bag_equals_the_record_loop(tmp_path_factory, body, share):
    path = reader_bag(tmp_path_factory.mktemp("serve"), body)
    with warnings.catch_warnings(), chunked(path, share):
        warnings.simplefilter("ignore")
        frames, error = serve_bag_oracle(path, mwire.MAX_FRAME_BYTES)
        assert serve_outcome(path) == (frames, error and (type(error), str(error)))


def test_serve_bag_stops_at_a_line_too_long_for_a_frame(tmp_path):
    lines = [record_line(TimedSample("m.x", i, i, {"n": i, "s": "x" * (600 if i == 3 else 1),
                                                    "ok": True}), FUZZ_TOPICS["m.x"]).encode()
             for i in range(6)]
    path = bag_with_lines(tmp_path / "long.bag", lines, FUZZ_TOPICS)
    cap = len(header_lines(path)[1])  # the manifest fits, the long line does not
    with mock.patch.object(mwire, "MAX_FRAME_BYTES", cap):
        frames, error = serve_outcome(path)
        expected, oracle_error = serve_bag_oracle(path, cap)
    assert frames == expected == [expected[0]] + [line[:-1] for line in lines[:3]]
    assert error == (WireError, str(oracle_error))


def test_validate_keeps_the_running_max_after_a_zero_stamp(tmp_path):
    topics = {"a.x": {"v": "f64"}, "b.x": {"v": "f64"}, "c.x": {"v": "f64"}}
    lines = [record_line(TimedSample(topic, t, 0, {"v": 0.0}), topics[topic]).encode()
             for topic, t in (("a.x", 0), ("b.x", -5), ("c.x", -3))]
    path = bag_with_lines(tmp_path / "zero.bag", lines, topics)
    report = validate(path)
    assert [(i.kind, i.topic, i.message) for i in report.issues] == [
        ("order", "b.x", "t=-5 after t=0"), ("order", "c.x", "t=-3 after t=0")]
    assert report == validate_oracle(path)


@settings(max_examples=60, deadline=None)
@given(body=reader_bodies(), share=st.floats(0, 1))
def test_readers_do_not_depend_on_the_chunk_size(tmp_path_factory, body, share):
    """From one line a chunk up to the whole body in one."""
    path = reader_bag(tmp_path_factory.mktemp("chunks"), body)
    with chunked(path, share):
        cut = reader_outputs(path)
    assert cut == reader_outputs(path)


@pytest.mark.parametrize("chunk_bytes", [1, 300, 4096])
def test_extract_does_not_depend_on_the_chunk_size(tmp_path, chunk_bytes):
    path = ecg_bag(tmp_path / "ecg.bag")
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2 + 4000] = json.dumps(json.loads(lines[2 + 4000])).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    whole = Path(extract_csv(path, tmp_path / "whole.csv")).read_bytes()
    with mock.patch.object(mbag, "_CHUNK_BYTES", chunk_bytes):
        cut = Path(extract_csv(path, tmp_path / "cut.csv")).read_bytes()
    assert cut == whole
    assert whole.count(b"\n") > 1
