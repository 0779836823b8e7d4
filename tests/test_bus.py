import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mwpipe.bag import BagWriter, read_manifest

from mwpipe.bus import (
    Bus,
    DEFAULT_ALIGN_TOLERANCE_NS,
    SampleBlock,
    TimedSample,
    TopicDescriptor,
    align_nearest_samples,
)
from mwpipe.errors import (
    DuplicateTopic,
    InvalidName,
    SchemaMismatch,
    TimestampRegression,
    UnknownTopic,
)
from oracles import align_nearest_samples as align_samples_oracle
from oracles import block_samples, load_samples, sample_time_ns

ECG = TopicDescriptor("bio.ecg", {"v": "f64"}, 252.0)


def make_bus():
    return Bus()


def test_open_topic_and_duplicate():
    bus = make_bus()
    h = bus.open_topic(ECG)
    assert h.name == "bio.ecg"
    with pytest.raises(DuplicateTopic):
        bus.open_topic(TopicDescriptor("bio.ecg", {"v": "f64"}, 252.0))


def test_open_topic_rover_schema():
    bus = make_bus()
    desc = TopicDescriptor(
        "sim.rover",
        {"x_m": "f64", "y_m": "f64", "speed_m_s": "f64", "stalled": "bool"},
        10.0,
    )
    h = bus.open_topic(desc)
    assert h.desc.nominal_rate_hz == 10.0


@pytest.mark.parametrize("bad", ["", "noslash", "Bad.Caps", "a..b", ".a.b", "a.b.", "a.b\n"])
def test_invalid_names(bad):
    with pytest.raises(InvalidName):
        TopicDescriptor(bad, {"v": "f64"}, 1.0)


def test_publish_first_sample_t0():
    bus = make_bus()
    h = bus.open_topic(ECG)
    s = bus.publish(h, {"v": 1.0}, t_ns=0)
    assert (s.seq0, s.times_ns, s.columns) == (0, [0], [[1.0]])


def test_publish_timestamp_regression():
    bus = make_bus()
    h = bus.open_topic(ECG)
    bus.publish(h, {"v": 1.0}, t_ns=1_000_000)
    with pytest.raises(TimestampRegression):
        bus.publish(h, {"v": 1.0}, t_ns=999_999)
    with pytest.raises(TimestampRegression):
        bus.publish(h, {"v": 1.0}, t_ns=1_000_000)  # equal also rejected


def test_publish_schema_mismatch():
    bus = make_bus()
    h = bus.open_topic(ECG)
    with pytest.raises(SchemaMismatch):
        bus.publish(h, {"v": "not a float"}, t_ns=0)
    with pytest.raises(SchemaMismatch):
        bus.publish(h, {"v": 1.0, "extra": 2.0}, t_ns=1)
    with pytest.raises(SchemaMismatch):
        bus.publish(h, {}, t_ns=2)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_publish_refuses_a_non_finite_float(value):
    """What BagWriter records comes only from the bus, so this is what keeps
    a non-finite float out of every record line."""
    bus = make_bus()
    h = bus.open_topic(ECG)
    seen = []
    bus.add_listener(seen.append)
    with pytest.raises(SchemaMismatch):
        bus.publish(h, {"v": value}, t_ns=0)
    assert (seen, h.next_seq, h.last_t_ns) == ([], 0, None)


def test_publish_takes_an_i64_in_the_int64_range_only():
    """Every i64 value the bus passes is an int64, as a bag reader reads it."""
    bus = make_bus()
    h = bus.open_topic(TopicDescriptor("c.n", {"n": "i64"}))
    assert [bus.publish(h, {"n": n}, t_ns=i).columns for i, n in enumerate([-2**63, 2**63 - 1])] \
        == [[[-2**63]], [[2**63 - 1]]]
    for n in (2**63, -2**63 - 1, 2**70):
        with pytest.raises(SchemaMismatch):
            bus.publish(h, {"n": n}, t_ns=5)
    assert (h.next_seq, h.last_t_ns) == (2, 1)


@pytest.mark.parametrize("t_ns", [None, 1.5, 2.0, True, "5", 2**63, -2**63 - 1])
def test_publish_rejects_a_stamp_that_is_not_integer_ns(t_ns):
    bus = make_bus()
    h = bus.open_topic(ECG)
    with pytest.raises(SchemaMismatch):
        bus.publish(h, {"v": 1.0}, t_ns=t_ns)
    assert (h.next_seq, h.last_t_ns) == (0, None)
    assert bus.publish(h, {"v": 1.0}, t_ns=np.int64(3)).times_ns == [3]


def test_publish_252_samples_spacing():
    # 252 samples spaced 1/252 s: seq 0..251, dt 3_968_253 or 3_968_254 ns
    bus = make_bus()
    h = bus.open_topic(ECG)
    times = [sample_time_ns(0, i, 252.0) for i in range(252)]
    for i, t in enumerate(times):
        s = bus.publish(h, {"v": 0.0}, t_ns=t)
        assert s.seq0 == i
    deltas = {b - a for a, b in zip(times, times[1:])}
    assert deltas <= {3_968_253, 3_968_254}
    # one second of samples lands on the second boundary within rounding
    assert abs(sample_time_ns(0, 252, 252.0) - 1_000_000_000) <= 1


def test_publish_to_unknown_topic():
    bus = make_bus()
    bus.open_topic(ECG)
    with pytest.raises(UnknownTopic):
        bus.publish("no.such", {"v": 0.0}, t_ns=0)


def test_subscribe_merged_empty_set(tmp_path):
    # merging no topics: a bag of a bus with nothing open holds no records
    w = BagWriter(tmp_path / "none.bag", make_bus())
    w.close()
    assert read_manifest(tmp_path / "none.bag")["topics"] == []
    assert load_samples(tmp_path / "none.bag") == []


def stamps(*t):
    return np.array(t, dtype=np.int64)


def test_align_nearest_spec_examples():
    # nearest of 980/1030 within tol 50 joins 980 with offset -20
    times = stamps(980, 1030)
    (i,) = align_nearest_samples([1000], {"o.t": times}, 50)["o.t"]
    assert times[i] - 1000 == -20
    # nearest at 1100 with tol 50 is absent
    assert align_nearest_samples([1000], {"o.t": stamps(1100)}, 50)["o.t"].tolist() == [-1]
    # exact tie |10|: earlier sample wins
    times = stamps(990, 1010)
    (i,) = align_nearest_samples([1000], {"o.t": times}, 50)["o.t"]
    assert times[i] == 990
    # a tolerance of 0 or less is refused
    for tolerance in (0, -1):
        with pytest.raises(ValueError):
            align_nearest_samples([1000], {"o.t": times}, tolerance)


def test_align_infinite_tolerance_joins_every_topic_once():
    anchor = [i * 100 for i in range(5)]
    index = align_nearest_samples(anchor, {"o.t": stamps(5_000_000)}, 2**62)
    assert list(index) == ["o.t"] and index["o.t"].tolist() == [0] * 5


def test_concurrent_publishers_per_topic_order():
    bus = make_bus()
    topics = [bus.open_topic(TopicDescriptor(f"th.t{i}", {"v": "f64"})) for i in range(4)]
    seen = []
    bus.add_listener(seen.append)

    def worker(h, n=200):
        for k in range(n):
            bus.publish(h, {"v": float(k)}, t_ns=k + 1)

    threads = [threading.Thread(target=worker, args=(h,)) for h in topics]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for h in topics:
        samples = [s for b in seen if b.topic == h.name for s in block_samples(b)]
        assert [s.seq for s in samples] == list(range(200))
        assert [s.t_ns for s in samples] == list(range(1, 201))
        assert [s.payload for s in samples] == [{"v": float(k)} for k in range(200)]


def test_concurrent_block_publishers_per_topic_order(tmp_path):
    bus = make_bus()
    topics = [bus.open_topic(TopicDescriptor(f"th.t{i}", {"a": "f64", "b": "f64"}))
              for i in range(4)]
    seen = []
    bus.add_listener(seen.append)
    writer = BagWriter(tmp_path / "threads.bag", bus)

    def worker(h, n=600):
        k = 0
        while k < n:
            size = 1 + k % 7
            t = np.arange(k + 1, min(k + size, n) + 1)
            bus.publish_block(h, t, np.stack([t * 0.5, -t * 1.0]))
            k += len(t)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(h,)) for h in topics]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for h in topics:
        blocks = [b for b in seen if b.topic == h.name]
        seqs = [seq for b in blocks for seq in range(b.seq0, b.seq0 + len(b.times_ns))]
        times = np.concatenate([b.times_ns for b in blocks])
        assert seqs == list(range(600))
        assert times.tolist() == list(range(1, 601))
        assert np.concatenate([b.columns for b in blocks], axis=1).tolist() == \
            [[t * 0.5 for t in range(1, 601)], [-t * 1.0 for t in range(1, 601)]]
        assert [b.seq0 for b in blocks] == [int(b.times_ns[0]) - 1 for b in blocks]
    writer.close()  # the writer's buffers lost no row either
    assert [(s.t_ns, s.topic, s.seq, s.payload) for s in load_samples(writer.path)] == \
        [(t, h.name, t - 1, {"a": t * 0.5, "b": -t * 1.0}) for t in range(1, 601) for h in topics]


def test_publish_block_hands_listeners_one_block():
    bus = make_bus()
    h = bus.open_topic(TopicDescriptor("bio.gaze", {"x": "f64", "y": "f64"}, 120.0))
    seen = []
    bus.add_listener(seen.append)
    first = bus.publish(h, {"x": 0.0, "y": 0.0}, t_ns=5)
    block = bus.publish_block(h, np.array([7, 9]), np.array([[1, 2], [3.5, 4.5]]))
    assert seen == [first, block]
    assert first == SampleBlock("bio.gaze", [5], 0, ("x", "y"), [[0.0], [0.0]])
    assert (block.topic, block.seq0, block.fields) == ("bio.gaze", 1, ("x", "y"))
    assert block.times_ns == [7, 9] and type(block.times_ns[0]) is int
    assert block.columns == [[1.0, 2.0], [3.5, 4.5]]
    assert {type(v) for c in block.columns for v in c} == {float}  # ints publish as floats
    assert (h.next_seq, h.last_t_ns) == (3, 9)
    assert bus.publish_block(h, np.array([], dtype=np.int64), np.empty((2, 0))).seq0 == 3
    assert len(seen) == 2 and (h.next_seq, h.last_t_ns) == (3, 9)


def test_publish_refuses_an_f64_too_large_for_a_float():
    """float() of such an int overflows; the bus says why, as a misfit."""
    bus = make_bus()
    h = bus.open_topic(ECG)
    seen = []
    bus.add_listener(seen.append)
    for publish in (lambda: bus.publish(h, {"v": 10**400}, t_ns=0),
                    lambda: bus.publish_block(h, [0, 1], [[0.5, -10**400]])):
        with pytest.raises(SchemaMismatch, match="'v' is outside the float range"):
            publish()
    assert (seen, h.next_seq, h.last_t_ns) == ([], 0, None)


XY = {"x": "f64", "y": "f64"}
MIX = {"x": "f64", "n": "i64", "s": "str", "ok": "bool", "y": "f64?"}
T = np.array([20, 30])
COLS = np.array([[1.0, 2.0], [3.0, 4.0]])
# Columns of every kind, as lists: a value may be None only in an optional field.
MIX_COLS = [[1.0, 2.0], [3, -4], ["a", ""], [True, False], [None, 0.5]]


def mix_with(k, i, value):
    """MIX_COLS with row i of column k set to value."""
    columns = [list(c) for c in MIX_COLS]
    columns[k][i] = value
    return columns


# (schema, times, columns, error); the topic's last sample is at t=10.
BAD_BLOCKS = {
    "nan": (XY, T, [[1.0, np.nan], [3.0, 4.0]], SchemaMismatch),
    "inf": (XY, T, [[1.0, 2.0], [-np.inf, 4.0]], SchemaMismatch),
    "bool_values": (XY, T, np.ones((2, 2), dtype=bool), SchemaMismatch),
    "str_values": (XY, T, [["a", "b"], ["c", "d"]], SchemaMismatch),
    "repeated_t": (XY, np.array([20, 20]), COLS, TimestampRegression),
    "decreasing_t": (XY, np.array([30, 20]), COLS, TimestampRegression),
    "t0_equals_last_t": (XY, np.array([10, 30]), COLS, TimestampRegression),
    "t0_before_last_t": (XY, np.array([5, 30]), COLS, TimestampRegression),
    "float_times": (XY, np.array([20.0, 30.0]), COLS, SchemaMismatch),
    "times_2d": (XY, T.reshape(1, 2), COLS, SchemaMismatch),
    "ragged_times": (XY, [[20], [30, 40]], COLS, SchemaMismatch),
    "str_times": (XY, ["20", "30"], COLS, SchemaMismatch),
    "one_column_short": (XY, T, COLS[:1], SchemaMismatch),
    "one_column_extra": (XY, T, np.vstack([COLS, COLS[:1]]), SchemaMismatch),
    "column_too_short": (XY, T, COLS[:, :1], SchemaMismatch),
    "column_too_long": (XY, T, np.hstack([COLS, COLS]), SchemaMismatch),
    "ragged_columns": (XY, T, [[1.0, 2.0], [3.0]], SchemaMismatch),
    "bool_in_i64": (MIX, T, mix_with(1, 1, True), SchemaMismatch),
    "i64_beyond_int64": (MIX, T, mix_with(1, 0, 2**63), SchemaMismatch),
    "non_str_in_str": (MIX, T, mix_with(2, 1, 5), SchemaMismatch),
    "none_in_required": (MIX, T, mix_with(0, 1, None), SchemaMismatch),
    "nan_in_optional": (MIX, T, mix_with(4, 1, float("nan")), SchemaMismatch),
}


def block_row(schema, columns, i):
    """Row i of block columns as the payload that publish takes."""
    return {f: c[i] for f, c in zip(schema, columns) if c[i] is not None}


@pytest.mark.parametrize("schema, times, columns, error", BAD_BLOCKS.values(), ids=BAD_BLOCKS)
def test_bad_block_is_rejected_and_changes_nothing(schema, times, columns, error):
    bus = make_bus()
    h = bus.open_topic(TopicDescriptor("a.b", schema))
    seen = []
    bus.add_listener(seen.append)
    zero = {"f64": 0.0, "f64?": 0.0, "i64": 0, "str": "", "bool": False}
    first = bus.publish(h, {f: zero[kind] for f, kind in schema.items()}, t_ns=10)
    with pytest.raises(error) as raised:
        bus.publish_block(h, times, columns)
    assert (h.next_seq, h.last_t_ns, seen) == (1, 10, [first])
    if schema is MIX:  # published one by one, the rows raise the same at the bad one
        with pytest.raises(error) as alone:
            for i, t in enumerate(times.tolist()):
                bus.publish(h, block_row(schema, columns, i), t_ns=t)
        assert str(alone.value) == str(raised.value)


# (schema, times, columns, the columns the bus hands on) of blocks beyond all-required f64.
GOOD_BLOCKS = {
    "i64_field": ({"x": "f64", "n": "i64"}, T, [[1.0, 2.0], np.array([3, 4])],
                  [[1.0, 2.0], [3, 4]]),
    "str_field": ({"x": "f64", "s": "str"}, T, [np.array([1, 2]), ["a", "é"]],
                  [[1.0, 2.0], ["a", "é"]]),
    "optional_field": ({"x": "f64", "y": "f64?"}, T, [[1.0, 2.0], [None, 4]],
                       [[1.0, 2.0], [None, 4.0]]),
    "every_kind": (MIX, T, MIX_COLS, MIX_COLS),
}


@pytest.mark.parametrize("schema, times, columns, canonical", GOOD_BLOCKS.values(),
                         ids=GOOD_BLOCKS)
def test_block_of_any_schema_is_accepted(tmp_path, schema, times, columns, canonical):
    """A block holds every kind; its rows reach listeners and the bag as the
    same rows published one by one do."""
    bags = []
    for by_block in (True, False):
        bus = make_bus()
        h = bus.open_topic(TopicDescriptor("a.b", schema))
        seen = []
        bus.add_listener(seen.append)
        writer = BagWriter(tmp_path / f"{by_block}.bag", bus)
        if by_block:
            block = bus.publish_block(h, times, columns)
            assert seen == [block] and block.columns == canonical
            assert [type(v) for c in block.columns for v in c] == \
                [type(v) for c in canonical for v in c]
        else:
            for i, t in enumerate(times.tolist()):
                bus.publish(h, block_row(schema, canonical, i), t_ns=t)
        writer.close()
        bags.append(load_samples(writer.path))
        assert [s for b in seen for s in block_samples(b)] == bags[-1]
    assert bags[0] == bags[1] and len(bags[0]) == len(times)


def merged_bag(streams):
    """Publish each stream of stamps on its own topic and read back the bag
    the BagWriter merges them into, with the samples the bus handed out."""
    bus = make_bus()
    with tempfile.TemporaryDirectory() as d:
        w = BagWriter(Path(d) / "m.bag", bus)
        published = []
        for i, stamps in enumerate(streams):
            h = bus.open_topic(TopicDescriptor(f"s.t{i}", {"v": "f64"}))
            published += [s for t in stamps
                          for s in block_samples(bus.publish(h, {"v": 0.0}, t_ns=t))]
        w.close()
        return load_samples(Path(d) / "m.bag"), published


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=30),
        min_size=1,
        max_size=4,
    )
)
def test_merge_is_sorted_permutation(raw_streams):
    streams = [sorted(set(ts_list)) for ts_list in raw_streams]
    merged, published = merged_bag(streams)
    assert sorted(merged, key=lambda s: (s.t_ns, s.topic, s.seq)) == merged
    assert sorted(map(tuple, merged)) == sorted(map(tuple, published))
    assert merged_bag(streams)[0] == merged  # deterministic re-run


def test_align_offsets_within_tolerance_property():
    import random

    rng = random.Random(7)
    anchor = sorted(rng.sample(range(10**6), 50))
    times = stamps(*sorted(rng.sample(range(10**6), 80)))
    (index,) = align_nearest_samples(anchor, {"b.t": times}, DEFAULT_ALIGN_TOLERANCE_NS).values()
    assert len(index) == len(anchor) and (index >= 0).all()
    for a, i in zip(anchor, index.tolist()):
        assert abs(int(times[i]) - a) <= DEFAULT_ALIGN_TOLERANCE_NS


# Stamps near each other, so that ties, duplicates and samples exactly at
# the tolerance come up, and at the ends of the int64 range.
join_stamps = st.one_of(st.integers(-40, 40), st.integers(-2**63, 2**63 - 1),
                        st.sampled_from([-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1]))


@settings(max_examples=300, deadline=None)
@given(anchor=st.lists(join_stamps, max_size=12).map(sorted),
       others=st.lists(st.lists(join_stamps, max_size=12).map(sorted), max_size=3),
       tolerance=st.one_of(st.integers(1, 40), st.integers(1, 2**66),
                           st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1])))
@example(anchor=[-2**63], others=[[2**63 - 1]], tolerance=1)
@example(anchor=[2**63 - 1], others=[[-2**63]], tolerance=2**64 - 2)
@example(anchor=[-2**63, 2**63 - 1], others=[[2**63 - 1], [-2**63]], tolerance=2**64 - 1)
def test_align_equals_the_sample_join(anchor, others, tolerance):
    """The column join picks, for every anchor and topic, the sample the
    per-sample reference join picks, and -1 where that joins none."""
    topics = {f"o.t{k}": times for k, times in enumerate(others)}
    index = align_nearest_samples(anchor, {name: stamps(*times) for name, times in topics.items()},
                                  tolerance)
    frames = align_samples_oracle(
        [TimedSample("a.t", t, i, {}) for i, t in enumerate(anchor)],
        {name: [TimedSample(name, t, i, {}) for i, t in enumerate(times)]
         for name, times in topics.items()}, tolerance)
    assert list(index) == list(topics)
    for name in topics:
        assert index[name].tolist() == [f.joined[name][0].seq if name in f.joined else -1
                                        for f in frames]
