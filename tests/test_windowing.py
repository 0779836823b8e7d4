import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwpipe.bus import NS_PER_S
from mwpipe.features.windowing import SlidingWindower
from oracles import make_windows, window_count_oracle


def uniform_stream(duration_s, fs):
    n = int(duration_s * fs)
    times = np.array([round(i * NS_PER_S / fs) for i in range(n)], dtype=np.int64)
    return times, np.zeros(n)


def test_60s_stream_gives_31_windows():
    times, vals = uniform_stream(60, 10.0)
    wins = make_windows(times, vals, "st", 10.0, len_s=30, stride_s=1)
    assert len(wins) == 31
    assert len(wins) == window_count_oracle(60, 30, 1)


def test_29s_stream_gives_no_windows():
    times, vals = uniform_stream(29, 10.0)
    assert make_windows(times, vals, "st", 10.0, len_s=30, stride_s=1) == []


def test_stride_equals_len_tiles_without_overlap():
    times, vals = uniform_stream(90, 4.0)
    wins = make_windows(times, vals, "eda", 4.0, len_s=30, stride_s=30)
    assert len(wins) == 3
    for a, b in zip(wins, wins[1:]):
        assert a.t_end_ns == b.t_start_ns


def test_window_spans_exactly_30s_in_ns():
    times, vals = uniform_stream(45, 252.0)
    wins = make_windows(times, vals, "ecg", 252.0, len_s=30, stride_s=1)
    for w in wins:
        assert w.t_end_ns - w.t_start_ns == 30 * NS_PER_S


def test_consecutive_ends_differ_by_stride():
    times, vals = uniform_stream(40, 64.0)
    wins = make_windows(times, vals, "ppg", 64.0, len_s=30, stride_s=1)
    for a, b in zip(wins, wins[1:]):
        assert b.t_end_ns - a.t_end_ns == NS_PER_S


def test_window_contains_half_open_interval():
    fs = 10.0
    times, vals = uniform_stream(40, fs)
    vals = np.arange(len(times), dtype=float)
    wins = make_windows(times, vals, "st", fs, len_s=30, stride_s=1)
    w = wins[0]
    assert times[np.searchsorted(times, w.t_start_ns)] == w.times_ns[0]
    assert np.all(w.times_ns >= w.t_start_ns)
    assert np.all(w.times_ns < w.t_end_ns)
    assert w.n == 300


def test_windower_watermark_gates_emission():
    times, vals = uniform_stream(60, 4.0)
    w = SlidingWindower("eda", 4.0, len_s=30, stride_s=1)
    w.feed(times, vals)
    assert w.advance_to(29 * NS_PER_S) == []
    assert len(w.advance_to(30 * NS_PER_S)) == 1
    assert len(w.advance_to(60 * NS_PER_S)) == 30  # ends 31..60
    assert w.advance_to(60 * NS_PER_S) == []  # no re-emission


def test_windower_incremental_feed_equals_batch():
    times, vals = uniform_stream(45, 4.0)
    vals = np.sin(np.arange(len(vals)) / 7.0)
    batch = make_windows(times, vals, "eda", 4.0, len_s=30, stride_s=1,
                         end_ns=45 * NS_PER_S)
    inc = SlidingWindower("eda", 4.0, len_s=30, stride_s=1)
    out = []
    for cut in (40, 80, 120, len(times)):
        prev = 0 if cut == 40 else {40: 0, 80: 40, 120: 80}.get(cut, 120)
        inc.feed(times[prev:cut], vals[prev:cut])
        out.extend(inc.advance_to(int(times[cut - 1]) + 1))
    out.extend(inc.advance_to(45 * NS_PER_S))
    assert len(out) == len(batch)
    for a, b in zip(out, batch):
        assert a.t_end_ns == b.t_end_ns
        assert np.array_equal(a.values, b.values)


@settings(max_examples=40)
@given(
    duration=st.integers(min_value=1, max_value=240),
    len_s=st.integers(min_value=1, max_value=60),
    stride=st.integers(min_value=1, max_value=30),
)
def test_window_count_matches_enumeration_oracle(duration, len_s, stride):
    times, vals = uniform_stream(duration, 4.0)
    wins = make_windows(times, vals, "eda", 4.0, len_s=len_s, stride_s=stride,
                        end_ns=duration * NS_PER_S)
    assert len(wins) == window_count_oracle(duration, len_s, stride)


def test_empty_input_empty_output():
    assert make_windows(np.empty(0, dtype=np.int64), np.empty(0), "st", 4.0) == []


def test_stride_below_one_ns_is_rejected():
    with pytest.raises(ValueError):
        SlidingWindower("st", 4.0, len_s=30, stride_s=1e-10)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cols=st.sampled_from([0, 3]),
       len_s=st.integers(min_value=1, max_value=6), stride_s=st.integers(min_value=1, max_value=3))
def test_windower_equals_batch_and_holds_one_window(data, cols, len_s, stride_s):
    fs = 4.0
    unit_ns = round(NS_PER_S / fs)
    # at least 20 windows: every gap is at least one sample period
    n = data.draw(st.integers(min_value=round((len_s + 20 * stride_s) * fs),
                              max_value=round((len_s + 40 * stride_s) * fs)))
    gaps = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    times = np.cumsum(gaps, dtype=np.int64) * unit_ns
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.normal(size=(n, cols) if cols else n)
    cuts = sorted(set(data.draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=12))))
    bounds = [0, *cuts, n]
    max_block = max(b - a for a, b in zip(bounds, bounds[1:]))
    held_cap = round(len_s * fs) + round(stride_s * fs) + max_block

    inc = SlidingWindower("w", fs, len_s=len_s, stride_s=stride_s, t0_ns=int(times[0]))
    out = []
    for a, b in zip(bounds, bounds[1:]):
        inc.feed(times[a:b], values[a:b])
        # any watermark up to just past the block: a no-op or several windows
        watermark = data.draw(st.integers(min_value=int(times[a]), max_value=int(times[b - 1]) + 1))
        out.extend(inc.advance_to(watermark))
        assert inc.advance_to(watermark) == []
        assert sum(map(len, inc._times)) <= held_cap
    end = int(times[-1]) + unit_ns
    out.extend(inc.advance_to(end))

    batch = make_windows(times, values, "w", fs, len_s=len_s, stride_s=stride_s)
    assert len(batch) >= 20
    assert [w.t_end_ns for w in out] == [w.t_end_ns for w in batch]
    for a, b in zip(out, batch):
        assert np.array_equal(a.times_ns, b.times_ns)
        assert np.array_equal(a.values, b.values)
        mask = (times >= b.t_start_ns) & (times < b.t_end_ns)
        assert np.array_equal(b.times_ns, times[mask])
        assert np.array_equal(b.values, values[mask])
