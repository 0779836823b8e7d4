import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import sosfiltfilt

from mwpipe.features.beats import (
    BeatSeries,
    _apply_refractory,
    _argmax_near,
    _bandpass,
    _filtfilt,
    _peaks_above_half_rollmax,
    detect_beats_batch,
)
from mwpipe.features.windowing import Window
from mwpipe.synth import SynthProfile, gen_rr_series, render_cardiac
from oracles import (argmax_near_oracle, half_rollmax_peaks_oracle, make_windows,
                     refractory_oracle)


def windows_of(wf, len_s=30, stride_s=30):
    return make_windows(wf.times_ns(), wf.values, wf.modality, wf.fs_hz,
                        len_s=len_s, stride_s=stride_s, end_ns=wf.end_ns)


def test_ecg_constant_rr_intervals_within_one_sample():
    p = SynthProfile(seed=1, duration_s=60, rr_mean_ms=800, rr_sdnn_ms=0, hf_mod_depth_ms=0)
    wf = render_cardiac(gen_rr_series(p), "ecg")
    for w in windows_of(wf):
        b = detect_beats_batch([w])[0]
        assert len(b.beat_times_ns) in (37, 38)
        assert np.all(np.abs(b.intervals_ms - 800.0) <= 4.0)


def test_ecg_beat_times_within_one_sample_of_truth():
    p = SynthProfile(seed=4, duration_s=60, rr_mean_ms=850, rr_sdnn_ms=30, hf_mod_depth_ms=0)
    wf = render_cardiac(gen_rr_series(p), "ecg")
    truth = wf.truth["beat_times_ns"]
    one_sample_ns = round(1e9 / wf.fs_hz)
    for w in windows_of(wf):
        b = detect_beats_batch([w])[0]
        tw = truth[(truth >= w.t_start_ns) & (truth < w.t_end_ns)]
        for t in b.beat_times_ns:
            assert min(abs(int(t) - int(u)) for u in tw) <= one_sample_ns


def test_flatline_gives_empty_series():
    n = 252 * 30
    times = (np.arange(n) * 1e9 / 252).astype(np.int64)
    w = Window("ecg", 0, 30 * 10**9, times, np.zeros(n), 252.0)
    b = detect_beats_batch([w])[0]
    assert len(b.beat_times_ns) == 0
    assert len(b.intervals_ms) == 0


def test_ppg_constant_rr_mean_interval():
    p = SynthProfile(seed=2, duration_s=30, rr_mean_ms=1000, rr_sdnn_ms=0, hf_mod_depth_ms=0)
    wf = render_cardiac(gen_rr_series(p), "ppg")
    (w,) = windows_of(wf)
    b = detect_beats_batch([w])[0]
    assert abs(float(np.mean(b.intervals_ms)) - 1000.0) <= 16.0


def test_ppg_beat_times_track_truth():
    p = SynthProfile(seed=6, duration_s=30, rr_mean_ms=900, rr_sdnn_ms=20, hf_mod_depth_ms=0)
    wf = render_cardiac(gen_rr_series(p), "ppg")
    truth = wf.truth["beat_times_ns"]
    one_sample_ns = round(1e9 / wf.fs_hz)
    (w,) = windows_of(wf)
    b = detect_beats_batch([w])[0]
    for t in b.beat_times_ns:
        assert min(abs(int(t) - int(u)) for u in truth) <= one_sample_ns


def test_nonphysiological_intervals_discarded():
    # two clusters 5 s apart: the 5000 ms gap interval is dropped
    times = np.array([0, 800, 1600, 6600, 7400], dtype=np.int64) * 10**6
    b = BeatSeries(times)
    assert np.all(b.intervals_ms < 3000.0)
    assert len(b.intervals_ms) == 3


def test_fewer_than_two_beats_empty_intervals():
    b = BeatSeries(np.array([10**9], dtype=np.int64))
    assert len(b.intervals_ms) == 0


# Small integers give plateaus and ties, where ">=" against ">" matters.
small_ints = st.lists(st.integers(min_value=-3, max_value=3), max_size=40)


@settings(max_examples=200)
@given(values=small_ints, fs=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
def test_peaks_above_half_rollmax_equal_the_loop_oracle(values, fs):
    x = np.array(values, dtype=float)
    assert _peaks_above_half_rollmax(x, fs).tolist() == half_rollmax_peaks_oracle(values, fs)


@settings(max_examples=200)
@given(data=st.data(), values=st.lists(st.integers(min_value=-3, max_value=3), min_size=1,
                                       max_size=80),
       half=st.integers(min_value=0, max_value=5) | st.just(int(0.06 * 252)))  # the ECG's: 15
def test_argmax_near_equals_the_loop_oracle(data, values, half):
    """Indices anywhere in x, and within half samples of either end, where the
    window reaches into the -inf padding."""
    last = len(values) - 1
    near_ends = st.integers(0, min(half, last)) | st.integers(max(0, last - half), last)
    idx = data.draw(st.lists(st.integers(0, last) | near_ends, max_size=10))
    got = _argmax_near(np.array(values, dtype=float), np.array(idx, dtype=np.int64), half)
    assert got.tolist() == argmax_near_oracle(values, idx, half)


# Runs of candidates closer together than the refractory gap (63 samples at
# the ECG's 252 Hz, 16 at the PPG's 64 Hz), as on a plateau of energy peaks.
dense_runs = st.lists(st.tuples(st.integers(0, 2000), st.integers(1, 80), st.integers(1, 20)),
                      max_size=6).map(lambda runs: [start + step * k for start, n, step in runs
                                                    for k in range(n)])


@settings(max_examples=200)
@given(values=st.lists(st.integers(min_value=0, max_value=300), max_size=40) | dense_runs,
       fs=st.sampled_from([1.008, 4.0, 64.0, 250.3, 252.0]))
def test_apply_refractory_equals_the_loop_oracle(values, fs):
    indices = np.array(sorted(values), dtype=np.int64)
    assert _apply_refractory(indices, fs) == refractory_oracle(sorted(values), fs)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# The ECG and PPG bands at their sensor rates; each band-pass pads 15 samples.
BANDS = [("ecg", 5.0, 25.0, 252.0), ("ppg", 0.5, 8.0, 64.0)]


@settings(max_examples=150, deadline=None)
@given(band=st.sampled_from(BANDS),
       values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=300))
@example(band=BANDS[0], values=[1.0, -2.0] * 7 + [1.0])  # no longer than the pad
@example(band=BANDS[1], values=[1.0, -2.0] * 7 + [1.0])
@example(band=BANDS[0], values=[1.0, -2.0] * 8)
@example(band=BANDS[1], values=[1.0, -2.0] * 8)
def test_filtfilt_equals_sosfiltfilt_bit_for_bit(band, values):
    modality, *edges = band
    x = np.array(values)
    sos, _, pad = _bandpass(*edges)
    if len(x) <= pad:
        # sosfiltfilt refuses a signal this short, so detect_beats_batch
        # filters nothing and finds no beats
        with pytest.raises(ValueError, match="padlen"):
            sosfiltfilt(sos, x)
        times = np.round(np.arange(len(x)) * (1e9 / edges[-1])).astype(np.int64)
        w = Window(modality, 0, int(times[-1]) + 1, times, x, edges[-1])
        beats = detect_beats_batch([w])[0]
        assert len(beats.beat_times_ns) == 0 and len(beats.intervals_ms) == 0
        return
    assert same_bits(_filtfilt(x, *edges), sosfiltfilt(sos, x))
