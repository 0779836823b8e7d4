import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwpipe.bus import NS_PER_S
from mwpipe.features.beats import BeatSeries, _local_maxima, detect_beats_batch
from mwpipe.features.gaze import classify_gaze_batch, gaze_features
from mwpipe.features.ppg import _first_in, _trapezoid, ppg_features
from mwpipe.features.windowing import Window
from mwpipe.synth import (
    GazeEvent,
    SynthProfile,
    gen_gaze,
    gen_rr_series,
    render_cardiac,
)
from oracles import (first_local_max_oracle, first_local_min_oracle, make_windows, pursuit_script,
                     saccade_battery_script)


def one_window(wf):
    return make_windows(wf.times_ns(), wf.values, wf.modality, wf.fs_hz,
                        len_s=30, stride_s=30, end_ns=wf.end_ns)[0]


def ppg_window(rr_ms=1000.0, amp=50.0, seed=2):
    p = SynthProfile(seed=seed, duration_s=30, rr_mean_ms=rr_ms, rr_sdnn_ms=0,
                     hf_mod_depth_ms=0)
    wf = render_cardiac(gen_rr_series(p), "ppg", amplitude=amp)
    return one_window(wf)


# -- PPG -------------------------------------------------------------------------

def test_ppg_identical_pulses():
    w = ppg_window()
    f = ppg_features(w, detect_beats_batch([w])[0])
    assert abs(f["digital_pa"] - 50.0) <= 2.0
    assert abs(f["r2r_ms"] - 1000.0) <= 16.0
    assert f["prv_ms"] <= 2.0


def test_ppg_svri_self_ratio():
    w = ppg_window()
    f = ppg_features(w, detect_beats_batch([w])[0])
    assert f["svri"] == 1.0  # no baseline yet
    f2 = ppg_features(w, detect_beats_batch([w])[0], baseline_pa=f["digital_pa"])
    assert f2["svri"] == pytest.approx(1.0)


def test_ppg_reflection_and_ipa_present_with_dicrotic_bump():
    w = ppg_window()
    f = ppg_features(w, detect_beats_batch([w])[0])
    assert 0.0 < f["reflection_index"] < 1.0
    assert f["ipa"] > 0.0
    assert f["auc"] > 0.0


def test_ppg_no_dicrotic_bump_ri_ipa_absent():
    # triangular pulses: strictly monotone decay after the peak
    fs = 64.0
    beat_s = 1.0
    n = int(30 * fs)
    t = np.arange(n) / fs
    x = np.zeros(n)
    for k in range(30):
        tau = t - k * beat_s
        m = (tau >= 0) & (tau < beat_s)
        x[m] += np.where(tau[m] < 0.1, tau[m] / 0.1, 1.0 - (tau[m] - 0.1) / 0.9) * 50.0
    times = np.array([round(i * NS_PER_S / fs) for i in range(n)], dtype=np.int64)
    w = Window("ppg", 0, 30 * NS_PER_S, times, x, fs)
    f = ppg_features(w, detect_beats_batch([w])[0])
    assert "digital_pa" in f
    assert "reflection_index" not in f
    assert "ipa" not in f


def test_ppg_insufficient_beats_all_absent():
    w = ppg_window()
    from mwpipe.features.beats import BeatSeries

    assert ppg_features(w, BeatSeries(np.array([10**9], dtype=np.int64))) == {}


def test_ppg_svri_against_frozen_baseline():
    w = ppg_window(amp=50.0)
    f = ppg_features(w, detect_beats_batch([w])[0], baseline_pa=25.0)
    assert f["svri"] == pytest.approx(f["digital_pa"] / 25.0)


# Small integers give plateaus and ties, where ">=" against ">" matters.
@settings(max_examples=300)
def float_bits(values: dict) -> dict:
    return {k: struct.pack("<d", v) for k, v in values.items()}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), steps=st.lists(st.integers(min_value=-3, max_value=3), min_size=40,
                                      max_size=160),
       len_n=st.integers(min_value=8, max_value=40),
       stride_n=st.integers(min_value=1, max_value=12),
       baseline_pa=st.none() | st.floats(0.5, 200.0))
def test_ppg_memo_equals_uncached_on_random_beat_trains(data, steps, len_n, stride_n,
                                                        baseline_pa):
    """A memo carried over the windows of one stream gives the uncached
    features in every window, whatever beats each window reports."""
    fs = 64.0
    x = np.cumsum(steps).astype(float)  # small steps: plateaus and ties
    times = np.round(np.arange(len(x)) * (NS_PER_S / fs)).astype(np.int64)
    train = sorted(data.draw(st.sets(st.integers(0, len(x) - 1), max_size=len(x) // 3)))
    memo = {}
    for w in make_windows(times, x, "ppg", fs, len_s=len_n / fs, stride_s=stride_n / fs):
        in_window = [int(t) for t in times[train] if w.t_start_ns <= t < w.t_end_ns]
        dropped = data.draw(st.sets(st.sampled_from(in_window), max_size=2)) if in_window else ()
        beats = BeatSeries(np.array([t for t in in_window if t not in dropped], dtype=np.int64))
        cached = ppg_features(w, beats, baseline_pa=baseline_pa, memo=memo)
        assert float_bits(cached) == float_bits(ppg_features(w, beats, baseline_pa=baseline_pa))
        assert all(key[0] >= w.t_start_ns for key in memo)


@given(values=st.lists(st.integers(min_value=-3, max_value=3), max_size=30),
       lo=st.integers(min_value=-2, max_value=32), hi=st.integers(min_value=-2, max_value=32))
def test_first_in_local_extrema_equals_the_loop_oracles(values, lo, hi):
    x = np.array(values, dtype=float)
    d = np.diff(x)
    assert _first_in(_local_maxima(x), lo, hi) == first_local_max_oracle(values, lo, hi)
    assert _first_in(_local_maxima(-d), lo, hi) == first_local_min_oracle(d.tolist(), lo, hi)


# -- gaze ------------------------------------------------------------------------------

def gaze_window(script, noise=0.0, seed=0):
    wf = gen_gaze(script, fixation_noise_deg=noise, seed=seed)
    return one_window(wf)


def counts(events):
    out = {"fixation": 0, "saccade": 0, "pursuit": 0, "pso": 0}
    for e in events:
        out[e.kind] += 1
    return out


def test_pure_fixation_single_event():
    w = gaze_window([GazeEvent("fixation", 0.0, 30.0, x_deg=0.0, y_deg=0.0)],
                    noise=0.1, seed=1)
    ev = classify_gaze_batch([w])[0]
    c = counts(ev)
    assert c["fixation"] == 1 and c["saccade"] == 0


def test_saccade_battery_exact_counts():
    for noise, seed in ((0.0, 0), (0.1, 3)):
        w = gaze_window(saccade_battery_script(), noise=noise, seed=seed)
        c = counts(classify_gaze_batch([w])[0])
        assert c == {"fixation": 10, "saccade": 9, "pursuit": 0, "pso": 0}, (noise, seed)


def test_pursuit_single_event():
    w = gaze_window(pursuit_script(), noise=0.1, seed=2)
    c = counts(classify_gaze_batch([w])[0])
    assert c["pursuit"] == 1
    assert c["fixation"] == 2


def test_pso_detected_after_saccade():
    script = [
        GazeEvent("fixation", 0.0, 10.0, x_deg=0.0, y_deg=0.0),
        GazeEvent("saccade", 10.0, 0.040, amplitude_deg=8.0, direction_deg=0.0),
        GazeEvent("pso", 10.04, 0.076, direction_deg=0.0),
        GazeEvent("fixation", 10.116, 19.884),
    ]
    c = counts(classify_gaze_batch([gaze_window(script)])[0])
    assert c["saccade"] == 1 and c["pso"] == 1


def test_gaze_features_from_battery():
    w = gaze_window(saccade_battery_script())
    ev = classify_gaze_batch([w])[0]
    f = gaze_features(ev, w)
    assert f["saccade_freq_hz"] == pytest.approx(0.3)
    assert f["fixation_freq_hz"] == pytest.approx(10 / 30)
    assert f["pursuit_freq_hz"] == 0.0  # count feature present at 0
    assert 6.5 <= f["saccade_amp_mean_deg"] <= 8.5
    assert f["fixation_duration_ms"] > 2000
    assert f["pupil_diameter_mm"] == pytest.approx(4.5, abs=0.2)


def test_gaze_constant_diameter_mean():
    w = gaze_window([GazeEvent("fixation", 0.0, 30.0, x_deg=0.0, y_deg=0.0)])
    vals = np.asarray(w.values).copy()
    vals[:, 2] = 4.5
    w2 = Window("gaze", w.t_start_ns, w.t_end_ns, w.times_ns, vals, w.fs_hz)
    f = gaze_features(classify_gaze_batch([w2])[0], w2)
    assert f["pupil_diameter_mm"] == 4.5


def test_gaze_invalid_gap_bridged():
    w = gaze_window([GazeEvent("fixation", 0.0, 30.0, x_deg=0.0, y_deg=0.0)])
    vals = np.asarray(w.values).copy()
    vals[1200:1210, 2] = 0.0  # 83 ms blink gap
    w2 = Window("gaze", w.t_start_ns, w.t_end_ns, w.times_ns, vals, w.fs_hz)
    c = counts(classify_gaze_batch([w2])[0])
    assert c["fixation"] == 1  # bridged, event not split


def test_gaze_long_gap_splits_events():
    w = gaze_window([GazeEvent("fixation", 0.0, 30.0, x_deg=0.0, y_deg=0.0)])
    vals = np.asarray(w.values).copy()
    vals[1200:1260, 2] = 0.0  # 500 ms gap
    w2 = Window("gaze", w.t_start_ns, w.t_end_ns, w.times_ns, vals, w.fs_hz)
    c = counts(classify_gaze_batch([w2])[0])
    assert c["fixation"] == 2


def fixation_windows(gap_lo, gap_hi, offset):
    """Two 30 s windows 1 s apart over one fixation stream, cut as one batch;
    samples [gap_lo, gap_hi) of the second window are invalid, and offset is
    where that window starts in the first."""
    wf = gen_gaze([GazeEvent("fixation", 0.0, 31.0, x_deg=0.0, y_deg=0.0)])
    values = np.asarray(wf.values).copy()
    values[offset + gap_lo:offset + gap_hi, 2] = 0.0
    windows = make_windows(wf.times_ns(), values, "gaze", wf.fs_hz, len_s=30, stride_s=1,
                           end_ns=wf.end_ns)
    assert len(windows) == 2 and windows[1].times_ns[0] == windows[0].times_ns[offset]
    return windows


@pytest.mark.parametrize("gap", [(0, 10), (1, 11), (3590, 3600), (3589, 3599)])
def test_a_gap_at_a_window_edge_is_not_bridged(gap):
    """A 10-sample (83 ms) gap that holds a window's first or last sample splits
    off the samples it covers, in that window and in any batch; the same gap one
    sample further in is bridged. In the batch, the first window holds the gap
    strictly inside and bridges it either way."""
    lo, hi = gap
    first, second = fixation_windows(lo, hi, offset=120)
    t, period = second.times_ns, round(NS_PER_S / second.fs_hz)
    start = int(t[hi]) if lo == 0 else int(t[0])
    end = int(t[lo - 1]) + period if hi == len(t) else int(t[-1]) + period
    for events in (classify_gaze_batch([second])[0], classify_gaze_batch([first, second])[1]):
        assert [(e.kind, e.start_ns, e.end_ns) for e in events] == [("fixation", start, end)]
    (whole,) = classify_gaze_batch([first, second])[0]
    assert (whole.start_ns, whole.end_ns) == (int(first.times_ns[0]),
                                              int(first.times_ns[-1]) + period)


def test_gaze_too_many_invalid_samples():
    w = gaze_window([GazeEvent("fixation", 0.0, 30.0, x_deg=0.0, y_deg=0.0)])
    vals = np.asarray(w.values).copy()
    vals[: int(0.4 * len(vals)), 2] = 0.0
    w2 = Window("gaze", w.t_start_ns, w.t_end_ns, w.times_ns, vals, w.fs_hz)
    assert classify_gaze_batch([w2]) == [None]


edge_floats = (st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                  1e308, -1e308, 1.7976931348623157e308]))


@given(st.integers(2, 40).flatmap(
    lambda n: st.tuples(st.lists(edge_floats, min_size=n, max_size=n),
                        st.lists(edge_floats, min_size=n, max_size=n))))
def test_trapezoid_equals_numpy_bit_for_bit(yx):
    y, x = (np.array(v, dtype=float) for v in yx)
    with np.errstate(all="ignore"):
        got, want = _trapezoid(y, x), np.trapezoid(y, x)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
