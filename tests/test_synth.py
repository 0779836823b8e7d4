import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mwpipe.bus import NS_PER_S
from mwpipe.features import BIO_TOPICS
from oracles import pursuit_script, saccade_battery_script, sample_time_ns

from mwpipe.errors import (
    EmptySeries,
    InvalidProfile,
    OverlapTooDense,
    OverlappingEvents,
)
from mwpipe.synth import (
    GazeEvent,
    RRSeries,
    SynthProfile,
    Waveform,
    gen_drift_st,
    gen_eda,
    gen_gaze,
    gen_resp,
    gen_rr_series,
    render_cardiac,
)


# -- RR series ----------------------------------------------------------------

def test_rr_degenerate_noise_is_exact():
    p = SynthProfile(seed=1, duration_s=10, rr_mean_ms=800, rr_sdnn_ms=0, hf_mod_depth_ms=0)
    rr = gen_rr_series(p)
    assert np.all(rr.intervals_ms == 800.0)
    assert rr.span_s >= 10


def test_rr_deterministic_per_seed():
    p = SynthProfile(seed=42, duration_s=60, rr_sdnn_ms=50)
    a = gen_rr_series(p)
    b = gen_rr_series(p)
    assert np.array_equal(a.intervals_ms, b.intervals_ms)
    c = gen_rr_series(SynthProfile(seed=43, duration_s=60, rr_sdnn_ms=50))
    assert not np.array_equal(a.intervals_ms, c.intervals_ms)


def test_rr_sample_mean_within_standard_error():
    p = SynthProfile(seed=7, duration_s=600, rr_mean_ms=800, rr_sdnn_ms=50, hf_mod_depth_ms=0)
    rr = gen_rr_series(p)
    n = len(rr.intervals_ms)
    bound = 3 * 50 / math.sqrt(n)
    assert abs(float(np.mean(rr.intervals_ms)) - 800.0) < bound


def test_rr_invalid_profile():
    with pytest.raises(InvalidProfile):
        gen_rr_series(SynthProfile(duration_s=-1))
    with pytest.raises(InvalidProfile):
        gen_rr_series(SynthProfile(rr_mean_ms=0))


def test_rr_intervals_within_physiological_bounds():
    p = SynthProfile(seed=3, duration_s=300, rr_mean_ms=300, rr_sdnn_ms=400)
    rr = gen_rr_series(p)
    assert np.all(rr.intervals_ms > 200) and np.all(rr.intervals_ms < 3000)


# -- cardiac rendering ----------------------------------------------------------

def test_ecg_single_beat_qrs_at_beat_time():
    rr = RRSeries(np.array([800.0]))
    wf = render_cardiac(rr, "ecg")
    t = np.arange(wf.n) / wf.fs_hz
    peak_t = t[int(np.argmax(wf.values))]
    assert abs(peak_t - 0.0) <= 0.004
    assert len(wf.truth["beat_times_ns"]) == 1


def test_ecg_amplitude_bounds():
    p = SynthProfile(seed=5, duration_s=60, rr_sdnn_ms=40)
    wf = render_cardiac(gen_rr_series(p), "ecg")
    assert wf.values.max() <= 1.5
    assert wf.values.min() >= -0.5


def test_ecg_sampling_rate():
    rr = RRSeries(np.full(10, 1000.0))
    wf = render_cardiac(rr, "ecg")
    assert wf.fs_hz == 252.0
    assert wf.n == int(10.0 * 252)


def test_ppg_systolic_peak_count():
    p = SynthProfile(seed=2, duration_s=30, rr_mean_ms=1000, rr_sdnn_ms=0, hf_mod_depth_ms=0)
    rr = gen_rr_series(p)
    wf = render_cardiac(rr, "ppg")
    x = wf.values
    # count prominent maxima: above half the signal range
    thresh = x.min() + 0.5 * (x.max() - x.min())
    peaks = [i for i in range(1, len(x) - 1) if x[i] > thresh and x[i] >= x[i - 1] and x[i] > x[i + 1]]
    assert len(peaks) == 30
    assert len(wf.truth["beat_times_ns"]) == 30


def test_ppg_range_within_plot_axis():
    p = SynthProfile(seed=2, duration_s=30)
    wf = render_cardiac(gen_rr_series(p), "ppg")
    assert wf.values.max() <= 100 and wf.values.min() >= -100


def test_render_empty_series_raises():
    with pytest.raises(EmptySeries):
        render_cardiac(RRSeries(np.array([])), "ecg")


# -- respiration ------------------------------------------------------------------

def test_resp_fundamental_frequency():
    wf = gen_resp(15.0, fs_hz=10.0, duration_s=60)
    x = wf.values
    spec = np.abs(np.fft.rfft(x - x.mean()))
    freqs = np.fft.rfftfreq(len(x), 1 / 10.0)
    assert abs(freqs[int(np.argmax(spec))] - 0.25) < 0.02


def test_resp_default_rate_is_sensor_native():
    wf = gen_resp(15.0, duration_s=30)
    assert wf.fs_hz == 1.008
    assert wf.n == 30  # int(30 * 1.008) = 30 samples


def test_resp_cycles_in_30s():
    # 15 bpm over 30 s covers 7.5 cycles
    wf = gen_resp(15.0, fs_hz=100.0, duration_s=30)
    x = wf.values
    crossings = np.sum((x[:-1] < 0) & (x[1:] >= 0))
    assert crossings in (7, 8)


def test_resp_invalid_rate():
    with pytest.raises(InvalidProfile, match=r"resp_rate_bpm must be in \(4, 60\): 3.0"):
        gen_resp(3.0)
    with pytest.raises(InvalidProfile, match=r"resp_rate_bpm must be in \(4, 60\): 75.0"):
        gen_resp(75.0)


# -- electrodermal -----------------------------------------------------------------

def test_eda_constant_without_events():
    p = SynthProfile(eda_tonic_uS=0.5, scr_events=[], eda_noise_uS=0.0, duration_s=30)
    wf = gen_eda(p)
    assert np.allclose(wf.values, 0.5)
    assert wf.fs_hz == 4.0


def test_eda_three_events_three_maxima():
    p = SynthProfile(eda_tonic_uS=0.5, duration_s=30, eda_noise_uS=0.0,
                     scr_events=[(5.0, 0.05), (13.0, 0.05), (21.0, 0.05)])
    wf = gen_eda(p)
    x = wf.values
    above = x > 0.5 + 0.02
    runs = np.sum(np.diff(above.astype(int)) == 1)
    assert runs == 3


def test_eda_amplitude_scale_matches_plot_axis():
    # small-amplitude profile stays within the 0.55..0.58 uS plotted band
    p = SynthProfile(eda_tonic_uS=0.555, duration_s=30, eda_noise_uS=0.0,
                     scr_events=[(10.0, 0.02)])
    wf = gen_eda(p)
    assert wf.values.min() >= 0.55 and wf.values.max() <= 0.58


def test_eda_overlap_too_dense():
    p = SynthProfile(scr_events=[(5.0, 0.05), (5.5, 0.05)])
    with pytest.raises(OverlapTooDense):
        gen_eda(p)


# -- skin temperature ----------------------------------------------------------------

def test_st_constant():
    p = SynthProfile(st_base_c=31.0, st_drift_c_per_min=0.0, st_noise_c=0.0, duration_s=30)
    wf = gen_drift_st(p)
    assert np.all(wf.values == 31.0)


def test_st_drift_ramp():
    p = SynthProfile(st_base_c=31.0, st_drift_c_per_min=0.5, st_noise_c=0.0, duration_s=120)
    wf = gen_drift_st(p)
    ramp = wf.values[-1] - wf.values[0]
    expected = 0.5 / 60.0 * (wf.n - 1) / 4.0
    assert abs(ramp - expected) < 1e-9
    assert abs(ramp - 1.0) < 0.01


def test_st_default_within_plot_axis():
    p = SynthProfile(seed=9, duration_s=60)
    wf = gen_drift_st(p)
    assert wf.values.min() >= 30.5 and wf.values.max() <= 31.5


def test_st_invalid_base():
    with pytest.raises(InvalidProfile, match=r"st_base_c outside \[25, 40\]: 20.0"):
        gen_drift_st(SynthProfile(st_base_c=20.0))


# -- gaze ------------------------------------------------------------------------------

def central_speed(wf):
    x = wf.values[:, 0]
    y = wf.values[:, 1]
    dt = 1.0 / wf.fs_hz
    vx = np.gradient(x, dt)
    vy = np.gradient(y, dt)
    return np.hypot(vx, vy)


def test_fixation_speed_stays_slow():
    script = [GazeEvent("fixation", 0.0, 30.0, x_deg=0.0, y_deg=0.0)]
    wf = gen_gaze(script, seed=11)
    assert central_speed(wf).max() < 5.0


def test_saccade_peak_velocity():
    # minimum-jerk peak velocity is 1.875*A/T = 375 deg/s for 8 deg in 40 ms
    script = [
        GazeEvent("fixation", 0.0, 1.0, x_deg=0.0, y_deg=0.0),
        GazeEvent("saccade", 1.0, 0.040, amplitude_deg=8.0, direction_deg=0.0),
        GazeEvent("fixation", 1.04, 1.0),
    ]
    wf = gen_gaze(script, seed=0, fixation_noise_deg=0.0)
    assert central_speed(wf).max() > 100.0


def test_gaze_sampling_rate_and_count():
    script = [GazeEvent("fixation", 0.0, 30.0, x_deg=0.0, y_deg=0.0)]
    wf = gen_gaze(script)
    assert wf.fs_hz == 120.0
    assert wf.n == 3600


def test_gaze_overlapping_events_rejected():
    script = [
        GazeEvent("fixation", 0.0, 2.0, x_deg=0.0, y_deg=0.0),
        GazeEvent("saccade", 1.5, 0.04, amplitude_deg=8.0),
    ]
    with pytest.raises(OverlappingEvents):
        gen_gaze(script)


def test_gaze_positions_bounded():
    script = [
        GazeEvent("fixation", 0.0, 1.0, x_deg=55.0, y_deg=0.0),
        GazeEvent("saccade", 1.0, 0.04, amplitude_deg=20.0, direction_deg=0.0),
        GazeEvent("fixation", 1.04, 1.0),
    ]
    with pytest.raises(InvalidProfile):
        gen_gaze(script)


def test_script_builders_cover_duration():
    script = saccade_battery_script()
    assert script[-1].end_s == pytest.approx(30.0)
    assert sum(1 for e in script if e.kind == "saccade") == 9
    assert sum(1 for e in script if e.kind == "fixation") == 10
    ps = pursuit_script()
    assert ps[-1].end_s == pytest.approx(30.0)


def test_gaze_determinism():
    script = saccade_battery_script()
    a = gen_gaze(script, seed=5)
    b = gen_gaze(script, seed=5)
    assert np.array_equal(a.values, b.values)


# -- spacing invariant across generators ----------------------------------------------

@pytest.mark.parametrize("fs", [252.0, 64.0, 4.0, 1.008, 120.0])
def test_sample_spacing_within_ns_rounding(fs):
    times = [sample_time_ns(0, i, fs) for i in range(1000)]
    period = 1e9 / fs
    for a, b in zip(times, times[1:]):
        assert abs((b - a) - period) <= 1.0


# -- sample times ----------------------------------------------------------------

DEFAULT_CONFIG = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "default.json").read_text())
# Phase lengths of the pinned benchmark plan (120 s baseline and runs, 60 s
# gaps) and of configs/default.json.
PHASE_S = sorted({120.0, 60.0, *(DEFAULT_CONFIG[k]
                                 for k in ("baseline_s", "interrun_s", "run_timeout_s"))})


def loop_times(t0_ns, n, fs_hz):
    return [sample_time_ns(t0_ns, i, fs_hz) for i in range(n)]


@pytest.mark.parametrize("modality", BIO_TOPICS)
def test_times_ns_equals_the_per_index_loop(modality):
    fs = BIO_TOPICS[modality].rate_hz
    for duration_s in PHASE_S:
        # cardiac waveforms run on to a whole beat past the phase: 2 s more
        n = int(duration_s * fs + 1e-9) + int(2 * fs) + 1
        for t0 in (0, 120 * NS_PER_S + 7):
            wf = Waveform(modality, fs, np.zeros(n), t0)
            assert wf.times_ns().tolist() == loop_times(t0, n, fs)


@given(t0=st.integers(-2**60, 2**60), n=st.integers(0, 3000),
       fs=st.sampled_from([t.rate_hz for t in BIO_TOPICS.values()])
       | st.floats(0.01, 1e6, allow_nan=False))
@example(t0=-3, n=8, fs=640_000.0)  # 1562.5 ns per sample: ties round to even
def test_times_ns_property(t0, n, fs):
    wf = Waveform("ecg", fs, np.zeros(n), t0)
    times = wf.times_ns()
    assert times.dtype == np.int64
    assert times.tolist() == loop_times(t0, n, fs)
