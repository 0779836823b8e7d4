import numpy as np
import pytest

from mwpipe.bus import NS_PER_S
from mwpipe.features.eda import eda_decompose_batch, eda_features
from mwpipe.features.respiration import resp_features_batch
from mwpipe.features.skintemp import st_features
from mwpipe.features.windowing import Window
from mwpipe.synth import SynthProfile, gen_drift_st, gen_eda, gen_resp
from oracles import make_windows, trapezoid_oracle


def one_window(wf):
    return make_windows(wf.times_ns(), wf.values, wf.modality, wf.fs_hz,
                        len_s=30, stride_s=30, end_ns=wf.end_ns)[0]


def const_window(modality, value, fs, duration_s=30.0):
    n = int(duration_s * fs)
    times = np.array([round(i * NS_PER_S / fs) for i in range(n)], dtype=np.int64)
    return Window(modality, 0, round(duration_s * NS_PER_S), times,
                  np.full(n, value), fs)


# -- EDA -----------------------------------------------------------------------

def test_eda_constant_input_no_peaks_zero_phasic():
    w = const_window("eda", 0.5, 4.0)
    d = eda_decompose_batch([w])[0]
    assert np.all(d.phasic == 0.0)
    assert d.peaks == []
    f = eda_features(d)
    assert f["peak_quantity"] == 0.0
    assert "peak_mean_us" not in f


def test_eda_three_scrs_recovered():
    p = SynthProfile(eda_tonic_uS=0.5, duration_s=30, eda_noise_uS=0.0,
                     scr_events=[(5.0, 0.05), (13.0, 0.05), (21.0, 0.05)])
    d = eda_decompose_batch([one_window(gen_eda(p))])[0]
    assert len(d.peaks) == 3
    for pk in d.peaks:
        assert abs(pk.amplitude_uS - 0.05) <= 0.01  # within 20%


def test_eda_additivity_exact():
    p = SynthProfile(seed=3, eda_tonic_uS=0.6, duration_s=30, eda_noise_uS=0.01,
                     scr_events=[(4.0, 0.08), (12.0, 0.03)])
    w = one_window(gen_eda(p))
    d = eda_decompose_batch([w])[0]
    assert np.array_equal(d.tonic + d.phasic, np.asarray(w.values))


def test_eda_window_too_short():
    w = const_window("eda", 0.5, 4.0, duration_s=6.0)
    assert eda_decompose_batch([w]) == [None]


def test_eda_tonic_stats_and_auc():
    w = const_window("eda", 0.5, 4.0)
    f = eda_features(eda_decompose_batch([w])[0])
    assert f["tonic_mean_us"] == pytest.approx(0.5)
    assert f["tonic_std_us"] == 0.0
    assert f["tonic_auc_uss"] == pytest.approx(15.0)  # 0.5 uS * 30 s
    assert f["phasic_auc_uss"] == pytest.approx(0.0)


def test_eda_auc_matches_trapezoid_oracle_on_ramp():
    fs = 4.0
    n = 120
    times = np.array([round(i * NS_PER_S / fs) for i in range(n)], dtype=np.int64)
    vals = np.linspace(0.5, 0.6, n)
    w = Window("eda", 0, 30 * NS_PER_S, times, vals, fs)
    f = eda_features(eda_decompose_batch([w])[0])
    # oracle: edge-held trapezoid over the full 30 s span
    ts = [0.0] + list(times / 1e9) + [30.0]
    vs = [vals[0]] + list(vals) + [vals[-1]]
    total = trapezoid_oracle(ts, vs)
    assert f["tonic_auc_uss"] + f["phasic_auc_uss"] == pytest.approx(total, rel=1e-9)


def test_eda_single_scr_peak_stats():
    p = SynthProfile(eda_tonic_uS=0.5, duration_s=30, scr_events=[(10.0, 0.05)])
    f = eda_features(eda_decompose_batch([one_window(gen_eda(p))])[0])
    assert f["peak_quantity"] == 1.0
    assert f["peak_max_us"] == f["peak_mean_us"]
    assert abs(f["peak_mean_us"] - 0.05) <= 0.01
    assert f["peak_mean_duration_s"] > 0
    assert f["peak_mean_slope_us_s"] > 0


# -- skin temperature ------------------------------------------------------------

def test_st_constant_window():
    f = st_features(const_window("st", 31.0, 4.0))
    assert f == {"mean_c": 31.0, "median_c": 31.0, "std_c": 0.0, "max_c": 31.0, "min_c": 31.0}


def test_st_linear_ramp():
    fs = 4.0
    n = 120
    times = np.array([round(i * NS_PER_S / fs) for i in range(n)], dtype=np.int64)
    vals = np.linspace(30.5, 31.5, n)
    f = st_features(Window("st", 0, 30 * NS_PER_S, times, vals, fs))
    assert f["mean_c"] == pytest.approx(31.0)
    assert f["min_c"] == 30.5 and f["max_c"] == 31.5


def test_st_median_lower_middle_for_even_counts():
    times = np.arange(4, dtype=np.int64) * 250_000_000
    f = st_features(Window("st", 0, NS_PER_S, times, np.array([1.0, 2.0, 3.0, 4.0]), 4.0))
    assert f["median_c"] == 2.0


def test_st_default_synth_within_plotted_range():
    wf = gen_drift_st(SynthProfile(seed=8, duration_s=60))
    f = st_features(one_window(wf))
    assert 30.5 <= f["min_c"] and f["max_c"] <= 31.5


# -- respiration --------------------------------------------------------------------

def test_resp_rate_15bpm_within_2():
    f = resp_features_batch([one_window(gen_resp(15.0, duration_s=30))])[0]
    assert abs(f["rate_bpm"] - 15.0) <= 2.0


def test_resp_flat_signal():
    f = resp_features_batch([const_window("resp", 0.0, 1.008)])[0]
    assert f["rate_bpm"] == 0.0
    assert "power_ratio" not in f


def test_resp_slow_breathing_lf_dominant():
    f = resp_features_batch([one_window(gen_resp(6.0, duration_s=30))])[0]  # 0.1 Hz
    assert f["lf_power"] > f["hf_power"]
    assert f["power_ratio"] > 1.0


def test_resp_fast_breathing_hf_dominant():
    f = resp_features_batch([one_window(gen_resp(15.0, duration_s=30))])[0]  # 0.25 Hz
    assert f["hf_power"] > f["lf_power"]
    assert f["power_ratio"] < 1.0
