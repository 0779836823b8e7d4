import numpy as np
import pytest

from mwpipe.features.beats import BeatSeries
from mwpipe.features.hrv import hrv_frequency_batch, hrv_stat_features
from mwpipe.synth import SynthProfile, gen_rr_series
from oracles import hrv_oracle


def beats_from_intervals(intervals_ms):
    times = np.concatenate(([0.0], np.cumsum(intervals_ms)))
    return BeatSeries((times * 1e6).astype(np.int64))


REFERENCE_RR = [780.0, 800.0, 820.0, 810.0, 790.0]

# frozen from the brute-force oracle (tests/oracles.py)
REFERENCE_EXPECTED = {
    "rmssd_ms": 18.027756377319946,
    "rr_std_ms": 14.142135623730951,
    "sd1_ms": 12.74754878398196,
    "sd2_ms": 15.411035007422443,
    "sdell_ms2": 617.1750520351114,
    "sdsd_ms": 17.853571071357123,
    "pnn10": 75.0,
    "pnn25": 0.0,
    "pnn50": 0.0,
    "rr_min_ms": 780.0,
    "rr_max_ms": 820.0,
    "rr_mean_ms": 800.0,
    "tri_index": 5.0,
    "sd1_sd2": 0.8271701918685109,
}


def test_reference_series_matches_frozen_oracle_values():
    got = hrv_stat_features(beats_from_intervals(REFERENCE_RR))
    assert set(got) == set(REFERENCE_EXPECTED)
    for k, v in REFERENCE_EXPECTED.items():
        assert got[k] == pytest.approx(v, abs=1e-9), k


def test_reference_series_matches_live_oracle():
    oracle = hrv_oracle(REFERENCE_RR)
    got = hrv_stat_features(beats_from_intervals(REFERENCE_RR))
    for k, v in oracle.items():
        assert got[k] == pytest.approx(v, rel=1e-12), k


def test_thousand_random_series_match_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(3, 60))
        iv = rng.uniform(300.0, 1500.0, n)
        got = hrv_stat_features(BeatSeries(np.empty(0), intervals_ms=iv))
        oracle = hrv_oracle(list(iv))
        assert set(got) == set(oracle)
        for k, v in oracle.items():
            assert got[k] == pytest.approx(v, rel=1e-9), k


def test_constant_rr_degenerate_values():
    got = hrv_stat_features(beats_from_intervals([800.0] * 20))
    assert got["rmssd_ms"] == 0.0
    assert got["sdsd_ms"] == 0.0
    assert got["rr_std_ms"] == 0.0
    assert got["pnn10"] == got["pnn25"] == got["pnn50"] == 0.0
    assert got["sd2_ms"] == 0.0
    assert "sd1_sd2" not in got  # ratio absent when SD2 = 0
    assert got["sdell_ms2"] == 0.0


def test_single_interval_only_mean_min_max():
    got = hrv_stat_features(BeatSeries(np.empty(0), intervals_ms=[800.0]))
    assert set(got) == {"rr_mean_ms", "rr_min_ms", "rr_max_ms"}


def test_empty_series_no_features():
    assert hrv_stat_features(BeatSeries(np.empty(0), intervals_ms=[])) == {}


def test_pnnx_strict_inequality():
    # differences of exactly 10 ms must not count toward pNN10
    got = hrv_stat_features(BeatSeries(np.empty(0), intervals_ms=[800.0, 810.0, 820.0, 830.0]))
    assert got["pnn10"] == 0.0


def test_tri_index_bin_anchoring():
    # 7.8125 ms bins anchored at 0: 780->99, 790->101, 800->102, 810->103, 820->104
    got = hrv_stat_features(BeatSeries(np.empty(0), intervals_ms=REFERENCE_RR))
    assert got["tri_index"] == 5.0
    clustered = [782.0, 783.0, 784.0, 900.0]  # three in bin 100 -> 4/3
    got2 = hrv_stat_features(BeatSeries(np.empty(0), intervals_ms=clustered))
    assert got2["tri_index"] == pytest.approx(4.0 / 3.0)


# -- frequency domain ---------------------------------------------------------


def beats_from_profile(seed, hz, depth, duration=30):
    p = SynthProfile(seed=seed, duration_s=duration, rr_mean_ms=800,
                     rr_sdnn_ms=0, hf_mod_hz=hz, hf_mod_depth_ms=depth)
    rr = gen_rr_series(p)
    return BeatSeries((rr.beat_times_s() * 1e9).astype(np.int64))


@pytest.mark.parametrize("seed", range(5))
def test_hf_modulation_lands_in_hf_band(seed):
    f = hrv_frequency_batch([beats_from_profile(seed, 0.25, 20.0)])[0]
    assert f["hf_power_ms2"] / f["total_power_ms2"] > 0.8


@pytest.mark.parametrize("seed", range(5))
def test_lf_modulation_lands_in_lf_band(seed):
    f = hrv_frequency_batch([beats_from_profile(seed, 0.10, 20.0)])[0]
    assert f["lf_power_ms2"] > f["hf_power_ms2"]


def test_constant_rr_spectrum_is_empty():
    f = hrv_frequency_batch([beats_from_profile(0, 0.25, 0.0)])[0]
    for v in f.values():
        assert v < 1e-9


def test_too_few_beats_gives_no_features():
    assert hrv_frequency_batch([beats_from_intervals([800.0, 810.0])])[0] == {}
    # 4 beats but spanning < 10 s
    assert hrv_frequency_batch([beats_from_intervals([500.0, 500.0, 500.0])])[0] == {}


def test_total_is_band_sum():
    f = hrv_frequency_batch([beats_from_profile(3, 0.25, 15.0)])[0]
    assert f["total_power_ms2"] == pytest.approx(
        f["vlf_power_ms2"] + f["lf_power_ms2"] + f["hf_power_ms2"]
    )
