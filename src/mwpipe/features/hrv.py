"""Heart-rate-variability statistics over beat interval series.

Conventions (fixed and tested against a brute-force oracle):
population (/N) statistics everywhere; pNNx uses strict >; the triangular
index uses 7.8125 ms histogram bins anchored at 0; SD2 is clamped at 0
before the square root and the SD1/SD2 ratio is absent when SD2 is 0.

Feature availability by interval count n:
n >= 1: rr_mean/min/max; n >= 2: rr_std, tri_index; n >= 3: the
successive-difference family (rmssd, sdsd, pnnx, sd1, sd2, sdell).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import welch

from .beats import BeatSeries
from .windowing import stacks

TRI_BIN_MS = 7.8125  # 1/128 s, the conventional HRV histogram bin

# Spectral bands in Hz. VLF over a 30 s window is mathematically degraded
# (period longer than the window) but is computed because it is part of the
# fixed catalog; treat it as a qualitative indicator only.
VLF_BAND = (0.003, 0.04)
LF_BAND = (0.04, 0.15)
HF_BAND = (0.15, 0.4)

TACHOGRAM_GRID_HZ = 4.0
MAX_SEGMENT_S = 30.0  # Welch segments never exceed the analysis window


def hrv_stat_features(beats: BeatSeries) -> dict:
    """Time-domain and Poincare statistics; keys absent when undefined."""
    iv = np.asarray(beats.intervals_ms, dtype=float)
    n = len(iv)
    out: dict[str, float] = {}
    if n == 0:
        return out
    out["rr_mean_ms"] = float(np.mean(iv))
    out["rr_min_ms"] = float(np.min(iv))
    out["rr_max_ms"] = float(np.max(iv))
    if n < 2:
        return out
    out["rr_std_ms"] = float(np.sqrt(np.mean((iv - np.mean(iv)) ** 2)))
    bins = np.floor(iv / TRI_BIN_MS).astype(np.int64)
    _, counts = np.unique(bins, return_counts=True)
    out["tri_index"] = float(n / counts.max())
    if n < 3:
        return out
    d = np.diff(iv)
    rmssd = float(np.sqrt(np.mean(d * d)))
    out["rmssd_ms"] = rmssd
    out["sdsd_ms"] = float(np.sqrt(np.mean((d - np.mean(d)) ** 2)))
    m = len(d)
    out["pnn10"] = float(100.0 * np.sum(np.abs(d) > 10.0) / m)
    out["pnn25"] = float(100.0 * np.sum(np.abs(d) > 25.0) / m)
    out["pnn50"] = float(100.0 * np.sum(np.abs(d) > 50.0) / m)
    sd1 = rmssd / math.sqrt(2.0)
    sd2 = math.sqrt(max(0.0, 2.0 * out["rr_std_ms"] ** 2 - 0.5 * rmssd ** 2))
    out["sd1_ms"] = sd1
    out["sd2_ms"] = sd2
    if sd2 > 0.0:
        out["sd1_sd2"] = sd1 / sd2
    out["sdell_ms2"] = math.pi * sd1 * sd2
    return out


def band_powers(x: np.ndarray, fs: float, nperseg: int, bands) -> np.ndarray:
    """Power of each row of x (its last axis) in each [lo, hi) band, in x's units squared.

    Welch: Hann-windowed segments of nperseg samples overlapping by half,
    each mean-removed, averaged into a density-scaled periodogram whose
    bins in a band are summed and multiplied by the bin width.
    """
    freqs, psd = welch(x, fs=fs, window="hann", nperseg=nperseg, noverlap=nperseg // 2,
                       detrend="constant", scaling="density")
    df = freqs[1] - freqs[0] if len(freqs) > 1 else 0.0
    # welch's stack is strided: a C-order copy sums each row's bins as one window's are
    return np.stack([np.sum(np.ascontiguousarray(psd[..., (freqs >= lo) & (freqs < hi)]),
                            axis=-1) * df for lo, hi in bands], axis=-1)


def hrv_frequency_batch(beats: list[BeatSeries]) -> list[dict]:
    """VLF/LF/HF band powers, in ms^2, of each beat series' tachogram on a 4 Hz
    grid ([beats] for one), with one Welch call per stack of equal grid length."""
    out, keyed = [{} for _ in beats], []
    for i, b in enumerate(beats):
        times_s, iv_ms = b.tachogram()
        if len(iv_ms) < 3 or len(b.beat_times_ns) < 4 or times_s[-1] - times_s[0] < 10.0:
            continue
        grid = np.arange(times_s[0], times_s[-1] + 1e-12, 1.0 / TACHOGRAM_GRID_HZ)
        keyed.append((i, len(grid), np.interp(grid, times_s, iv_ms)))
    for n, idx, grids in stacks(keyed):
        nperseg = min(n, int(MAX_SEGMENT_S * TACHOGRAM_GRID_HZ))
        powers = band_powers(grids, TACHOGRAM_GRID_HZ, nperseg, (VLF_BAND, LF_BAND, HF_BAND))
        for i, (vlf, lf, hf) in zip(idx, powers.tolist()):
            out[i] = {"vlf_power_ms2": vlf, "lf_power_ms2": lf, "hf_power_ms2": hf,
                      "total_power_ms2": vlf + lf + hf}
    return out
