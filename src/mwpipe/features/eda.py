"""Electrodermal tonic/phasic decomposition and derived statistics.

Tonic is an 8 s centered moving median (edge-extended); phasic is the exact
remainder, so tonic + phasic reconstructs the input to machine precision.
A peak starts where the phasic slope exceeds 0.01 uS/s, peaks at the next
local maximum (amplitude >= 0.01 uS above onset), and ends at the first
return to half-amplitude. Onset/peak/duration are found on the phasic
trace; the reported amplitude is the input's rise from onset to peak, which
is insensitive to the tonic-median leakage under slow-moving tonic.

eda_decompose_batch takes the running median once over the buffer a batch's
windows were cut from; only each window's first and last half-width of
tonic samples, whose medians take in its edge-extended ends, are computed per
window. Each tonic is the one the window gives on its own, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..bus import NS_PER_S
from .windowing import Window, buffers

TONIC_MEDIAN_S = 8.0
ONSET_SLOPE_US_S = 0.01
MIN_PEAK_AMP_US = 0.01


@dataclass
class EdaPeak:
    onset_ns: int
    peak_ns: int
    amplitude_uS: float
    duration_s: float
    slope_uS_per_s: float


@dataclass
class EDADecomposition:
    tonic: np.ndarray
    phasic: np.ndarray
    peaks: list
    times_ns: np.ndarray
    t_start_ns: int
    t_end_ns: int


def eda_decompose_batch(windows: list[Window]) -> list:
    """The decomposition of each of one stream's windows, in order; None for a
    window shorter than TONIC_MEDIAN_S."""
    out = []
    for run, _, values, spans in buffers(windows):
        x = np.asarray(values, dtype=float)
        fs = run[0].fs_hz
        k = int(TONIC_MEDIAN_S * fs)
        if k % 2 == 0:
            k += 1
        half = k // 2
        found = [None] * len(run)
        long_enough = [i for i, (lo, hi) in enumerate(spans) if (hi - lo) / fs >= TONIC_MEDIAN_S]
        if long_enough:
            # A window's tonic is the buffer's running median but for its first
            # and last half samples, whose medians take in its edge-extended ends.
            inner = np.median(sliding_window_view(x, k), axis=1) if len(x) >= k else x[:0]
            lo, hi = np.array([spans[i] for i in long_enough]).T
            ends = np.concatenate((lo[:, None] + np.maximum(np.arange(-half, 2 * half), 0),
                                   hi[:, None] - 1 + np.minimum(np.arange(1 - 2 * half, half + 1), 0)))
            heads, tails = np.split(np.median(sliding_window_view(x[ends], k, axis=1), axis=-1), 2)
            for i, head, tail in zip(long_enough, heads, tails):
                (lo, hi), w = spans[i], run[i]
                tonic = np.concatenate((head, inner[lo:hi - 2 * half], tail))
                phasic = x[lo:hi] - tonic
                peaks = _find_peaks(phasic, x[lo:hi], w.times_ns, fs)
                found[i] = EDADecomposition(tonic, phasic, peaks, w.times_ns,
                                            w.t_start_ns, w.t_end_ns)
        out += found
    return out


def _find_peaks(phasic: np.ndarray, raw: np.ndarray, times_ns: np.ndarray, fs: float) -> list:
    n = len(phasic)
    slope = np.diff(phasic) * fs
    peaks = []
    i = 0
    while i < n - 1:
        if slope[i] <= ONSET_SLOPE_US_S:
            i += 1
            continue
        onset = i
        j = onset
        while j + 1 < n and phasic[j + 1] >= phasic[j]:
            j += 1
        phasic_amp = phasic[j] - phasic[onset]
        if phasic_amp >= MIN_PEAK_AMP_US and j > onset:
            amp = raw[j] - raw[onset]
            half_level = phasic[onset] + phasic_amp / 2.0
            k = j
            while k + 1 < n and phasic[k + 1] > half_level:
                k += 1
            end = min(k + 1, n - 1)
            duration = (times_ns[end] - times_ns[onset]) / NS_PER_S
            rise_s = (times_ns[j] - times_ns[onset]) / NS_PER_S
            peaks.append(EdaPeak(int(times_ns[onset]), int(times_ns[j]), float(amp),
                                 float(duration), float(amp / rise_s)))
            i = end
        else:
            i = j + 1
    return peaks


def _window_trapezoid(times_ns: np.ndarray, vals: np.ndarray,
                      t_start_ns: int, t_end_ns: int) -> float:
    """Trapezoidal integral over the full window span, edge-held at both ends."""
    t = (times_ns - t_start_ns) / NS_PER_S
    span = (t_end_ns - t_start_ns) / NS_PER_S
    t_ext = np.concatenate(([0.0], t, [span]))
    v_ext = np.concatenate(([vals[0]], vals, [vals[-1]]))
    return float(np.trapezoid(v_ext, t_ext))


def eda_features(d: EDADecomposition) -> dict:
    """Tonic/phasic statistics plus the phasic-peak block.

    Peak statistics are absent when no peaks were found; the count itself
    is always present (0 is a value, not missing data).
    """
    out: dict[str, float] = {}
    for name, comp in (("tonic", d.tonic), ("phasic", d.phasic)):
        if len(comp) == 0:
            continue
        out[f"{name}_mean_us"] = float(np.mean(comp))
        out[f"{name}_std_us"] = float(np.sqrt(np.mean((comp - np.mean(comp)) ** 2)))
        out[f"{name}_range_us"] = float(np.ptp(comp))
        out[f"{name}_auc_uss"] = _window_trapezoid(d.times_ns, comp, d.t_start_ns, d.t_end_ns)
    out["peak_quantity"] = float(len(d.peaks))
    if d.peaks:
        amps = np.array([p.amplitude_uS for p in d.peaks])
        out["peak_max_us"] = float(amps.max())
        out["peak_min_us"] = float(amps.min())
        out["peak_mean_us"] = float(amps.mean())
        out["peak_mean_duration_s"] = float(np.mean([p.duration_s for p in d.peaks]))
        out["peak_mean_slope_us_s"] = float(np.mean([p.slope_uS_per_s for p in d.peaks]))
    return out
