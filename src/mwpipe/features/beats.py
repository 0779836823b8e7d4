"""Beat detection for cardiac windows.

ECG: 5-25 Hz zero-phase band-pass, squared derivative, adaptive threshold at
half the rolling maximum, 250 ms refractory, then R snap to the band-passed
peak. PPG: 0.5-8 Hz band-pass, local maxima above the same half-rolling-max
threshold with the same refractory. Intervals outside (200, 3000) ms are
discarded; fewer than two beats yields an empty interval list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import maximum_filter1d
from scipy.signal import butter, sosfilt, sosfilt_zi

from ..bus import NS_PER_S
from .windowing import Window, stacks

REFRACTORY_S = 0.25
ROLLMAX_S = 2.0
INTERVAL_MIN_MS = 200.0
INTERVAL_MAX_MS = 3000.0
BANDS = {"ecg": (5.0, 25.0), "ppg": (0.5, 8.0)}  # band-pass edges, Hz


@dataclass
class BeatSeries:
    """Detected beat times plus physiologically valid successive intervals."""

    beat_times_ns: np.ndarray
    intervals_ms: np.ndarray = field(default=None)

    def __post_init__(self):
        self.beat_times_ns = np.asarray(self.beat_times_ns, dtype=np.int64)
        if self.intervals_ms is None:
            self.intervals_ms = self.tachogram()[1]
        else:
            self.intervals_ms = np.asarray(self.intervals_ms, dtype=float)

    def tachogram(self):
        """(time_s of each interval's closing beat, interval_ms), valid only."""
        raw = np.diff(self.beat_times_ns) / 1e6
        ok = (raw > INTERVAL_MIN_MS) & (raw < INTERVAL_MAX_MS)
        times_s = (self.beat_times_ns[1:][ok] - (self.beat_times_ns[0] if len(self.beat_times_ns) else 0)) / NS_PER_S
        return np.asarray(times_s, dtype=float), raw[ok]


@lru_cache(maxsize=8)
def _bandpass(lo: float, hi: float, fs: float):
    """The band-pass sections, their sosfilt_zi and the odd-extension length
    sosfiltfilt uses for them by default."""
    sos = butter(2, [lo, hi], btype="bandpass", fs=fs, output="sos")
    ntaps = 2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    return sos, sosfilt_zi(sos), 3 * int(ntaps)


def _filtfilt(x: np.ndarray, lo: float, hi: float, fs: float) -> np.ndarray:
    """sosfiltfilt(sos, x) of the band along x's last axis, bit for bit: the same odd
    extension and the same two sosfilt passes, with zi and the pad length computed
    once per band. x must be longer than the pad, as sosfiltfilt requires."""
    sos, zi, edge = _bandpass(lo, hi, fs)
    zi = zi.reshape(len(zi), *(1,) * (x.ndim - 1), 2)  # broadcast over the rows, as sosfiltfilt's
    ext = np.concatenate((2 * x[..., :1] - x[..., edge:0:-1], x,
                          2 * x[..., -1:] - x[..., -2:-(edge + 2):-1]), axis=-1)
    y, _ = sosfilt(sos, ext, zi=zi * ext[..., :1])
    y, _ = sosfilt(sos, y[..., ::-1], zi=zi * y[..., -1:])
    return y[..., ::-1][..., edge:-edge]


def _local_maxima(x: np.ndarray) -> np.ndarray:
    if len(x) < 3:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero((x[1:-1] >= x[:-2]) & (x[1:-1] > x[2:])) + 1


def _peaks_above_half_rollmax(x: np.ndarray, fs: float) -> np.ndarray:
    """Local maxima of x above half its rolling maximum over ROLLMAX_S."""
    size = max(3, int(ROLLMAX_S * fs) | 1)
    thr = 0.5 * maximum_filter1d(x, size=size, mode="nearest")
    idx = _local_maxima(x)
    return idx[x[idx] > thr[idx]]


def _argmax_near(x: np.ndarray, idx: np.ndarray, half: int) -> np.ndarray:
    """For each of idx, the first index of the maximum of x within half
    samples of it; the -inf padding is never that first maximum."""
    pad = np.full(half, -np.inf)
    padded = np.concatenate((pad, x, pad))
    return idx - half + np.argmax(sliding_window_view(padded, 2 * half + 1)[idx], axis=1)


def _apply_refractory(indices: np.ndarray, fs: float) -> list[int]:
    """Keep the first of the sorted indices, then each next one at least
    REFRACTORY_S after the last kept."""
    # An integer gap clears REFRACTORY_S * fs exactly when it clears its ceiling.
    gap = math.ceil(REFRACTORY_S * fs)
    keep, free = [], -math.inf  # free: the first index the last kept one allows
    for i in indices.tolist():
        if i >= free:
            keep.append(i)
            free = i + gap
    return keep


def _detect_ecg(xf: np.ndarray, fs: float) -> list[int]:
    energy = (np.diff(xf) * fs) ** 2
    cands = np.array(_apply_refractory(_peaks_above_half_rollmax(energy, fs), fs), dtype=np.int64)
    # snap each detection to the R peak of the band-passed signal
    peaks = _argmax_near(xf, cands, int(0.06 * fs))
    return _apply_refractory(np.unique(peaks), fs)


def _detect_ppg(xf: np.ndarray, fs: float) -> list[int]:
    cands = _peaks_above_half_rollmax(xf, fs)
    return _apply_refractory(cands[xf[cands] > 0], fs)


def detect_beats_batch(windows: list[Window]) -> list[BeatSeries]:
    """The beats of each cardiac window ([window] for one), with one band-pass per
    stack of equal sample count; a flatline window, or one no longer than its
    band-pass's pad, yields none. No window's beats depend on the others."""
    beats, keyed = [None] * len(windows), []
    for i, w in enumerate(windows):
        if w.modality not in BANDS:
            raise ValueError(f"detect_beats_batch expects ecg or ppg, got {w.modality!r}")
        x = np.asarray(w.values, dtype=float)
        if len(x) > _bandpass(*BANDS[w.modality], w.fs_hz)[2] and np.ptp(x) != 0.0:
            keyed.append((i, (w.modality, w.fs_hz, len(x)), x))
    for (modality, fs, _), idx, x in stacks(keyed):
        detect = _detect_ecg if modality == "ecg" else _detect_ppg
        for i, xf in zip(idx, _filtfilt(x, *BANDS[modality], fs)):
            beats[i] = BeatSeries(windows[i].times_ns[detect(xf, fs)])
    return [b if b is not None else BeatSeries(np.empty(0, dtype=np.int64)) for b in beats]
