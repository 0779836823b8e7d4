"""Pulse-wave morphology features from a PPG window plus its beats.

Per beat: the foot is the minimum preceding the systolic peak, digital pulse
amplitude is peak minus foot, the dicrotic notch is the first local minimum
of the first derivative after the systolic peak, and the diastolic peak is
the first local maximum of the signal after the notch. Beats without a
usable notch contribute no reflection-index or IPA terms.

svri is the window mean pulse amplitude over the session-baseline mean
pulse amplitude (1.0 until a baseline phase has completed).
"""

from __future__ import annotations

import numpy as np

from ..bus import NS_PER_S
from .beats import BeatSeries, _local_maxima
from .windowing import Window


def _first_in(indices: np.ndarray, lo: int, hi: int) -> int | None:
    """The first of the sorted indices in [lo, hi), or None."""
    j = np.searchsorted(indices, lo)
    return int(indices[j]) if j < len(indices) and indices[j] < hi else None


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """np.trapezoid(y, x) for 1-D float arrays, by the expression NumPy
    evaluates, without its per-call argument handling."""
    d = x[1:] - x[:-1]
    return float((d * (y[1:] + y[:-1]) / 2.0).sum())


def _beat_terms(x: np.ndarray, times: np.ndarray, lo: int, p: int, nxt: int | None,
                notches: np.ndarray, maxima: np.ndarray) -> tuple:
    """(pa, ri, auc, ipa) of the beat peaking at p, whose foot is the minimum
    over [lo, p]; nxt is the next beat's peak, or None for the last beat.
    ri, auc and ipa are None where the beat has none."""
    foot = lo + int(np.argmin(x[lo:p + 1]))
    span_end = p + int(np.argmin(x[p:nxt + 1])) if nxt is not None and nxt > p else None
    bound = span_end if span_end is not None else len(x)
    # a notch only counts when a diastolic peak follows it within the beat
    notch = _first_in(notches, p + 1, bound - 1)
    diast = _first_in(maxima, notch + 1, bound) if notch is not None else None
    pa = x[p] - x[foot]
    ri = auc = ipa = None
    if notch is not None and diast is not None and pa > 0:
        ri = float((x[diast] - x[foot]) / pa)
    if span_end is not None:
        seg_t = (times[foot:span_end + 1] - times[foot]) / NS_PER_S
        seg_v = x[foot:span_end + 1] - x[foot]
        auc = _trapezoid(seg_v, seg_t)
        if notch is not None and diast is not None and foot < notch < span_end:
            before_t = (times[foot:notch + 1] - times[foot]) / NS_PER_S
            before = _trapezoid(seg_v[: notch - foot + 1], before_t)
            after_t = (times[notch:span_end + 1] - times[notch]) / NS_PER_S
            after = _trapezoid(seg_v[notch - foot:], after_t)
            if before > 0:
                ipa = after / before
    return float(pa), ri, auc, ipa


def ppg_features(window: Window, beats: BeatSeries, baseline_pa: float | None = None,
                 memo: dict | None = None) -> dict:
    """The PPG features of a window. memo, when given, holds the per-beat
    terms of earlier windows of the same stream: an entry is keyed on the
    times of the samples its terms read (the previous peak or the window
    start, the peak, and the next peak), so it is the same in every window
    that holds those samples. Entries before this window's start are
    dropped. The last beat reads up to the window's end and is not kept."""
    if memo is not None:
        for key in [key for key in memo if key[0] < window.t_start_ns]:
            del memo[key]
    x = np.asarray(window.values, dtype=float)
    times = window.times_ns
    bt = beats.beat_times_ns
    if len(bt) < 2 or len(x) < 4:
        return {}
    peaks = np.clip(np.searchsorted(times, bt), 0, len(x) - 1).tolist()
    notches = maxima = None
    pas, ris, aucs, ipas = [], [], [], []
    for k, p in enumerate(peaks):
        lo = peaks[k - 1] if k > 0 else 0
        if p <= lo:
            continue
        nxt = peaks[k + 1] if k + 1 < len(peaks) else None
        key = None
        if memo is not None and nxt is not None and nxt > p:
            key = (int(times[lo]), int(times[p]), int(times[nxt]))
        terms = memo.get(key) if key is not None else None
        if terms is None:
            if notches is None:
                notches = _local_maxima(-np.diff(x))  # local minima of the first derivative
                maxima = _local_maxima(x)
            terms = _beat_terms(x, times, lo, p, nxt, notches, maxima)
            if key is not None:
                memo[key] = terms
        pa, ri, auc, ipa = terms
        pas.append(pa)
        for values, v in ((ris, ri), (aucs, auc), (ipas, ipa)):
            if v is not None:
                values.append(v)

    out: dict[str, float] = {}
    if pas:
        mean_pa = float(np.mean(pas))
        out["digital_pa"] = mean_pa
        out["svri"] = mean_pa / baseline_pa if baseline_pa else 1.0
    if ris:
        out["reflection_index"] = float(np.mean(ris))
    if aucs:
        out["auc"] = float(np.mean(aucs))
    if ipas:
        out["ipa"] = float(np.mean(ipas))
    iv = beats.intervals_ms
    if len(iv) >= 1:
        out["r2r_ms"] = float(np.mean(iv))
    if len(iv) >= 2:
        dd = np.diff(iv)
        out["prv_ms"] = float(np.sqrt(np.mean(dd * dd)))
    return out
