"""Velocity/dispersion classification of gaze samples into events.

Speed is the central difference of (x, y) in deg/s with a 3-sample moving
average. Saccades exceed 30 deg/s for at least 2 samples; a post-saccadic
oscillation re-exceeds 5 deg/s within 40 ms of a saccade offset and lasts
at most 80 ms; pursuit holds 5-30 deg/s with heading changes under 45 deg
for at least 100 ms; fixations are the remaining spans with dispersion
under 1 deg lasting at least 100 ms. Invalid samples (diameter <= 0) up to
100 ms are bridged linearly; longer gaps split events. All thresholds are
module-level config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bus import NS_PER_S
from ..errors import TooManyInvalidSamples
from .windowing import Window

GAP_BRIDGE_S = 0.1
MAX_INVALID_FRACTION = 0.3

_UNSET, _SACCADE, _PSO, _PURSUIT, _FIXATION = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class GazeThresholds:
    """Classifier thresholds; conventional velocity/dispersion values."""

    saccade_speed_deg_s: float = 30.0
    saccade_min_samples: int = 2
    pursuit_min_deg_s: float = 5.0
    pursuit_max_deg_s: float = 30.0
    pursuit_max_turn_deg: float = 45.0
    fixation_max_dispersion_deg: float = 1.0
    min_event_s: float = 0.1
    pso_latency_s: float = 0.04
    pso_max_s: float = 0.08


DEFAULT_THRESHOLDS = GazeThresholds()


@dataclass
class GazeEventRec:
    kind: str
    start_ns: int
    end_ns: int
    amplitude_deg: float | None = None

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / NS_PER_S


def _smooth3(x: np.ndarray) -> np.ndarray:
    if len(x) < 3:
        return x.copy()
    out = np.convolve(x, np.ones(3), mode="same")
    counts = np.convolve(np.ones(len(x)), np.ones(3), mode="same")
    return out / counts


def _runs(mask: np.ndarray) -> list:
    """[(start, stop)) index pairs of true runs."""
    if not len(mask):
        return []
    edges = np.flatnonzero(np.diff(mask.astype(np.int8)))
    starts = list(edges[mask[edges + 1]] + 1) if len(edges) else []
    stops = list(edges[~mask[edges + 1]] + 1) if len(edges) else []
    if mask[0]:
        starts.insert(0, 0)
    if mask[-1]:
        stops.append(len(mask))
    return list(zip(starts, stops))


def classify_gaze(window: Window, thresholds: GazeThresholds = DEFAULT_THRESHOLDS) -> list:
    vals = np.asarray(window.values, dtype=float)
    if vals.ndim != 2 or vals.shape[1] < 3:
        raise ValueError("gaze window expects (x_deg, y_deg, d_mm) columns")
    x = vals[:, 0].copy()
    y = vals[:, 1].copy()
    diam = vals[:, 2]
    n = len(x)
    if n < 3:
        return []
    valid = diam > 0
    if 1.0 - float(np.mean(valid)) > MAX_INVALID_FRACTION:
        raise TooManyInvalidSamples(
            f"{100 * (1 - float(np.mean(valid))):.0f}% invalid samples in gaze window"
        )
    times = window.times_ns
    period_ns = round(NS_PER_S / window.fs_hz)

    usable = valid.copy()
    for lo, hi in _runs(~valid):
        gap_s = (hi - lo) / window.fs_hz
        if gap_s <= GAP_BRIDGE_S and lo > 0 and hi < n:
            idx = np.arange(lo, hi)
            x[idx] = np.interp(idx, [lo - 1, hi], [x[lo - 1], x[hi]])
            y[idx] = np.interp(idx, [lo - 1, hi], [y[lo - 1], y[hi]])
            usable[idx] = True

    events: list[GazeEventRec] = []
    for seg_lo, seg_hi in _runs(usable):
        if seg_hi - seg_lo < 3:
            continue
        events.extend(
            _classify_segment(
                x[seg_lo:seg_hi], y[seg_lo:seg_hi], times[seg_lo:seg_hi],
                window.fs_hz, period_ns, thresholds,
            )
        )
    events.sort(key=lambda e: e.start_ns)
    return events


def _classify_segment(x, y, times, fs, period_ns, th: GazeThresholds) -> list:
    dt = 1.0 / fs
    vx = _smooth3(np.gradient(x, dt))
    vy = _smooth3(np.gradient(y, dt))
    speed = np.hypot(vx, vy)
    n = len(speed)
    labels = np.zeros(n, dtype=np.int8)
    events = []

    def dur_s(lo, hi):
        return (times[hi - 1] + period_ns - times[lo]) / NS_PER_S

    def make_event(kind, lo, hi, amp=None):
        return GazeEventRec(kind, int(times[lo]), int(times[hi - 1] + period_ns), amp)

    # saccades: speed above threshold for enough samples
    saccade_runs = []
    for lo, hi in _runs(speed > th.saccade_speed_deg_s):
        if hi - lo >= th.saccade_min_samples:
            labels[lo:hi] = _SACCADE
            amp = float(math.hypot(x[hi - 1] - x[lo], y[hi - 1] - y[lo]))
            events.append(make_event("saccade", lo, hi, amp))
            saccade_runs.append((lo, hi))

    # post-saccadic oscillations: dip below the floor then re-exceed in time
    for _, s_hi in saccade_runs:
        i = s_hi
        while i < n and speed[i] > th.pursuit_min_deg_s and labels[i] == _UNSET:
            i += 1  # decay tail, attached to nothing
        while i < n and labels[i] == _UNSET and speed[i] <= th.pursuit_min_deg_s:
            if (times[i] - times[s_hi - 1]) / NS_PER_S > th.pso_latency_s:
                break
            i += 1
        if i >= n or labels[i] != _UNSET or speed[i] <= th.pursuit_min_deg_s:
            continue
        if (times[i] - times[s_hi - 1]) / NS_PER_S > th.pso_latency_s:
            continue
        j = i
        while j < n and labels[j] == _UNSET and speed[j] > th.pursuit_min_deg_s:
            j += 1
        if dur_s(i, j) <= th.pso_max_s:
            labels[i:j] = _PSO
            events.append(make_event("pso", i, j))

    # pursuit: sustained band speed with consistent heading
    band = ((labels == _UNSET) & (speed >= th.pursuit_min_deg_s)
            & (speed <= th.pursuit_max_deg_s))
    for lo, hi in _runs(band):
        heading = np.degrees(np.arctan2(vy[lo:hi], vx[lo:hi]))
        turn = np.abs((np.diff(heading) + 180.0) % 360.0 - 180.0)
        sub_lo = lo
        for k in np.flatnonzero(turn >= th.pursuit_max_turn_deg).tolist():
            if dur_s(sub_lo, lo + k + 1) >= th.min_event_s:
                labels[sub_lo:lo + k + 1] = _PURSUIT
                events.append(make_event("pursuit", sub_lo, lo + k + 1))
            sub_lo = lo + k + 1
        if dur_s(sub_lo, hi) >= th.min_event_s:
            labels[sub_lo:hi] = _PURSUIT
            events.append(make_event("pursuit", sub_lo, hi))

    # fixations: remaining spans, compact and long enough
    for lo, hi in _runs(labels == _UNSET):
        if dur_s(lo, hi) < th.min_event_s:
            continue
        dispersion = float(np.ptp(x[lo:hi]) + np.ptp(y[lo:hi]))
        if dispersion < th.fixation_max_dispersion_deg:
            events.append(make_event("fixation", lo, hi))
    return events


def gaze_features(events: list, window: Window) -> dict:
    vals = np.asarray(window.values, dtype=float)
    out: dict[str, float] = {}
    if len(vals) == 0:
        return out
    diam = vals[:, 2]
    valid = diam > 0
    if np.any(valid):
        out["pupil_diameter_mm"] = float(np.mean(diam[valid]))
    span = window.span_s
    by_kind: dict[str, list] = {"saccade": [], "fixation": [], "pursuit": [], "pso": []}
    for e in events:
        by_kind[e.kind].append(e)
    out["saccade_freq_hz"] = len(by_kind["saccade"]) / span
    out["fixation_freq_hz"] = len(by_kind["fixation"]) / span
    out["pursuit_freq_hz"] = len(by_kind["pursuit"]) / span
    out["pso_freq_hz"] = len(by_kind["pso"]) / span
    if by_kind["fixation"]:
        out["fixation_duration_ms"] = float(
            np.mean([e.duration_s for e in by_kind["fixation"]]) * 1000.0
        )
    if by_kind["saccade"]:
        out["saccade_amp_mean_deg"] = float(
            np.mean([e.amplitude_deg for e in by_kind["saccade"]])
        )
    return out
