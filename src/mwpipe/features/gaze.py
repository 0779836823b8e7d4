"""Velocity/dispersion classification of gaze samples into events.

Speed is the central difference of (x, y) in deg/s with a 3-sample moving
average. Saccades exceed 30 deg/s for at least 2 samples; a post-saccadic
oscillation re-exceeds 5 deg/s within 40 ms of a saccade offset and lasts
at most 80 ms; pursuit holds 5-30 deg/s with heading changes under 45 deg
for at least 100 ms; fixations are the remaining spans with dispersion
under 1 deg lasting at least 100 ms. Invalid samples (diameter <= 0) up to
100 ms are bridged linearly where they lie strictly inside the window; longer
gaps split events, and a gap at the window's edge is left out. All
thresholds are module-level config.

classify_gaze_batch classifies a batch of windows at once. The per-sample
arrays (bridged x and y, velocity, speed, heading and turn) are computed once
over the buffer the windows were cut from, and only the samples next to a
segment's edges, where the one-sided difference and the shorter averages
apply, are recomputed per window. The labelling passes are array passes over
all the windows laid end to end. Each window's events are those it gives on
its own, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bus import NS_PER_S
from .windowing import Window, buffers

GAP_BRIDGE_S = 0.1
MAX_INVALID_FRACTION = 0.3


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


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The [start, stop) bounds of mask's runs of True, as two arrays."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return edges[::2], edges[1::2]


def _cover(starts: np.ndarray, stops: np.ndarray, n: int) -> np.ndarray:
    """The length-n mask of the sorted, disjoint [start, stop) runs."""
    lengths = np.diff(np.column_stack((starts, stops)).ravel(), prepend=0, append=n)
    return np.repeat(np.tile([False, True], len(starts) + 1)[:-1], lengths)


def _past(starts: np.ndarray, stops: np.ndarray, i: np.ndarray) -> np.ndarray:
    """For each of i, the first index at or after it that the sorted, disjoint
    [start, stop) runs leave out."""
    k = np.searchsorted(stops, i, side="right")  # the first run that ends after i
    inside = np.append(starts, np.iinfo(np.int64).max)[k] <= i
    return np.where(inside, np.append(stops, 0)[k], i)


def _segment_velocity(q, lo, hi, a, g, dt):
    """The velocity of a at positions q of the segments [lo, hi) that hold them,
    as each segment's own np.gradient and 3-sample average give it: one-sided
    differences at both ends, and sums in np.convolve's order. g is a's gradient
    over the whole buffer, with one sample appended."""
    def gradient(p):
        return np.where(p == lo, (a[lo + 1] - a[lo]) / dt,
                        np.where(p == hi - 1, (a[hi - 1] - a[hi - 2]) / dt, g[p]))

    before, here, after = gradient(q - 1), gradient(q), gradient(q + 1)
    return np.where(q == lo, (0.0 + here + after) / 2.0,
                    np.where(q == hi - 1, (0.0 + before + here) / 2.0,
                             (0.0 + before + here + after) / 3.0))


def classify_gaze_batch(windows: list[Window],
                        thresholds: GazeThresholds = DEFAULT_THRESHOLDS) -> list:
    """The events of each of one stream's windows, in order, each list sorted by
    start; None for a window with more than MAX_INVALID_FRACTION of its samples
    invalid."""
    out = []
    for run, times, values, spans in buffers(windows):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] < 3:
            raise ValueError("gaze window expects (x_deg, y_deg, d_mm) columns")
        out += _classify_buffer(times, vals, spans, run[0].fs_hz, thresholds)
    return out


def _classify_buffer(times, vals, spans, fs, th: GazeThresholds) -> list:
    """classify_gaze_batch over the [lo, hi) spans of one buffer of samples.

    Every per-sample value is computed once over the buffer. The windows are
    then laid end to end as masks, each followed by one sample in no segment, so
    that no run crosses from one window into the next, and the labelling passes
    run over all of them at once. A segment's first and last samples are
    recomputed as the segment alone gives them."""
    x, y = vals[:, 0].copy(), vals[:, 1].copy()
    valid = vals[:, 2] > 0
    n_valid = np.concatenate(([0], np.cumsum(valid)))
    out, classified = [], []
    for k, (lo, hi) in enumerate(spans):
        if hi - lo < 3:
            out.append([])
        elif 1.0 - (n_valid[hi] - n_valid[lo]) / (hi - lo) > MAX_INVALID_FRACTION:
            out.append(None)
        else:
            out.append([])
            classified.append(k)
    if not classified:
        return out

    # A gap no longer than GAP_BRIDGE_S is bridged where it is strictly inside a
    # window, by the same np.interp on the same end points in any window.
    usable = valid.copy()
    gap_lo, gap_hi = _runs(~valid)
    bridged = ((gap_hi - gap_lo) / fs <= GAP_BRIDGE_S) & (gap_lo > 0) & (gap_hi < len(x))
    for lo, hi in zip(gap_lo[bridged].tolist(), gap_hi[bridged].tolist()):
        idx = np.arange(lo, hi)
        x[idx] = np.interp(idx, [lo - 1, hi], [x[lo - 1], x[hi]])
        y[idx] = np.interp(idx, [lo - 1, hi], [y[lo - 1], y[hi]])
        usable[lo:hi] = True

    # velocity: the central difference with a 3-sample moving average
    dt = 1.0 / fs
    counts = np.convolve(np.ones(len(x)), np.ones(3), mode="same")
    gx, gy = np.append(np.gradient(x, dt), 0.0), np.append(np.gradient(y, dt), 0.0)
    vx = np.convolve(gx[:-1], np.ones(3), mode="same") / counts
    vy = np.convolve(gy[:-1], np.ones(3), mode="same") / counts
    speed = np.hypot(vx, vy)
    turn = np.abs((np.diff(np.degrees(np.arctan2(vy, vx))) + 180.0) % 360.0 - 180.0)

    # the windows end to end: starts[j] is where the j-th classified window
    # begins, and shift[j] takes its positions back to the buffer's
    starts = np.cumsum([0] + [spans[k][1] - spans[k][0] + 1 for k in classified])
    shift = np.array([spans[k][0] for k in classified]) - starts[:-1]
    cut = [s for k in classified for s in (slice(*spans[k]), slice(spans[k][1] - 1, spans[k][1]))]
    n = int(starts[-1])

    def laid(mask):
        return np.concatenate([mask[s] for s in cut])

    def buffered(p):
        return p + shift[np.searchsorted(starts, p, side="right") - 1]

    in_seg = laid(usable)
    in_seg[starts[1:] - 1] = False
    for (lo, hi), s in zip((spans[k] for k in classified), starts.tolist()):
        if not valid[lo]:  # a gap at a window's edge is never bridged
            in_seg[s:s + int(np.argmax(valid[lo:hi]))] = False
        if not valid[hi - 1]:
            in_seg[s + hi - lo - int(np.argmax(valid[lo:hi][::-1])):s + hi - lo] = False
    seg_lo, seg_hi = _runs(in_seg)
    long_enough = seg_hi - seg_lo >= 3
    seg_lo, seg_hi = seg_lo[long_enough], seg_hi[long_enough]
    free = _cover(seg_lo, seg_hi, n)

    fast = laid(speed > th.saccade_speed_deg_s)
    above = laid(speed > th.pursuit_min_deg_s)
    below = laid(speed <= th.pursuit_min_deg_s)
    in_band = laid((speed >= th.pursuit_min_deg_s) & (speed <= th.pursuit_max_deg_s))
    sharp = laid(np.append(turn >= th.pursuit_max_turn_deg, False))

    # What a segment's edges change: the velocity of its first two and last two
    # samples, and the turns between its first three and its last three.
    lo, hi = buffered(seg_lo), buffered(seg_hi - 1) + 1
    q = np.concatenate((lo, lo + 1, lo + 2, hi - 3, hi - 2, hi - 1))
    lo6, hi6 = np.tile(lo, 6), np.tile(hi, 6)
    ex = _segment_velocity(q, lo6, hi6, x, gx, dt)
    ey = _segment_velocity(q, lo6, hi6, y, gy, dt)
    edge_speed = np.hypot(ex, ey)
    heading = np.degrees(np.arctan2(ey, ex)).reshape(6, -1)
    q += np.tile(seg_lo - lo, 6)
    fast[q] = edge_speed > th.saccade_speed_deg_s
    above[q] = edge_speed > th.pursuit_min_deg_s
    below[q] = edge_speed <= th.pursuit_min_deg_s
    in_band[q] = (edge_speed >= th.pursuit_min_deg_s) & (edge_speed <= th.pursuit_max_deg_s)
    edge_turn = np.abs((np.diff(heading, axis=0)[[0, 1, 3, 4]] + 180.0)
                       % 360.0 - 180.0)
    sharp[np.concatenate((seg_lo, seg_lo + 1, seg_hi - 3, seg_hi - 2))] = (
        edge_turn.ravel() >= th.pursuit_max_turn_deg)

    period_ns = round(NS_PER_S / fs)

    def dur_s(lo, hi):
        return (times[buffered(hi - 1)] + period_ns - times[buffered(lo)]) / NS_PER_S

    # saccades: speed above threshold for enough samples
    sac_lo, sac_hi = _runs(free & fast)
    enough = sac_hi - sac_lo >= th.saccade_min_samples
    sac_lo, sac_hi = sac_lo[enough], sac_hi[enough]
    free &= ~_cover(sac_lo, sac_hi, n)

    # post-saccadic oscillations: past the decay tail, a dip to the floor, then
    # a rise above it within the latency; each scan stops at the next saccade
    # or at the end of the segment
    stop = np.minimum(np.append(sac_lo[1:], n),
                      seg_hi[np.searchsorted(seg_lo, sac_lo, side="right") - 1])
    above_runs, below_runs = _runs(above), _runs(below)
    dip = _past(*above_runs, sac_hi)
    rise = _past(*below_runs, dip)
    fall = np.minimum(_past(*above_runs, rise), stop)
    pso = (dip < stop) & (rise < stop)
    rise_ns, end_ns = times[buffered(rise[pso])], times[buffered(sac_hi[pso] - 1)]
    pso[pso] = (rise_ns - end_ns) / NS_PER_S <= th.pso_latency_s
    pso[pso] = dur_s(rise[pso], fall[pso]) <= th.pso_max_s
    pso_lo, pso_hi = rise[pso], fall[pso]
    free &= ~_cover(pso_lo, pso_hi, n)

    # pursuit: sustained band speed, split where the heading turns too far
    band = free & in_band
    band_lo, band_hi = _runs(band)
    cuts = np.flatnonzero(band[:-1] & band[1:] & sharp[:-1]) + 1
    pur_lo, pur_hi = np.sort(np.append(band_lo, cuts)), np.sort(np.append(cuts, band_hi))
    long_enough = dur_s(pur_lo, pur_hi) >= th.min_event_s
    pur_lo, pur_hi = pur_lo[long_enough], pur_hi[long_enough]
    free &= ~_cover(pur_lo, pur_hi, n)

    # fixations: remaining spans, compact and long enough
    fix_lo, fix_hi = _runs(free)
    long_enough = dur_s(fix_lo, fix_hi) >= th.min_event_s
    fix_lo, fix_hi = fix_lo[long_enough], fix_hi[long_enough]
    if len(fix_lo):
        bounds = np.column_stack((buffered(fix_lo), buffered(fix_hi - 1) + 1)).ravel()

        def ptp(a):  # over [lo, hi) pairs; a's last sample may be a hi
            a = np.append(a, 0.0)
            return np.maximum.reduceat(a, bounds)[::2] - np.minimum.reduceat(a, bounds)[::2]

        compact = ptp(x) + ptp(y) < th.fixation_max_dispersion_deg
        fix_lo, fix_hi = fix_lo[compact], fix_hi[compact]

    # each window's events in classify order (segment, kind, start), then stably
    # by start time
    lo = np.concatenate((sac_lo, pso_lo, pur_lo, fix_lo))
    hi = np.concatenate((sac_hi, pso_hi, pur_hi, fix_hi))
    kind = np.repeat(np.arange(4), [len(sac_lo), len(pso_lo), len(pur_lo), len(fix_lo)])
    window = np.searchsorted(starts, lo, side="right") - 1
    start_ns = times[lo + shift[window]]
    end_ns = times[hi - 1 + shift[window]] + period_ns
    order = np.lexsort((lo, kind, np.searchsorted(seg_lo, lo, side="right"), start_ns, window))
    first, last = buffered(sac_lo), buffered(sac_hi - 1)
    amp = [math.hypot(a, b) for a, b in zip((x[last] - x[first]).tolist(),
                                            (y[last] - y[first]).tolist())]
    amp += [None] * (len(lo) - len(amp))
    kinds = ("saccade", "pso", "pursuit", "fixation")
    window = window.tolist()
    for i, k, s, e in zip(order.tolist(), kind[order].tolist(), start_ns[order].tolist(),
                          end_ns[order].tolist()):
        out[classified[window[i]]].append(GazeEventRec(kinds[k], s, e, amp[i]))
    return out


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
