"""Sliding windows over timestamped sample arrays.

Windows end at t0+len, t0+len+stride, ...; each holds exactly the samples
with t in [t_end-len, t_end), by integer-nanosecond arithmetic. A window is
emitted only once the stream watermark has reached its end time, so a 29 s
stream yields no windows and a 60 s stream with len 30 / stride 1 yields
exactly 31.

The windows one advance_to emits are views of one buffer of the stream's
samples, and buffers() finds it again: the gaze and EDA stages compute their
per-sample arrays once over it and slice them per window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bus import NS_PER_S

STACK_ROWS = 32  # bounds a stack's memory, whatever one advance completes


def stacks(keyed):
    """(key, indices, stacked rows) of the (index, key, row) triples, by key, STACK_ROWS at most."""
    groups: dict = {}
    for i, key, row in keyed:
        groups.setdefault(key, []).append((i, row))
    for key, group in groups.items():
        for j in range(0, len(group), STACK_ROWS):
            idx, rows = zip(*group[j:j + STACK_ROWS])
            yield key, idx, np.stack(rows)


def _row_in(view: np.ndarray) -> int | None:
    """i if view is rows i to i + len(view) of the array it is a view of, else None."""
    base = view.base
    if (not isinstance(base, np.ndarray) or base.ndim == 0 or base.strides[0] <= 0
            or view.strides != base.strides or view.shape[1:] != base.shape[1:]):
        return None
    i, off = divmod(view.ctypes.data - base.ctypes.data, base.strides[0])
    return i if off == 0 and 0 <= i <= len(base) - len(view) else None


def _cut_from(window):
    """(times, values, row): the buffers whose rows row to row + window.n the
    window's times and values are, as SlidingWindower.advance_to cuts them; for
    any other window, its own arrays and 0."""
    t, v = np.asarray(window.times_ns), np.asarray(window.values)
    row = _row_in(t)
    if row is not None and row == _row_in(v):
        return t.base, v.base, row
    return t, v, 0


def buffers(windows):
    """(windows, times, values, spans) per run of consecutive windows cut from
    one sample buffer: the buffer from the run's first window start to its last
    window end, and each window's [lo, hi) rows in it."""
    run = []
    for w in windows:
        times, values, row = _cut_from(w)
        if run and (times is not run[0][1] or values is not run[0][2]
                    or w.fs_hz != run[0][0].fs_hz):
            yield _trimmed(run)
            run = []
        run.append((w, times, values, row))
    if run:
        yield _trimmed(run)


def _trimmed(run):
    _, times, values, _ = run[0]
    lo = min(row for *_, row in run)
    hi = max(row + w.n for w, *_, row in run)
    return ([w for w, *_ in run], times[lo:hi], values[lo:hi],
            [(row - lo, row - lo + w.n) for w, *_, row in run])


@dataclass
class Window:
    """One extraction window: time-ordered slice of a single modality."""

    modality: str
    t_start_ns: int
    t_end_ns: int
    times_ns: np.ndarray
    values: np.ndarray
    fs_hz: float

    @property
    def span_s(self) -> float:
        return (self.t_end_ns - self.t_start_ns) / NS_PER_S

    @property
    def n(self) -> int:
        return len(self.times_ns)


@dataclass
class FeatureRow:
    modality: str
    t_end_ns: int
    values: dict
    quality: float


class SlidingWindower:
    """Incremental windower fed by sample blocks and an explicit watermark.

    advance_to(w_ns) emits every not-yet-emitted window whose end is <= the
    watermark; windows only ever contain samples strictly before their end,
    so emission at the watermark is exact. Once windows are cut, samples
    before the next window's start are dropped, so a windower holds about
    one window plus one stride of samples, plus what was fed since.
    """

    def __init__(self, modality: str, fs_hz: float, len_s: float = 30.0,
                 stride_s: float = 1.0, t0_ns: int = 0):
        self.modality = modality
        self.fs_hz = fs_hz
        self.len_ns = round(len_s * NS_PER_S)
        self.stride_ns = round(stride_s * NS_PER_S)
        if self.len_ns <= 0 or self.stride_ns <= 0:
            raise ValueError("len_s and stride_s must be at least 1 ns")
        self._next_end = t0_ns + self.len_ns
        self._times: list[np.ndarray] = []
        self._values: list[np.ndarray] = []

    def feed(self, times_ns: np.ndarray, values: np.ndarray):
        """Queue one block of time-ordered samples.

        The block is not copied: the windower holds the caller's arrays
        until the next window is cut, and they must not change until then.
        """
        times_ns = np.asarray(times_ns, dtype=np.int64)
        if not len(times_ns):
            return
        self._times.append(times_ns)
        self._values.append(np.asarray(values, dtype=float))

    def advance_to(self, watermark_ns: int) -> list[Window]:
        if self._next_end > watermark_ns:
            return []
        times = np.concatenate(self._times) if self._times else np.empty(0, dtype=np.int64)
        values = np.concatenate(self._values) if self._values else np.empty(0)
        out = []
        while self._next_end <= watermark_ns:
            end = self._next_end
            start = end - self.len_ns
            lo, hi = np.searchsorted(times, (start, end), side="left")
            out.append(Window(self.modality, start, end, times[lo:hi], values[lo:hi], self.fs_hz))
            self._next_end += self.stride_ns
        if self._times:
            keep = np.searchsorted(times, self._next_end - self.len_ns, side="left")
            self._times, self._values = [times[keep:]], [values[keep:]]
        return out

