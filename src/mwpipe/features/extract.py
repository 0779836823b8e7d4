"""Per-window feature dispatch and the streaming extraction pipeline.

A FeatureRow is a pure function of its Window (plus, for PPG, the frozen
session baseline pulse amplitude), so identical windows always produce
bit-identical rows. Rows are computed only when at least 70% of the
window's nominal samples are valid; below that, or when a gaze window has
too many invalid samples or an EDA window is too short to decompose, only
quality is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TooManyInvalidSamples, WindowTooShort
from .beats import detect_beats
from .catalog import BIO_TOPICS, FEATURE_CATALOG
from .eda import eda_decompose, eda_features
from .gaze import DEFAULT_THRESHOLDS, GazeThresholds, classify_gaze, gaze_features
from .hrv import hrv_frequency, hrv_stat_features
from .ppg import ppg_features
from .respiration import resp_features
from .skintemp import st_features
from .windowing import FeatureRow, SlidingWindower, Window

MIN_QUALITY = 0.7


def window_quality(window: Window) -> float:
    expected = max(1, round(window.span_s * window.fs_hz))
    if window.modality == "gaze" and window.n:
        vals = np.asarray(window.values)
        n_valid = int(np.sum(vals[:, 2] > 0))
    else:
        n_valid = window.n
    return min(1.0, n_valid / expected)


def extract_window(window: Window, ppg_baseline_pa: float | None = None,
                   gaze_thresholds: GazeThresholds = DEFAULT_THRESHOLDS,
                   ppg_memo: dict | None = None) -> FeatureRow:
    """Compute the catalog features for one window of any modality. ppg_memo
    is the per-beat memo of the window's PPG stream (see ppg_features); the
    row is the same with or without it."""
    quality = window_quality(window)
    if quality < MIN_QUALITY:
        return FeatureRow(window.modality, window.t_end_ns, {}, quality)
    m = window.modality
    try:
        if m == "ecg":
            beats = detect_beats(window)
            values = hrv_stat_features(beats)
            values.update(hrv_frequency(beats))
        elif m == "ppg":
            beats = detect_beats(window)
            values = ppg_features(window, beats, baseline_pa=ppg_baseline_pa, memo=ppg_memo)
        elif m == "resp":
            values = resp_features(window)
        elif m == "eda":
            values = eda_features(eda_decompose(window))
        elif m == "st":
            values = st_features(window)
        elif m == "gaze":
            values = gaze_features(classify_gaze(window, gaze_thresholds), window)
        else:
            raise ValueError(f"unknown modality {m!r}")
    except (TooManyInvalidSamples, WindowTooShort):  # gaze and EDA: too little to decompose
        return FeatureRow(m, window.t_end_ns, {}, quality)
    unknown = set(values) - set(FEATURE_CATALOG[m])
    if unknown:
        raise AssertionError(f"features outside the {m} catalog: {sorted(unknown)}")
    return FeatureRow(m, window.t_end_ns, values, quality)


@dataclass
class FeaturePipeline:
    """Watermark-driven extraction over all modalities at once.

    Feed raw sample blocks per modality, then advance_to(watermark) to
    collect every newly complete row, serialized by (t_end, modality) so
    emission onto feature topics respects the bus ordering contract.

    The PPG baseline is frozen once, at baseline_end_ns: the first
    advance_to that reaches it advances to it, freezes the baseline as the
    mean pulse amplitude of the PPG rows that end by then (when that mean is
    positive), then goes on. Rows up to the freeze use no baseline. A live
    session sets baseline_end_ns to the end of its baseline phase; export
    sets it once it reads where sim.meta leaves the baseline phase, which
    the bag's order puts before any record past that time. None never
    freezes.
    """

    len_s: float = 30.0
    stride_s: float = 1.0
    t0_ns: int = 0
    modalities: tuple = tuple(BIO_TOPICS)
    gaze_thresholds: GazeThresholds = DEFAULT_THRESHOLDS
    baseline_end_ns: int | None = None
    _windowers: dict = field(init=False)
    ppg_baseline_pa: float | None = field(default=None, init=False)
    _frozen: bool = field(default=False, init=False)
    _baseline_pa_samples: list = field(default_factory=list, init=False)
    _ppg_memo: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        self._windowers = {
            m: SlidingWindower(m, BIO_TOPICS[m].rate_hz, self.len_s, self.stride_s, self.t0_ns)
            for m in self.modalities
        }

    def feed(self, modality: str, times_ns, values):
        self._windowers[modality].feed(times_ns, values)

    def advance_to(self, watermark_ns: int) -> list[FeatureRow]:
        end = self.baseline_end_ns
        if self._frozen or end is None or watermark_ns < end:
            return self._advance(watermark_ns)
        rows = self._advance(end)
        self._frozen = True
        if self._baseline_pa_samples:
            pa = float(np.mean(self._baseline_pa_samples))
            if pa > 0:
                self.ppg_baseline_pa = pa
        self._baseline_pa_samples = []
        return rows + self._advance(watermark_ns)

    def _advance(self, watermark_ns: int) -> list[FeatureRow]:
        rows = []
        for m in self.modalities:
            for window in self._windowers[m].advance_to(watermark_ns):
                row = extract_window(window, ppg_baseline_pa=self.ppg_baseline_pa,
                                     gaze_thresholds=self.gaze_thresholds,
                                     ppg_memo=self._ppg_memo)
                if m == "ppg" and not self._frozen and "digital_pa" in row.values:
                    self._baseline_pa_samples.append(row.values["digital_pa"])
                rows.append(row)
        rows.sort(key=lambda r: (r.t_end_ns, r.modality))
        return rows
