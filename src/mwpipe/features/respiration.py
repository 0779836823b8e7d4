"""Respiration rate and band powers.

Rate counts positive-going mean-crossings per window. Band powers use the
same mean-removed Hann/Welch periodogram as the HRV path; band edges are
stated defaults (LF 0.05-0.15 Hz, HF 0.15-0.5 Hz) since no standard applies.
"""

from __future__ import annotations

import numpy as np

from .hrv import band_powers
from .windowing import Window

RESP_LF_BAND = (0.05, 0.15)
RESP_HF_BAND = (0.15, 0.5)


def resp_features(window: Window) -> dict:
    x = np.asarray(window.values, dtype=float)
    out: dict[str, float] = {}
    if len(x) == 0:
        return out
    mean = float(np.mean(x))
    crossings = int(np.sum((x[:-1] < mean) & (x[1:] >= mean)))
    out["rate_bpm"] = 60.0 * crossings / window.span_s
    if len(x) >= 8 and np.ptp(x) > 0:
        nperseg = min(len(x), int(window.span_s * window.fs_hz))
        lf, hf = band_powers(x, window.fs_hz, nperseg, (RESP_LF_BAND, RESP_HF_BAND))
        out["lf_power"] = lf
        out["hf_power"] = hf
        if hf > 0:
            out["power_ratio"] = lf / hf
    elif len(x) > 0:
        out["lf_power"] = 0.0
        out["hf_power"] = 0.0
    return out
