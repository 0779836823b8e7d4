"""Respiration rate and band powers.

Rate counts positive-going mean-crossings per window. Band powers use the
same mean-removed Hann/Welch periodogram as the HRV path; band edges are
stated defaults (LF 0.05-0.15 Hz, HF 0.15-0.5 Hz) since no standard applies.
"""

from __future__ import annotations

import numpy as np

from .hrv import band_powers
from .windowing import Window, stacks

RESP_LF_BAND = (0.05, 0.15)
RESP_HF_BAND = (0.15, 0.5)


def resp_features_batch(windows: list[Window]) -> list[dict]:
    """Rate and band powers of each respiration window, with one Welch call per
    stack of windows of equal sample count; pass [window] for one."""
    out, keyed = [{} for _ in windows], []
    for i, w in enumerate(windows):
        x = np.asarray(w.values, dtype=float)
        if len(x) == 0:
            continue
        mean = float(np.mean(x))
        crossings = int(np.sum((x[:-1] < mean) & (x[1:] >= mean)))
        out[i]["rate_bpm"] = 60.0 * crossings / w.span_s
        if len(x) >= 8 and np.ptp(x) > 0:
            keyed.append((i, (len(x), min(len(x), int(w.span_s * w.fs_hz)), w.fs_hz), x))
        else:
            out[i]["lf_power"] = out[i]["hf_power"] = 0.0
    for (_, nperseg, fs), idx, x in stacks(keyed):
        powers = band_powers(x, fs, nperseg, (RESP_LF_BAND, RESP_HF_BAND))
        for i, (lf, hf) in zip(idx, powers.tolist()):
            out[i].update(lf_power=lf, hf_power=hf)
            if hf > 0:
                out[i]["power_ratio"] = lf / hf
    return out
