"""Independent brute-force oracles, kept deliberately naive.

Pure-python loop implementations of the definitional formulas, written
without numpy so they share nothing with the library code they check.
"""

import math


def hrv_oracle(intervals_ms):
    """Time-domain / nonlinear HRV statistics from first principles."""
    iv = [float(v) for v in intervals_ms]
    n = len(iv)
    out = {}
    if n >= 1:
        out["rr_mean_ms"] = sum(iv) / n
        out["rr_min_ms"] = min(iv)
        out["rr_max_ms"] = max(iv)
    if n >= 2:
        mean = sum(iv) / n
        out["rr_std_ms"] = math.sqrt(sum((v - mean) ** 2 for v in iv) / n)
        # histogram with 7.8125 ms bins anchored at 0
        bins = {}
        for v in iv:
            b = int(v // 7.8125)
            bins[b] = bins.get(b, 0) + 1
        out["tri_index"] = n / max(bins.values())
    if n >= 3:
        d = [iv[i + 1] - iv[i] for i in range(n - 1)]
        m = len(d)
        rmssd = math.sqrt(sum(x * x for x in d) / m)
        dmean = sum(d) / m
        sdsd = math.sqrt(sum((x - dmean) ** 2 for x in d) / m)
        out["rmssd_ms"] = rmssd
        out["sdsd_ms"] = sdsd
        for thresh, name in ((10.0, "pnn10"), (25.0, "pnn25"), (50.0, "pnn50")):
            out[name] = 100.0 * sum(1 for x in d if abs(x) > thresh) / m
        sd1 = rmssd / math.sqrt(2.0)
        sd2 = math.sqrt(max(0.0, 2.0 * out["rr_std_ms"] ** 2 - 0.5 * rmssd ** 2))
        out["sd1_ms"] = sd1
        out["sd2_ms"] = sd2
        if sd2 > 0:
            out["sd1_sd2"] = sd1 / sd2
        out["sdell_ms2"] = math.pi * sd1 * sd2
    return out


def window_count_oracle(stream_s, len_s, stride_s):
    """Number of sliding windows by enumeration."""
    count = 0
    end = len_s
    while end <= stream_s + 1e-9:
        count += 1
        end += stride_s
    return count


def trapezoid_oracle(ts, vs):
    total = 0.0
    for i in range(len(ts) - 1):
        total += 0.5 * (vs[i] + vs[i + 1]) * (ts[i + 1] - ts[i])
    return total


def first_local_max_oracle(x, lo, hi):
    """First i in [lo, hi) with x[i-1] <= x[i] > x[i+1], or None."""
    for i in range(max(lo, 1), min(hi, len(x) - 1)):
        if x[i - 1] <= x[i] > x[i + 1]:
            return i
    return None


def first_local_min_oracle(d, lo, hi):
    """First i in [lo, hi) with d[i-1] >= d[i] < d[i+1], or None."""
    for i in range(max(lo, 1), min(hi, len(d) - 1)):
        if d[i - 1] >= d[i] < d[i + 1]:
            return i
    return None


def half_rollmax_peaks_oracle(x, fs, rollmax_s=2.0):
    """Local maxima above half the maximum over the odd number (at least 3)
    of samples in rollmax_s centred on them, clipped at the ends."""
    half = max(3, int(rollmax_s * fs) | 1) // 2
    return [i for i in range(1, len(x) - 1)
            if x[i - 1] <= x[i] > x[i + 1]
            and x[i] > 0.5 * max(x[max(0, i - half):i + half + 1])]


def argmax_near_oracle(x, indices, half):
    """For each index, the first position of the maximum of x within half
    samples of it."""
    out = []
    for i in indices:
        lo, hi = max(0, i - half), min(len(x), i + half + 1)
        best = lo
        for j in range(lo, hi):
            if x[j] > x[best]:
                best = j
        out.append(best)
    return out


def refractory_oracle(indices, fs, refractory_s=0.25):
    """Greedy refractory: keep the first index, then each one at least
    refractory_s * fs samples after the last kept."""
    keep = []
    for i in indices:
        if not keep or i - keep[-1] >= refractory_s * fs:
            keep.append(i)
    return keep


def sample_time_ns(t0_ns, index, fs_hz):
    """Time of sample `index` on a uniform grid, rounded per index (no drift):
    the reference for Waveform.times_ns."""
    return t0_ns + round(index * 1_000_000_000 / fs_hz)
