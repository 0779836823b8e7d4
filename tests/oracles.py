"""Independent brute-force oracles, kept deliberately naive.

Pure-python loop implementations of the definitional formulas, written
without numpy so they share nothing with the library code they check. The
bag reader oracles at the end are the exception: they read records through
the library's own per-record verdict.
"""

import math

from mwpipe.bag import (ValidationIssue, ValidationReport, _records, header_lines,
                        iter_samples, manifest_topics, read_manifest)
from mwpipe.errors import CorruptBag, WireError


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


# -- the per-record bag readers ------------------------------------------------
#
# validate, replay and serve_bag as loops over one record at a time. They
# take the same per-record verdict as the library (bag._records), so they
# check what the columnar readers do with it, not the judge.


def validate_oracle(path):
    """bag.validate, record by record in file order."""
    report = ValidationReport()
    try:
        descs = manifest_topics(read_manifest(path))
    except (CorruptBag, OSError) as e:
        report.issues.append(ValidationIssue("header", "", str(e)))
        return report
    last_global_t = None
    last_seq = {}
    last_t = {}
    for offset, sample, misfit in _records(path):
        if sample is None:
            report.issues.append(ValidationIssue("parse", "", f"cannot decode: {misfit}", offset))
            continue
        report.records += 1
        desc = descs.get(sample.topic)
        if desc is None:
            report.issues.append(ValidationIssue("manifest", sample.topic,
                                                 "topic not in manifest", offset))
            continue
        if misfit is not None:
            report.issues.append(ValidationIssue("schema", sample.topic, misfit, offset))
        if last_global_t is not None and sample.t_ns < last_global_t:
            report.issues.append(ValidationIssue(
                "order", sample.topic,
                f"t={sample.t_ns} after t={last_global_t}", offset))
        last_global_t = sample.t_ns if last_global_t is None else max(last_global_t, sample.t_ns)
        expect = last_seq.get(sample.topic, -1) + 1
        if sample.seq != expect:
            report.issues.append(ValidationIssue(
                "seq", sample.topic,
                f"seq {sample.seq} where {expect} expected", offset))
        last_seq[sample.topic] = max(last_seq.get(sample.topic, -1), sample.seq)
        prev_t = last_t.get(sample.topic)
        if prev_t is not None:
            if sample.t_ns <= prev_t:
                report.issues.append(ValidationIssue(
                    "topic-order", sample.topic,
                    f"t={sample.t_ns} not after t={prev_t}", offset))
            rate = desc.nominal_rate_hz
            if rate and (sample.t_ns - prev_t) > 2e9 / rate:
                report.issues.append(ValidationIssue(
                    "gap", sample.topic,
                    f"{(sample.t_ns - prev_t) / 1e9:.3f} s gap exceeds 2x nominal period",
                    offset))
        last_t[sample.topic] = sample.t_ns
    return report


def replay_oracle(path, bus):
    """bag.replay at rate "max", one Bus.publish per record in file order."""
    for desc in manifest_topics(read_manifest(path)).values():
        bus.open_topic(desc)
    for _, sample in iter_samples(path):
        bus.publish(sample.topic, sample.payload, t_ns=sample.t_ns)
    return bus


def serve_bag_oracle(path, max_frame_bytes):
    """The payloads serve_bag sends for a bag, manifest first, and the error
    it ends with (None once every record is sent): each record's line is
    read again from the file at the offset iter_samples gives it."""
    frames = [header_lines(path)[1].rstrip(b"\r\n")]
    try:
        with open(path, "rb") as fh:
            for offset, _ in iter_samples(path):
                fh.seek(offset)
                line = fh.readline().rstrip(b"\n")
                if len(line) > max_frame_bytes:
                    raise WireError(f"frame of {len(line)} bytes exceeds {max_frame_bytes}")
                frames.append(line)
    except (CorruptBag, WireError) as e:
        return frames, e
    return frames, None
