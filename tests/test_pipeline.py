"""The incremental FeaturePipeline against batch windowing, extract_windows
over any batches against the per-window reference, and the cached, stacked
and buffered feature paths against their references on every window of the
pinned seed-11 and seed-23 sessions."""

import functools
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import sosfiltfilt

from mwpipe.bag import judged_chunks
from mwpipe.bus import NS_PER_S
from mwpipe.features import BIO_TOPICS, FeaturePipeline
from mwpipe.features.beats import _bandpass, _filtfilt, detect_beats_batch
from mwpipe.features.eda import eda_decompose_batch
from mwpipe.features.extract import extract_windows
from mwpipe.features.gaze import classify_gaze_batch
from mwpipe.features.ppg import ppg_features
from mwpipe.session import SessionPlan, StitchState, phase_waveforms, run_session
from mwpipe.synth import SynthProfile

from oracles import (classify_gaze_oracle, eda_decompose_oracle, extract_window_oracle,
                     make_windows)


def bits(values: dict) -> dict:
    return {k: struct.pack("<d", v) for k, v in values.items()}


def row_bits(rows) -> list:
    return [(r.t_end_ns, r.modality, bits(r.values), struct.pack("<d", r.quality))
            for r in rows]


LEN_S, STRIDE_S = 12.0, 1.5


@functools.lru_cache(maxsize=4)
def streams(seed: int) -> dict:
    """40 s of every modality: modality -> (times_ns, values)."""
    waveforms = phase_waveforms(SynthProfile(), 40.0, seed, StitchState())
    return {m: (wf.times_ns(), np.asarray(wf.values, dtype=float))
            for m, wf in waveforms.items()}


def span(s: dict) -> tuple[int, int]:
    t0 = min(int(t[0]) for t, _ in s.values())
    end = max(int(t[-1]) + round(NS_PER_S / BIO_TOPICS[m].rate_hz) for m, (t, _) in s.items())
    return t0, end


def batch_rows(seed: int, freeze_ns: int | None) -> list:
    """The per-window reference over make_windows of each stream, the PPG
    baseline frozen at freeze_ns from the rows that end by then, as the
    pipeline does."""
    s = streams(seed)
    t0, end = span(s)
    windows = [w for m, (t, v) in s.items()
               for w in make_windows(t, v, m, BIO_TOPICS[m].rate_hz, LEN_S, STRIDE_S,
                                     t0_ns=t0, end_ns=end)]
    windows.sort(key=lambda w: (w.t_end_ns, w.modality))
    baseline = None
    if freeze_ns is not None:
        pas = [row.values["digital_pa"] for row in map(extract_window_oracle, windows)
               if row.modality == "ppg" and row.t_end_ns <= freeze_ns
               and "digital_pa" in row.values]
        if pas and float(np.mean(pas)) > 0:
            baseline = float(np.mean(pas))
    return [extract_window_oracle(w, ppg_baseline_pa=baseline if freeze_ns is not None
                                  and w.t_end_ns > freeze_ns else None)
            for w in windows]


@settings(max_examples=20, deadline=None)
@given(data=st.data(), seed=st.sampled_from([1, 2]))
def test_pipeline_equals_batch_windows(data, seed):
    """Blocks cut anywhere, fed as the watermarks need them, and advance_to
    at any watermarks, with the baseline end at one of them, between them or
    past the streams, give the rows of batch windowing, bit for bit."""
    s = streams(seed)
    t0, end = span(s)
    blocks = {}
    for m, (t, _) in s.items():
        cuts = sorted(data.draw(st.sets(st.integers(1, len(t) - 1), max_size=6)))
        blocks[m] = list(zip([0, *cuts], [*cuts, len(t)]))
    watermarks = sorted(data.draw(st.lists(st.integers(t0, end), max_size=8)))
    freeze_ns = data.draw(st.one_of(st.none(), st.sampled_from([*watermarks, end]),
                                    st.integers(t0, end + 10**9)))
    pipeline = FeaturePipeline(len_s=LEN_S, stride_s=STRIDE_S, t0_ns=t0,
                               baseline_end_ns=freeze_ns)
    rows = []
    for w in [*watermarks, end]:
        for m, (t, v) in s.items():
            while blocks[m] and t[blocks[m][0][0]] < w:
                lo, hi = blocks[m].pop(0)
                pipeline.feed(m, t[lo:hi], v[lo:hi])
        rows += pipeline.advance_to(w)
    assert row_bits(rows) == row_bits(batch_rows(seed, freeze_ns))


def ranges(data, n: int, longest: int, most: int) -> list:
    """Up to most drawn [a, b) index ranges in [0, n), none longer than longest."""
    out = []
    for _ in range(data.draw(st.integers(0, most))):
        a = data.draw(st.integers(0, n - 1))
        out.append((a, data.draw(st.integers(a + 1, min(n, a + longest)))))
    return out


def gaze_gaps(data, times, t0_ns: int, len_s: float, stride_s: float) -> list:
    """Up to 4 drawn [a, b) index ranges of invalid gaze samples: at most 12
    samples (100 ms, bridged inside a window) or 13 to 40 (split), anywhere or
    starting at some window's first sample or ending at some window's last."""
    out = []
    for _ in range(data.draw(st.integers(0, 4))):
        length = data.draw(st.integers(1, 12) | st.integers(13, 40))
        edge = data.draw(st.sampled_from(["anywhere", "first", "last"]))
        if edge == "anywhere":
            a = data.draw(st.integers(0, len(times) - 1))
        else:
            k = data.draw(st.integers(0, int((times[-1] - t0_ns) / 1e9 / stride_s)))
            start = t0_ns + round(k * stride_s * NS_PER_S)
            bound = int(np.searchsorted(times, start + (0 if edge == "first" else round(len_s * NS_PER_S))))
            a = bound if edge == "first" else max(0, bound - length)
        out.append((a, a + length))
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), modality=st.sampled_from(sorted(BIO_TOPICS)),
       len_s=st.sampled_from([0.05, 5.0, 12.0, 30.0]), stride_s=st.sampled_from([0.25, 1.0, 1.5]),
       baseline_pa=st.one_of(st.none(), st.floats(1.0, 100.0)))
def test_extract_windows_over_any_batches_equals_the_per_window_reference(
        data, modality, len_s, stride_s, baseline_pa):
    """One stream's windows cut into any batches give the reference's rows,
    bit for bit. Gaps make windows of unequal length and windows below
    MIN_QUALITY, flat runs make flatlines, 5 s is too short for the EDA
    decomposition, 0.05 s is no longer than the cardiac band-pass's pad, 30 s
    sums more than 8 Welch bins in a band, and the shortest strides give
    groups longer than one stack. Invalid gaze samples make bridged gaps,
    split segments and gaps at a window's edge, which only that window leaves
    unbridged."""
    times, values = streams(1)[modality]
    fs = BIO_TOPICS[modality].rate_hz
    n = len(times)
    values = values.copy()
    if modality == "gaze":
        for a, b in gaze_gaps(data, times, int(times[0]), len_s, stride_s):
            values[a:b, 2] = 0.0
    keep = np.ones(n, dtype=bool)
    for a, b in ranges(data, n, n // 4, 3):
        keep[a:b] = False
    for a, b in ranges(data, n, n // 2, 2):
        values[a:b] = values[a]
    windows = make_windows(times[keep], values[keep], modality, fs, len_s, stride_s,
                           t0_ns=int(times[0]), end_ns=int(times[-1]) + round(NS_PER_S / fs))
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(windows) - 1)), max_size=6)))
    rows, memo = [], {}
    for lo, hi in zip([0, *cuts], [*cuts, len(windows)]):
        rows += extract_windows(windows[lo:hi], ppg_baseline_pa=baseline_pa, ppg_memo=memo)
    reference_memo = {}
    assert row_bits(rows) == row_bits([
        extract_window_oracle(w, ppg_baseline_pa=baseline_pa, ppg_memo=reference_memo)
        for w in windows])


def events(found) -> list | None:
    return None if found is None else [(e.kind, e.start_ns, e.end_ns, e.amplitude_deg)
                                       for e in found]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), len_s=st.sampled_from([0.05, 5.0, 12.0, 30.0]),
       stride_s=st.sampled_from([0.25, 1.0, 1.5]))
def test_gaze_events_over_any_batches_equal_the_per_window_reference(data, len_s, stride_s):
    """The events themselves, which the gaze features only count and average:
    drawn gaps bridged, split and at window edges, windows cut into any
    batches."""
    times, values = streams(2)["gaze"]
    values = values.copy()
    for a, b in gaze_gaps(data, times, int(times[0]), len_s, stride_s):
        values[a:b, 2] = 0.0
    windows = make_windows(times, values, "gaze", BIO_TOPICS["gaze"].rate_hz, len_s, stride_s)
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(windows) - 1)), max_size=6)))
    found = []
    for lo, hi in zip([0, *cuts], [*cuts, len(windows)]):
        found += classify_gaze_batch(windows[lo:hi])
    assert list(map(events, found)) == [events(classify_gaze_oracle(w)) for w in windows]


# -- every window of the pinned sessions --------------------------------------

# The benchmark's pinned plan: 780 s of signal.
PINNED_PLAN = {"baseline_s": 120.0, "interrun_s": 60.0, "run_timeout_s": 120.0}


@pytest.fixture(scope="module", params=[11, 23])
def pinned_windows(request, tmp_path_factory) -> dict:
    """Modality -> every 30 s / 1 s window of the pinned session's ECG, PPG,
    EDA and gaze."""
    path = tmp_path_factory.mktemp("pinned") / "session.bag"
    run_session(SessionPlan(seed=request.param, **PINNED_PLAN), path)
    parts: dict = {}
    for chunk in judged_chunks(path):
        for group in chunk.groups:
            if group.topic in ("bio.ecg", "bio.ppg", "bio.eda", "bio.gaze"):
                columns = group.columns
                parts.setdefault(group.topic[4:], []).append(
                    (group.t, columns[0] if len(columns) == 1 else np.column_stack(columns)))
    return {m: make_windows(np.concatenate([t for t, _ in p]), np.concatenate([v for _, v in p]),
                            m, BIO_TOPICS[m].rate_hz)
            for m, p in parts.items()}


def test_filtfilt_equals_sosfiltfilt_on_every_pinned_window(pinned_windows):
    """One window at a time, and stacked as a live advance stacks them: the
    windows of each 10 s interval, grouped by sample count."""
    for m, band in (("ecg", (5.0, 25.0)), ("ppg", (0.5, 8.0))):
        windows = pinned_windows[m]
        assert len(windows) == 751
        fs = windows[0].fs_hz
        sos = _bandpass(*band, fs)[0]
        stacked = 0
        for start in range(0, len(windows), 10):
            groups = {}
            for w in windows[start:start + 10]:
                groups.setdefault(w.n, []).append(np.asarray(w.values, dtype=float))
            for xs in groups.values():
                for x, row in zip(xs, _filtfilt(np.stack(xs), *band, fs)):
                    expected = sosfiltfilt(sos, x).view(np.int64)
                    assert np.array_equal(_filtfilt(x, *band, fs).view(np.int64), expected)
                    assert np.array_equal(row.view(np.int64), expected)
                stacked += len(xs) > 1
        assert stacked > 60  # most intervals stack windows of equal length


def test_ppg_memo_equals_uncached_on_every_pinned_window(pinned_windows):
    memo = {}
    reused = 0
    for w in pinned_windows["ppg"]:
        beats = detect_beats_batch([w])[0]
        before = set(memo)
        assert bits(ppg_features(w, beats, memo=memo)) == bits(ppg_features(w, beats))
        assert all(key[0] >= w.t_start_ns for key in memo)
        reused += len(before & set(memo))
    assert reused > 751 * 20  # most beats of a window come from the memo


def test_gaze_and_eda_equal_the_reference_on_every_pinned_window(pinned_windows):
    """Batched 10 at a time, as a live advance batches them: every gaze event
    and every EDA tonic, phasic and peak, bit for bit."""
    def decomposition(d):
        return d.tonic.tobytes(), d.phasic.tobytes(), d.peaks

    gaze, eda = pinned_windows["gaze"], pinned_windows["eda"]
    assert len(gaze) == len(eda) == 751
    n_events = 0
    for start in range(0, 751, 10):
        batch = gaze[start:start + 10]
        for found, w in zip(classify_gaze_batch(batch), batch):
            assert events(found) == events(classify_gaze_oracle(w))
            n_events += len(found)
        batch = eda[start:start + 10]
        for d, w in zip(eda_decompose_batch(batch), batch):
            assert decomposition(d) == decomposition(eda_decompose_oracle(w))
    assert n_events > 751 * 10
