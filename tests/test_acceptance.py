"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The default full-length
session is executed once and shared by the bag-level criteria; criterion 7
runs a second identical session for the determinism comparison.
"""

import functools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from mwpipe.bag import BagWriter, iter_samples, replay, validate
from mwpipe.bus import Bus, NS_PER_S
from mwpipe.export import extract_csv
from mwpipe.features.beats import BeatSeries, detect_beats_batch
from mwpipe.features.eda import eda_decompose_batch
from mwpipe.features.gaze import classify_gaze_batch, gaze_features
from mwpipe.features.hrv import hrv_frequency_batch, hrv_stat_features
from mwpipe.session import SessionPlan, run_session
from mwpipe.sim.difficulty import HIGH, LOW
from mwpipe.sim.rover import OperatorAction, RoverSim
from mwpipe.synth import (
    SynthProfile,
    gen_eda,
    gen_gaze,
    gen_rr_series,
    render_cardiac,
)
from oracles import (body_bytes, hrv_oracle, make_windows, pursuit_script, run_closed_loop,
                     saccade_battery_script)


def _report(n, detail=""):
    print(f"\ncriterion {n}: PASS {detail}".rstrip())


def criterion(n):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {n}: FAIL")
                raise
        return wrapper
    return deco


@pytest.fixture(scope="module")
def default_session(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "default.bag"
    plan = SessionPlan(seed=11)
    t0 = time.monotonic()
    result = run_session(plan, path)
    wall_s = time.monotonic() - t0
    return plan, result, wall_s


@criterion(1)
def test_criterion_1_hand_oracle_hrv():
    t0 = time.monotonic()
    reference = [780.0, 800.0, 820.0, 810.0, 790.0]
    got = hrv_stat_features(BeatSeries(np.empty(0), intervals_ms=reference))
    # spec-stated values, each checked at its printed precision and at the
    # stated 1e-3 where that precision allows it
    stated = {
        "rmssd_ms": (18.028, 1e-3),
        "rr_std_ms": (14.142, 1e-3),
        "sd1_ms": (12.748, 1e-3),
        "sd2_ms": (15.411, 1e-3),
        "sdell_ms2": (617.2, 0.05),  # printed to one decimal; see notes
        "pnn10": (75.0, 1e-3),
        "tri_index": (5.0, 1e-3),
    }
    for key, (value, tol) in stated.items():
        assert abs(got[key] - value) <= tol, (key, got[key], value)
    rng = np.random.default_rng(777)
    for _ in range(1000):
        iv = rng.uniform(300.0, 1500.0, int(rng.integers(3, 80)))
        mine = hrv_stat_features(BeatSeries(np.empty(0), intervals_ms=iv))
        oracle = hrv_oracle(list(iv))
        assert set(mine) == set(oracle)
        for k, v in oracle.items():
            assert mine[k] == pytest.approx(v, rel=1e-9), k
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, f"(1000-series oracle match in {elapsed:.2f} s)")


@criterion(2)
def test_criterion_2_beat_recovery():
    t0 = time.monotonic()
    p = SynthProfile(seed=2, duration_s=600, rr_mean_ms=800, rr_sdnn_ms=0,
                     hf_mod_depth_ms=0)
    ecg = render_cardiac(gen_rr_series(p), "ecg")
    n_intervals = 0
    for w in make_windows(ecg.times_ns(), ecg.values, "ecg", ecg.fs_hz,
                          len_s=30, stride_s=30, end_ns=ecg.end_ns):
        beats = detect_beats_batch([w])[0]
        assert np.all(np.abs(beats.intervals_ms - 800.0) <= 4.0)
        n_intervals += len(beats.intervals_ms)
    assert n_intervals > 600
    p2 = SynthProfile(seed=3, duration_s=30, rr_mean_ms=1000, rr_sdnn_ms=0,
                      hf_mod_depth_ms=0)
    ppg = render_cardiac(gen_rr_series(p2), "ppg")
    (w,) = make_windows(ppg.times_ns(), ppg.values, "ppg", ppg.fs_hz,
                        len_s=30, stride_s=30, end_ns=ppg.end_ns)
    mean_iv = float(np.mean(detect_beats_batch([w])[0].intervals_ms))
    assert abs(mean_iv - 1000.0) <= 16.0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(2, f"({n_intervals} ECG intervals within 4 ms, PPG mean "
               f"{mean_iv:.1f} ms, {elapsed:.2f} s)")


@criterion(3)
def test_criterion_3_spectral_band_placement():
    for seed in range(20):
        p = SynthProfile(seed=seed, duration_s=30, rr_mean_ms=800, rr_sdnn_ms=0,
                         hf_mod_hz=0.25, hf_mod_depth_ms=20.0)
        beats = BeatSeries((gen_rr_series(p).beat_times_s() * 1e9).astype(np.int64))
        f = hrv_frequency_batch([beats])[0]
        assert f["hf_power_ms2"] / f["total_power_ms2"] > 0.8, seed
    for seed in range(20):
        p = SynthProfile(seed=seed, duration_s=30, rr_mean_ms=800, rr_sdnn_ms=0,
                         hf_mod_hz=0.10, hf_mod_depth_ms=20.0)
        beats = BeatSeries((gen_rr_series(p).beat_times_s() * 1e9).astype(np.int64))
        f = hrv_frequency_batch([beats])[0]
        assert f["lf_power_ms2"] > f["hf_power_ms2"], seed
    _report(3, "(20 seeds per band)")


@criterion(4)
def test_criterion_4_eda_counts_and_additivity():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng([seed, 99])
        t1 = 4.0 + 1.5 * rng.random()
        t2 = t1 + 8.0 + 1.5 * rng.random()
        t3 = t2 + 8.0 + 1.5 * rng.random()
        p = SynthProfile(seed=seed, eda_tonic_uS=0.5, duration_s=30,
                         scr_events=[(t1, 0.05), (t2, 0.05), (t3, 0.05)])
        wf = gen_eda(p)
        (w,) = make_windows(wf.times_ns(), wf.values, "eda", wf.fs_hz,
                            len_s=30, stride_s=30, end_ns=wf.end_ns)
        d = eda_decompose_batch([w])[0]
        assert np.array_equal(d.tonic + d.phasic, np.asarray(w.values))
        if len(d.peaks) == 3:
            hits += 1
    assert hits >= 95
    _report(4, f"({hits}/100 windows with exactly 3 peaks, additivity exact)")


@criterion(5)
def test_criterion_5_gaze_exact_counts():
    wf = gen_gaze(saccade_battery_script(), fixation_noise_deg=0.0, seed=0)
    (w,) = make_windows(wf.times_ns(), wf.values, "gaze", wf.fs_hz,
                        len_s=30, stride_s=30, end_ns=wf.end_ns)
    events = classify_gaze_batch([w])[0]
    counts = defaultdict(int)
    for e in events:
        counts[e.kind] += 1
    assert counts["saccade"] == 9
    assert counts["fixation"] == 10
    feats = gaze_features(events, w)
    assert feats["saccade_freq_hz"] == 0.3
    wf2 = gen_gaze(pursuit_script(), fixation_noise_deg=0.0, seed=0)
    (w2,) = make_windows(wf2.times_ns(), wf2.values, "gaze", wf2.fs_hz,
                         len_s=30, stride_s=30, end_ns=wf2.end_ns)
    pursuits = [e for e in classify_gaze_batch([w2])[0] if e.kind == "pursuit"]
    assert len(pursuits) == 1
    _report(5, "(9 saccades / 10 fixations / 1 pursuit, 0.300 Hz)")


@criterion(6)
def test_criterion_6_windowing():
    fs = 4.0
    n = int(60 * fs)
    times = np.array([round(i * NS_PER_S / fs) for i in range(n)], dtype=np.int64)
    wins = make_windows(times, np.zeros(n), "eda", fs, len_s=30, stride_s=1,
                        end_ns=60 * NS_PER_S)
    assert len(wins) == 31
    for w in wins:
        assert w.t_end_ns - w.t_start_ns == 30 * NS_PER_S
    for a, b in zip(wins, wins[1:]):
        assert b.t_end_ns - a.t_end_ns == NS_PER_S
    _report(6, "(31 rows from 60 s, spans exact in ns)")


@criterion(7)
def test_criterion_7_determinism(default_session, tmp_path_factory):
    plan, result, _ = default_session
    tmp = tmp_path_factory.mktemp("det")
    second = run_session(SessionPlan(seed=plan.seed), tmp / "second.bag")
    assert body_bytes(result.bag_path) == body_bytes(second.bag_path)
    bus = Bus()
    w = BagWriter(tmp / "replayed.bag", bus)
    replay(result.bag_path, bus=bus, rate="max")
    w.close()
    live_csv = extract_csv(result.bag_path, tmp / "live.csv")
    replayed_csv = extract_csv(tmp / "replayed.bag", tmp / "replayed.csv")
    assert Path(live_csv).read_bytes() == Path(replayed_csv).read_bytes()
    _report(7, "(bag bodies and live-vs-replay CSV byte-identical)")


@criterion(8)
def test_criterion_8_telemetry_contract(default_session):
    plan, result, _ = default_session
    phases = result.phases
    rover_per_phase = defaultdict(int)
    radar_states = set()
    last = {}
    for _, sample in iter_samples(result.bag_path):
        if sample.topic in last:
            prev_t, prev_seq = last[sample.topic]
            assert sample.t_ns > prev_t
            assert sample.seq == prev_seq + 1
        last[sample.topic] = (sample.t_ns, sample.seq)
        if sample.topic == "sim.rover":
            for name, start, end in phases:
                if start <= sample.t_ns < end:
                    rover_per_phase[(name, start)] += 1
                    break
        elif sample.topic == "sim.radar":
            radar_states.add(sample.payload["state"])
    for name, start, end in phases:
        expected = round((end - start) / 1e9 * 10)
        assert rover_per_phase[(name, start)] == expected, name
    assert radar_states <= set(range(12))
    report = validate(result.bag_path)
    assert report.ok, [str(i) for i in report.issues[:5]]
    _report(8, f"(10 Hz exact per phase, radar states {sorted(radar_states)}, "
               "validate clean)")


@criterion(9)
def test_criterion_9_simulator_invariants():
    stats = {}
    for level, diff in (("low", LOW), ("high", HIGH)):
        drains, prompts = [], []
        for seed in range(30):
            trace, out = run_closed_loop(seed, diff)
            o2 = [r.state.o2_pct for r in trace]
            bat = [r.state.battery_pct for r in trace]
            assert all(b <= a for a, b in zip(o2, o2[1:])), (level, seed)
            assert all(b <= a for a, b in zip(bat, bat[1:])), (level, seed)
            for prev, rec in zip(trace, trace[1:]):
                if prev.state.motor_temp_c >= 140.0:
                    assert rec.state.stalled
                if rec.state.stalled:
                    assert rec.state.speed_m_s == 0.0
                if prev.state.stalled and not rec.state.stalled:
                    assert prev.state.motor_temp_c <= 90.0
            drains.append(100.0 - trace[-1].state.battery_pct)
            prompts.append(out.alert_response_stats["comm_prompt_count"])
        stats[level] = (float(np.mean(prompts)), float(np.mean(drains)))
    assert stats["high"][0] > stats["low"][0]
    assert stats["high"][1] > stats["low"][1]

    # force a stall to keep the latch clause non-vacuous
    sim = RoverSim(1, HIGH)
    s = sim.state
    stalled_at = released_at = None
    for _ in range(6000):
        throttle = 0.0 if s.stalled else 1.0
        s, _ = sim.step(OperatorAction(throttle=throttle, overdrive=True), 15.0)
        if s.stalled and stalled_at is None:
            stalled_at = s.motor_temp_c
            assert s.speed_m_s == 0.0
        if stalled_at is not None and not s.stalled:
            released_at = s.motor_temp_c
            break
    assert stalled_at is not None and stalled_at >= 140.0
    assert released_at is not None and released_at <= 90.0
    _report(9, f"(prompts {stats['low'][0]:.1f}->{stats['high'][0]:.1f}, "
               f"drain {stats['low'][1]:.1f}->{stats['high'][1]:.1f}%, "
               f"stall latch {stalled_at:.0f}->{released_at:.0f} C)")


@criterion(10)
def test_criterion_10_protocol_conformance(default_session):
    plan, result, _ = default_session
    tick_ns = 100_000_000
    baseline = result.phases[0]
    assert baseline[0] == "baseline"
    assert abs((baseline[2] - baseline[1]) - round(plan.baseline_s * 1e9)) <= tick_ns
    gaps = [p for p in result.phases if p[0] == "freeplay"]
    assert len(gaps) == 3
    for _, start, end in gaps:
        assert abs((end - start) - round(plan.interrun_s * 1e9)) <= tick_ns
    runs = [r for r in result.run_records]
    assert len(runs) == 4
    assert sorted(r.difficulty for r in runs) == ["high", "high", "low", "low"]
    order = [r.difficulty for r in runs]
    assert all(a != b for a, b in zip(order, order[1:]))
    tlx_count = 0
    for _, sample in iter_samples(result.bag_path):
        if sample.topic == "survey.tlx":
            tlx_count += 1
            for scale in ("mental", "physical", "temporal", "performance",
                          "effort", "frustration"):
                assert 0 <= sample.payload[scale] <= 100
    assert tlx_count == 4
    _report(10, f"(300 s baseline, 180 s gaps, order {order}, 4 in-range TLX)")


@criterion(11)
def test_criterion_11_performance(default_session):
    _, _, wall_s = default_session
    assert wall_s < 60.0
    _report(11, f"(full default session incl. extraction and bag write in "
                f"{wall_s:.1f} s)")
