"""Independent brute-force oracles, kept deliberately naive.

Pure-python loop implementations of the definitional formulas, written
without numpy so they share nothing with the library code they check. The
bag reader oracles and the batch export at the end are the exception: they
read records through the library's own verdicts, and the export computes
features with the library's own pipeline. evaluate_run, the reference for
the run tally, likewise applies the library's own run-end rule, and the
simulator's reference tick uses its placement, terrain and comms RNG.
The per-window feature reference calls the library's per-window stages and
runs the three stacked ones (band-pass, resp and HRV Welch) one window at a
time, through SciPy's own sosfiltfilt and a one-row welch.
"""

import bisect
import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy.signal import sosfiltfilt

from mwpipe.bag import (ValidationIssue, ValidationReport, _block_lines, header_lines,
                        iter_samples, judged_chunks, manifest_topics, read_manifest)
from mwpipe.bus import DEFAULT_ALIGN_TOLERANCE_NS, NS_PER_S, SampleBlock, TimedSample
from mwpipe.errors import (CorruptBag, IncompleteTrace, TooManyInvalidSamples, WindowTooShort,
                           WireError)
from mwpipe.export import JOINED_COLUMNS, META_TOPIC
from mwpipe.features import BIO_TOPICS, DEFAULT_THRESHOLDS, FEATURE_CATALOG, FeaturePipeline
from mwpipe.features.beats import BANDS, BeatSeries, _bandpass, _detect_ecg, _detect_ppg
from mwpipe.features.eda import eda_decompose, eda_features
from mwpipe.features.extract import MIN_QUALITY, window_quality
from mwpipe.features.gaze import classify_gaze, gaze_features
from mwpipe.features.hrv import (HF_BAND, LF_BAND, MAX_SEGMENT_S, TACHOGRAM_GRID_HZ, VLF_BAND,
                                 band_powers, hrv_stat_features)
from mwpipe.features.ppg import ppg_features
from mwpipe.features.respiration import RESP_HF_BAND, RESP_LF_BAND
from mwpipe.features.skintemp import st_features
from mwpipe.features.windowing import FeatureRow, SlidingWindower
from mwpipe.sim.operator import PolicyConfig, ScriptedOperator
from mwpipe.sim.outcome import RunOutcome, RunTally, run_end
from mwpipe.sim.difficulty import DifficultyParams
from mwpipe.sim.rover import (DEFAULT_PHYSICS, DT_S, OperatorAction, PhysicsParams, Prompt,
                              RoverSim, RoverState, Terrain, bearing_deg, wrap_deg)
from mwpipe.synth import GazeEvent


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


def make_windows(times_ns, values, modality: str, fs_hz: float,
                 len_s: float = 30.0, stride_s: float = 1.0,
                 t0_ns: int | None = None, end_ns: int | None = None):
    """Batch windowing of a finite stream: the reference for incremental
    windowing, through one SlidingWindower fed the whole stream.

    The stream is taken to span [t0, end); end defaults to one nominal
    sample period past the last sample, so a waveform of duration D yields
    floor((D-len)/stride)+1 windows.
    """
    times_ns = np.asarray(times_ns, dtype=np.int64)
    values = np.asarray(values)
    if len(times_ns) == 0:
        return []
    t0 = t0_ns if t0_ns is not None else int(times_ns[0])
    end = end_ns if end_ns is not None else int(times_ns[-1]) + round(NS_PER_S / fs_hz)
    w = SlidingWindower(modality, fs_hz, len_s, stride_s, t0_ns=t0)
    w.feed(times_ns, values)
    return w.advance_to(end)


def sample_time_ns(t0_ns, index, fs_hz):
    """Time of sample `index` on a uniform grid, rounded per index (no drift):
    the reference for Waveform.times_ns."""
    return t0_ns + round(index * 1_000_000_000 / fs_hz)


# -- the per-window feature extraction ------------------------------------------


def detect_beats_oracle(window):
    """detect_beats of one window, band-passed by sosfiltfilt itself."""
    x = np.asarray(window.values, dtype=float)
    sos, _, pad = _bandpass(*BANDS[window.modality], window.fs_hz)
    if len(x) <= pad or np.ptp(x) == 0.0:
        return BeatSeries(np.empty(0, dtype=np.int64))
    detect = _detect_ecg if window.modality == "ecg" else _detect_ppg
    return BeatSeries(window.times_ns[detect(sosfiltfilt(sos, x), window.fs_hz)])


def hrv_frequency_oracle(beats):
    """hrv_frequency of one beat series, through a one-row welch."""
    times_s, iv_ms = beats.tachogram()
    if len(iv_ms) < 3 or len(beats.beat_times_ns) < 4 or times_s[-1] - times_s[0] < 10.0:
        return {}
    grid = np.arange(times_s[0], times_s[-1] + 1e-12, 1.0 / TACHOGRAM_GRID_HZ)
    resampled = np.interp(grid, times_s, iv_ms)
    nperseg = min(len(resampled), int(MAX_SEGMENT_S * TACHOGRAM_GRID_HZ))
    vlf, lf, hf = band_powers(resampled, TACHOGRAM_GRID_HZ, nperseg,
                              (VLF_BAND, LF_BAND, HF_BAND)).tolist()
    return {"vlf_power_ms2": vlf, "lf_power_ms2": lf, "hf_power_ms2": hf,
            "total_power_ms2": vlf + lf + hf}


def resp_features_oracle(window):
    """resp_features of one window, through a one-row welch."""
    x = np.asarray(window.values, dtype=float)
    out = {}
    if len(x) == 0:
        return out
    mean = float(np.mean(x))
    out["rate_bpm"] = 60.0 * int(np.sum((x[:-1] < mean) & (x[1:] >= mean))) / window.span_s
    if len(x) >= 8 and np.ptp(x) > 0:
        nperseg = min(len(x), int(window.span_s * window.fs_hz))
        lf, hf = band_powers(x, window.fs_hz, nperseg, (RESP_LF_BAND, RESP_HF_BAND)).tolist()
        out["lf_power"] = lf
        out["hf_power"] = hf
        if hf > 0:
            out["power_ratio"] = lf / hf
    else:
        out["lf_power"] = 0.0
        out["hf_power"] = 0.0
    return out


def extract_window_oracle(window, ppg_baseline_pa=None, gaze_thresholds=DEFAULT_THRESHOLDS,
                          ppg_memo=None):
    """The row of one window, one stage at a time: the reference for
    extract_windows over any batch."""
    quality = window_quality(window)
    if quality < MIN_QUALITY:
        return FeatureRow(window.modality, window.t_end_ns, {}, quality)
    m = window.modality
    try:
        if m == "ecg":
            beats = detect_beats_oracle(window)
            values = hrv_stat_features(beats)
            values.update(hrv_frequency_oracle(beats))
        elif m == "ppg":
            values = ppg_features(window, detect_beats_oracle(window),
                                  baseline_pa=ppg_baseline_pa, memo=ppg_memo)
        elif m == "resp":
            values = resp_features_oracle(window)
        elif m == "eda":
            values = eda_features(eda_decompose(window))
        elif m == "st":
            values = st_features(window)
        else:
            values = gaze_features(classify_gaze(window, gaze_thresholds), window)
    except (TooManyInvalidSamples, WindowTooShort):
        return FeatureRow(m, window.t_end_ns, {}, quality)
    assert set(values) <= set(FEATURE_CATALOG[m])
    return FeatureRow(m, window.t_end_ns, values, quality)


# -- gaze scripts for the classifier tests -------------------------------------


def saccade_battery_script(n_saccades: int = 9, total_s: float = 30.0,
                           amplitude_deg: float = 8.0, saccade_s: float = 0.040) -> list[GazeEvent]:
    """n saccades separated by n+1 equal fixations, exactly total_s long.

    Saccades alternate direction so gaze stays near the origin.
    """
    fix_s = (total_s - n_saccades * saccade_s) / (n_saccades + 1)
    script = []
    cursor = 0.0
    direction = 0.0
    script.append(GazeEvent("fixation", cursor, fix_s, x_deg=-amplitude_deg / 2, y_deg=0.0))
    cursor += fix_s
    for _ in range(n_saccades):
        script.append(GazeEvent("saccade", cursor, saccade_s,
                                amplitude_deg=amplitude_deg, direction_deg=direction))
        cursor += saccade_s
        script.append(GazeEvent("fixation", cursor, fix_s))
        cursor += fix_s
        direction = 180.0 - direction
    return script


def pursuit_script(total_s: float = 30.0, pursuit_s: float = 2.0,
                   velocity_deg_s: float = 15.0) -> list[GazeEvent]:
    """One centered pursuit between two fixations."""
    fix_s = (total_s - pursuit_s) / 2
    off = velocity_deg_s * pursuit_s / 2
    return [
        GazeEvent("fixation", 0.0, fix_s, x_deg=-off, y_deg=0.0),
        GazeEvent("pursuit", fix_s, pursuit_s, velocity_deg_s=velocity_deg_s, direction_deg=0.0),
        GazeEvent("fixation", fix_s + pursuit_s, fix_s),
    ]


# -- the per-tick run trace and its outcome ------------------------------------


@dataclass
class TickRecord:
    state: RoverState
    action: OperatorAction
    events: list = field(default_factory=list)


def _sum_left(values) -> float:
    """values added left to right, as RunTally adds them (sum compensates
    rounding from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _comm_stats(trace) -> dict:
    latencies = []
    prompts = 0
    reprompts = 0
    for rec in trace:
        for ev in rec.events:
            if ev["event"] == "request" and ev["reprompts"] == 0:
                prompts += 1
            elif ev["event"] == "request":
                reprompts += 1
            elif ev["event"] == "response":
                latencies.append(ev["latency_s"])
    unanswered = 1 if trace and trace[-1].state.pending_prompt is not None else 0
    return {
        "comm_prompt_count": prompts,
        "comm_mean_latency_s": _sum_left(latencies) / len(latencies) if latencies else None,
        "comm_miss_count": reprompts + unanswered,
    }


def _radar_stats(trace) -> dict:
    episodes = 0
    recovery = []
    below_since = None
    for rec in trace:
        low = rec.state.radar_state < 4
        if low and below_since is None:
            below_since = rec.state.t_ns
            episodes += 1
        elif not low and below_since is not None:
            recovery.append((rec.state.t_ns - below_since) / NS_PER_S)
            below_since = None
    return {
        "radar_drop_count": episodes,
        "radar_mean_recovery_s": _sum_left(recovery) / len(recovery) if recovery else None,
    }


def evaluate_run(trace: list, sim: RoverSim) -> RunOutcome:
    """Apply the run-end rule to a per-tick trace of sim's run; a trace that
    never meets it is aborted."""
    if not trace:
        raise IncompleteTrace("empty trace")
    status = "aborted"
    end_index = len(trace) - 1
    for i, rec in enumerate(trace):
        end = run_end(sim, rec.state, rec.action)
        if end is not None:
            status, end_index = end, i
            break
    last = trace[end_index].state
    stats = _comm_stats(trace[: end_index + 1])
    stats.update(_radar_stats(trace[: end_index + 1]))
    return RunOutcome(
        status=status,
        completion_time_s=(last.t_ns - trace[0].state.t_ns) / NS_PER_S + DT_S,
        distance_m=last.distance_traveled_m,
        alert_response_stats=stats,
    )


def run_closed_loop(seed, difficulty, policy=PolicyConfig(), breath_rate_bpm=15.0,
                    timeout_s=720.0, physics=DEFAULT_PHYSICS):
    """Run one full closed-loop trial, as a session's run phase does without
    the bus; returns (trace, outcome), the outcome from the run's tally."""
    sim = RoverSim(seed, difficulty, physics)
    op = ScriptedOperator(policy, seed)
    tally = RunTally(sim)
    trace = []
    for _ in range(int(timeout_s / DT_S)):
        action = op.act(sim, sim.state)
        state, events = sim.step(action, breath_rate_bpm)
        trace.append(TickRecord(state, action, events))
        if tally.add(state, action, events) is not None:
            break
    return trace, tally.outcome()


# -- the simulator tick as three step functions ---------------------------------
# The reference for RoverSim.step: one state-to-state function per subsystem,
# each returning a copy of the state, composed as reference_step does.


def step_dynamics(s: RoverState, a: OperatorAction, breath_rate_bpm: float,
                  dt: float = DT_S, difficulty: DifficultyParams = None,
                  physics: PhysicsParams = DEFAULT_PHYSICS,
                  terrain: Terrain | None = None) -> RoverState:
    """Vehicle, thermal and resource dynamics for one tick (clamping, not faults)."""
    drain_scale = difficulty.battery_drain_scale if difficulty else 1.0
    temp_scale = difficulty.temp_gain_scale if difficulty else 1.0
    co2_scale = difficulty.co2_rate_scale if difficulty else 1.0

    battery = s.battery_pct
    overdrive_remaining = s.overdrive_remaining_s
    if a.overdrive and overdrive_remaining <= 0.0 and battery > physics.overdrive_cost_pct:
        overdrive_remaining = physics.overdrive_s
        battery -= physics.overdrive_cost_pct
    boosting = overdrive_remaining > 0.0

    # stall latch: on at stall_on_c, released once cooled to stall_off_c
    stalled = s.stalled
    if s.motor_temp_c >= physics.stall_on_c:
        stalled = True
    elif stalled and s.motor_temp_c <= physics.stall_off_c:
        stalled = False

    torque = 0.0 if stalled else a.throttle * (physics.overdrive_torque if boosting else 1.0)
    factor = terrain.speed_factor(s.x_m, s.y_m, s.heading_deg, physics) if terrain else 1.0
    speed = 0.0 if stalled else (
        a.throttle * physics.v_max_m_s * (physics.overdrive_speed if boosting else 1.0) * factor
    )

    temp = s.motor_temp_c + dt * (
        physics.k_temp * temp_scale * torque * torque
        - physics.k_cool * (s.motor_temp_c - physics.ambient_c)
    )
    battery -= dt * drain_scale * (
        physics.c_speed * speed
        + physics.c_torque * torque
        + physics.c_temp * max(0.0, s.motor_temp_c - 100.0)
    )
    o2 = s.o2_pct - dt * physics.k_o2 * breath_rate_bpm
    co2 = 0.0 if a.vent_co2 else s.co2_pct + dt * co2_scale * physics.k_co2 * breath_rate_bpm

    angular_vel = a.steer * physics.turn_rate_deg_s
    heading = wrap_deg(s.heading_deg + angular_vel * dt)
    h = math.radians(heading)
    x = min(max(s.x_m + speed * dt * math.cos(h), 0.0), physics.map_size_m)
    y = min(max(s.y_m + speed * dt * math.sin(h), 0.0), physics.map_size_m)

    return replace(
        s,
        t_ns=s.t_ns + round(dt * NS_PER_S),
        x_m=x,
        y_m=y,
        heading_deg=heading,
        speed_m_s=speed,
        angular_vel_deg_s=angular_vel,
        battery_pct=min(max(battery, 0.0), 100.0),
        motor_temp_c=min(max(temp, 20.0), 200.0),
        stalled=stalled,
        o2_pct=min(max(o2, 0.0), 100.0),
        co2_pct=min(max(co2, 0.0), 100.0),
        overdrive_remaining_s=max(0.0, overdrive_remaining - dt),
        distance_traveled_m=s.distance_traveled_m + speed * dt,
    )


def update_radar(s: RoverState, a: OperatorAction, dt: float = DT_S,
                 difficulty: DifficultyParams = None,
                 physics: PhysicsParams = DEFAULT_PHYSICS) -> RoverState:
    """Dish drift/slew and the 12-state antenna accuracy indicator."""
    decay = difficulty.radar_decay_deg_per_s if difficulty else 0.0
    dish = s.radar_heading_deg + s.angular_vel_deg_s * dt + decay * dt
    dish += a.rotate_dish * physics.dish_slew_deg_s * dt
    dish = wrap_deg(dish)
    err = abs(wrap_deg(dish - bearing_deg((s.x_m, s.y_m), physics.relay_pos_m)))
    state = int(min(max(11 - math.floor(err / physics.radar_state_span_deg), 0), 11))
    if state < 4:
        uncorrected = s.flash_uncorrected_s + dt
        flash_hz = physics.flash_base_hz * (2.0 ** math.floor(uncorrected / physics.flash_double_s))
    else:
        uncorrected = 0.0
        flash_hz = 0.0
    return replace(s, radar_heading_deg=dish, radar_state=state,
                   flash_uncorrected_s=uncorrected, flash_hz=flash_hz)


def step_comms(s: RoverState, a: OperatorAction, rng, next_arrival_ns: int,
               dt: float = DT_S, difficulty: DifficultyParams = None,
               physics: PhysicsParams = DEFAULT_PHYSICS):
    """Prompt arrivals, re-prompt halving, and response bookkeeping.

    Returns (state, next_arrival_ns, events); events are dicts published on
    the comms topic ({"request"/"response", kind, latency_s, ...}).
    """
    t = s.t_ns
    events = []
    pending = s.pending_prompt
    channel = s.comm_channel

    if pending is not None:
        answered = (
            (pending.kind == "switch" and a.switch_channel == pending.target)
            or (pending.kind == "report" and a.acknowledge)
        )
        if answered:
            latency_s = (t - pending.issued_t_ns) / NS_PER_S
            events.append({"event": "response", "kind": pending.kind,
                           "latency_s": latency_s, "reprompts": pending.reprompt_count})
            pending = None

    if a.switch_channel is not None:
        channel = a.switch_channel

    if pending is not None and t >= pending.next_reprompt_ns:
        count = pending.reprompt_count + 1
        gap_s = max(physics.reprompt_floor_s, physics.reprompt_base_s / (2 ** count))
        pending = replace(pending, reprompt_count=count,
                          next_reprompt_ns=t + round(gap_s * NS_PER_S))
        events.append({"event": "request", "kind": pending.kind,
                       "target": pending.target or "", "reprompts": count})

    if pending is None and t >= next_arrival_ns:
        mean = difficulty.comm_mean_interval_s if difficulty else 45.0
        if rng.random() < physics.report_in_fraction:
            kind, target = "report", None
        else:
            kind, target = "switch", ("B" if channel == "A" else "A")
        pending = Prompt(kind, target, t,
                         next_reprompt_ns=t + round(physics.reprompt_base_s * NS_PER_S))
        events.append({"event": "request", "kind": kind, "target": target or "", "reprompts": 0})
        next_arrival_ns = t + round(float(rng.exponential(mean)) * NS_PER_S)

    return replace(s, pending_prompt=pending, comm_channel=channel), next_arrival_ns, events


def reference_step(sim: RoverSim, action: OperatorAction, breath_rate_bpm: float):
    """One tick of sim by the three step functions, as RoverSim.step
    composed them; advances sim's state and comms RNG the same way."""
    s = sim.state
    if sim.task_active:
        s = step_dynamics(s, action, breath_rate_bpm, DT_S, sim.difficulty,
                          sim.physics, sim.terrain)
        s = update_radar(s, action, DT_S, sim.difficulty, sim.physics)
        s, sim._next_arrival_ns, events = step_comms(
            s, action, sim._rng, sim._next_arrival_ns, DT_S,
            sim.difficulty, sim.physics)
    else:
        frozen = (s.battery_pct, s.o2_pct, s.co2_pct)
        s = step_dynamics(s, action, 0.0, DT_S, None, sim.physics, sim.terrain)
        s = replace(s, battery_pct=frozen[0], o2_pct=frozen[1], co2_pct=frozen[2],
                    radar_state=11, flash_hz=0.0, flash_uncorrected_s=0.0)
        events = []
    sim.state = s
    return s, events


# -- whole-bag reads for the tests ---------------------------------------------


def group_samples(group):
    """The rows of a judged topic's Rows as TimedSamples, in row order."""
    return list(map(TimedSample, repeat(group.topic), group.t.tolist(), group.seq,
                    group.payloads()))


def load_samples(path):
    """Every sample of a bag, as iter_samples yields them."""
    return [s for _, s in iter_samples(path)]


def block_samples(block):
    """The rows of a SampleBlock as TimedSamples, an absent field left out."""
    return [TimedSample(block.topic, t, block.seq0 + i,
                        {f: v for f, v in zip(block.fields, values) if v is not None})
            for i, (t, *values) in enumerate(zip(block.times_ns, *block.columns))]


def record_line(sample, schema):
    """The line BagWriter writes for one record whose payload is canonical
    for schema, formatted as the one row of a block."""
    block = SampleBlock(sample.topic, [sample.t_ns], sample.seq, tuple(schema),
                        [[sample.payload.get(f)] for f in schema])
    return _block_lines(block, tuple(schema.values()))[0]


def body_bytes(path):
    """Record body of a bag (everything after magic and manifest lines)."""
    with open(path, "rb") as fh:
        fh.readline()
        fh.readline()
        return fh.read()


# -- the per-record bag readers ------------------------------------------------
#
# validate, replay and serve_bag as loops over one record at a time. They
# take the judge's verdict on each record (records, below), so they check
# what the columnar readers do with it, not the judge.


def records(path):
    """Yield (byte_offset, sample, reason) per record line of a bag, in file
    order, as judged_chunks judges it: sample is None for a line that cannot
    be decoded; reason is why a record is refused, or None."""
    for chunk in judged_chunks(path):
        accepted = [(row, sample, None) for g in chunk.groups
                    for row, sample in zip(g.rows.tolist(), group_samples(g))]
        for row, sample, reason in sorted(accepted + chunk.refused, key=itemgetter(0)):
            yield int(chunk.offsets[row]), sample, reason


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
    for offset, sample, misfit in records(path):
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


# -- the batch feature-table export ---------------------------------------------


class AlignedFrame(NamedTuple):
    """One anchor sample joined with the nearest-in-time sample per other topic."""

    anchor_topic: str
    anchor_t_ns: int
    joined: dict  # topic -> (TimedSample, offset_ns)


def _nearest_index(times: Sequence[int], t: int) -> int | None:
    """Index of the sample nearest t; earlier sample wins exact ties."""
    if not times:
        return None
    i = bisect.bisect_right(times, t)
    if i == 0:
        return 0
    if i == len(times):
        return len(times) - 1
    before, after = times[i - 1], times[i]
    # |t-before| <= |after-t| keeps the earlier sample on ties
    return i - 1 if t - before <= after - t else i


def align_nearest_samples(
    anchor_samples: Sequence[TimedSample],
    others: Mapping[str, Sequence[TimedSample]],
    tolerance_ns: int,
) -> list[AlignedFrame]:
    """One frame per anchor sample; each other topic joins its nearest
    sample when |offset| <= tolerance_ns, else is absent from the frame."""
    if tolerance_ns <= 0:
        raise ValueError("tolerance_ns must be positive")
    other_times = {name: [s.t_ns for s in samples] for name, samples in others.items()}
    frames = []
    for a in anchor_samples:
        joined = {}
        for name, samples in others.items():
            idx = _nearest_index(other_times[name], a.t_ns)
            if idx is None:
                continue
            cand = samples[idx]
            offset = cand.t_ns - a.t_ns
            if abs(offset) <= tolerance_ns:
                joined[name] = (cand, offset)
        frames.append(AlignedFrame(a.topic, a.t_ns, joined))
    return frames


def _baseline_interval(meta_samples):
    start = None
    for s in meta_samples:
        phase = s.payload.get("phase")
        if start is None and phase == "baseline":
            start = s.t_ns
        elif start is not None and phase != "baseline":
            return start, s.t_ns
    return None


def _csv_cell(value) -> str:
    """A joined value or feature as a CSV cell, quoted as RFC 4180 quotes a
    field that holds a comma, a double quote, CR or LF."""
    if isinstance(value, bool):
        text = "true" if value else "false"
    elif isinstance(value, float):
        text = repr(value)
    else:
        text = str(value)
    if set(text) & set(',"\r\n'):
        text = '"%s"' % text.replace('"', '""')
    return text


def extract_csv_oracle(bag_path, out_path, window_s=30.0, stride_s=1.0,
                       align_tolerance_ns=DEFAULT_ALIGN_TOLERANCE_NS,
                       gaze_thresholds=DEFAULT_THRESHOLDS):
    """export.extract_csv as one batch over the whole bag: every bio column,
    joined sample and feature row is held until the end. The pipeline only
    knows the modalities the bag holds, and the PPG baseline is frozen by
    hand from the rows that end where sim.meta leaves the baseline phase,
    when the streams reach that far."""
    bio_fields = {f"bio.{m}": (m, t.fields) for m, t in BIO_TOPICS.items()}
    bio = {}  # modality -> [(times, values)] in bag order
    joined = {t: [] for t in JOINED_COLUMNS}
    for chunk in judged_chunks(bag_path):
        if chunk.refused:
            row, _, reason = chunk.refused[0]
            raise CorruptBag(f"record at byte {int(chunk.offsets[row])} is refused: {reason}")
        for group in chunk.groups:
            if group.topic in bio_fields:
                m, fields = bio_fields[group.topic]
                columns = dict(zip(group.fields, group.columns))
                values = [np.asarray(columns[f], dtype=float) for f in fields]
                bio.setdefault(m, []).append(
                    (group.t, values[0] if len(values) == 1 else np.column_stack(values)))
            elif group.topic in joined:
                joined[group.topic].extend(group_samples(group))

    modalities = tuple(sorted(bio))
    rows = []
    if modalities:
        streams = {m: (np.concatenate([t for t, _ in bio[m]]),
                       np.concatenate([v for _, v in bio[m]])) for m in modalities}
        t0 = min(int(streams[m][0][0]) for m in modalities)
        end = max(int(streams[m][0][-1]) + round(NS_PER_S / BIO_TOPICS[m].rate_hz)
                  for m in modalities)
        pipeline = FeaturePipeline(len_s=window_s, stride_s=stride_s, t0_ns=t0,
                                   modalities=modalities, gaze_thresholds=gaze_thresholds)
        for m in modalities:
            pipeline.feed(m, *streams[m])
        baseline = _baseline_interval(joined[META_TOPIC])
        if baseline is not None and baseline[1] <= end:
            rows.extend(pipeline.advance_to(baseline[1]))
            pas = [r.values["digital_pa"] for r in rows
                   if r.modality == "ppg" and "digital_pa" in r.values]
            if pas and float(np.mean(pas)) > 0:
                pipeline.ppg_baseline_pa = float(np.mean(pas))
        rows.extend(pipeline.advance_to(end))

    table = {}
    for row in rows:
        cells = table.setdefault(row.t_end_ns, {})
        for k, v in row.values.items():
            cells[f"{row.modality}.{k}"] = v
        cells[f"{row.modality}.quality"] = row.quality

    t_ends = sorted(table)
    anchors = [TimedSample("rows", t, i, {}) for i, t in enumerate(t_ends)]
    frames = align_nearest_samples(anchors, joined, align_tolerance_ns) if anchors else []
    for t_end, frame in zip(t_ends, frames):
        cells = table[t_end]
        for topic, (sample, _) in frame.joined.items():
            for f, column in JOINED_COLUMNS[topic].items():
                cells[column] = sample.payload[f]

    columns = set()
    for m in modalities:
        columns.update(f"{m}.{feat}" for feat in FEATURE_CATALOG[m])
        columns.add(f"{m}.quality")
    for topic, fields in JOINED_COLUMNS.items():
        if joined[topic]:
            columns.update(fields.values())
    ordered = sorted(columns)

    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["t_end_ns"] + ordered) + "\n")
        for t_end in t_ends:
            cells = table[t_end]
            line = [str(t_end)] + [
                _csv_cell(cells[c]) if c in cells else "" for c in ordered
            ]
            fh.write(",".join(line) + "\n")
    return str(out_path)
