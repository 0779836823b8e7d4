"""Deterministic seeded generators for the six raw biosignals.

Each generator returns a Waveform carrying its own ground truth (beat times,
SCR events, breath rate, gaze script) so downstream detectors can be checked
against what was actually synthesized. Identical profile (including seed)
yields bit-identical output.

Shapes are the simplest standard parametric forms that exercise the
detectors: Gaussian-bump ECG, rise/decay PPG pulse with a dicrotic bump,
biexponential skin-conductance responses, minimum-jerk saccades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bus import NS_PER_S
from .errors import EmptySeries, InvalidProfile, OverlapTooDense, OverlappingEvents
from .features.catalog import BIO_TOPICS

ECG_FS = BIO_TOPICS["ecg"].rate_hz
PPG_FS = BIO_TOPICS["ppg"].rate_hz
RESP_FS = BIO_TOPICS["resp"].rate_hz
EDA_FS = BIO_TOPICS["eda"].rate_hz
ST_FS = BIO_TOPICS["st"].rate_hz
GAZE_FS = BIO_TOPICS["gaze"].rate_hz

# RNG substream ids, so generators stay independent under one seed.
_STREAM_RR = 1
_STREAM_EDA = 2
_STREAM_ST = 3
_STREAM_GAZE = 4

# SCR kernel time constants (s): fast rise, slower decay.
SCR_TAU_RISE = 0.75
SCR_TAU_DECAY = 2.0
# Time (s) after onset at which the kernel exp(-t/decay) - exp(-t/rise)
# peaks, and its value there, which scales each event to its amplitude.
_SCR_PEAK_S = (math.log(SCR_TAU_DECAY / SCR_TAU_RISE) * SCR_TAU_RISE * SCR_TAU_DECAY
               / (SCR_TAU_DECAY - SCR_TAU_RISE))
_SCR_PEAK_GAIN = math.exp(-_SCR_PEAK_S / SCR_TAU_DECAY) - math.exp(-_SCR_PEAK_S / SCR_TAU_RISE)

# PPG pulse: rise/decay time constants (s) and dicrotic bump placement.
PPG_TAU_RISE = 0.04
PPG_TAU_DECAY = 0.22
PPG_DICROTIC_FRAC = 0.45
PPG_DICROTIC_AMP = 0.22
PPG_DC_FRAC = 0.3  # rendered range is [-0.3, +0.7] * amplitude
# argmax of the primary pulse (1-exp(-t/a))exp(-t/b), a*ln((a+b)/a), and its value there.
_PPG_PEAK_TAU = PPG_TAU_RISE * math.log((PPG_TAU_RISE + PPG_TAU_DECAY) / PPG_TAU_RISE)
_PPG_PEAK = ((1.0 - math.exp(-_PPG_PEAK_TAU / PPG_TAU_RISE))
             * math.exp(-_PPG_PEAK_TAU / PPG_TAU_DECAY))

# ECG template bumps: (offset_s from beat, sigma_s, amplitude).
ECG_BUMPS = (
    (-0.180, 0.025, 0.12),   # P
    (-0.025, 0.010, -0.18),  # Q
    (0.000, 0.012, 1.10),    # R
    (0.028, 0.011, -0.32),   # S
    (0.300, 0.055, 0.28),    # T
)

PSO_DEFAULT_AMP_DEG = 0.3
PSO_FREQ_HZ = 12.0
PSO_TAU_S = 0.025


@dataclass(frozen=True)
class GazeEvent:
    """One scripted eye-movement segment. Params by kind:

    fixation: x_deg, y_deg target (None holds current position)
    saccade:  amplitude_deg along direction_deg
    pursuit:  velocity_deg_s along direction_deg
    pso:      damped oscillation along direction_deg (amplitude_deg optional)
    """

    kind: str
    start_s: float
    duration_s: float
    x_deg: float | None = None
    y_deg: float | None = None
    amplitude_deg: float | None = None
    velocity_deg_s: float | None = None
    direction_deg: float = 0.0

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class SynthProfile:
    """Ground-truth parameters for one synthesis pass; all noise is seeded."""

    seed: int = 0
    duration_s: float = 60.0
    # cardiac
    rr_mean_ms: float = 800.0
    rr_sdnn_ms: float = 25.0
    hf_mod_hz: float = 0.25
    hf_mod_depth_ms: float = 0.0
    ppg_amplitude: float = 100.0
    # respiration
    resp_rate_bpm: float = 15.0
    # electrodermal
    eda_tonic_uS: float = 0.56
    eda_drift_uS_per_min: float = 0.0
    eda_noise_uS: float = 0.0
    scr_events: list = field(default_factory=list)  # [(time_s, amplitude_uS)]
    # skin temperature
    st_base_c: float = 31.0
    st_drift_c_per_min: float = 0.0
    st_noise_c: float = 0.02
    # gaze
    gaze_script: list = field(default_factory=list)
    pupil_base_mm: float = 4.5
    fixation_noise_deg: float = 0.1

    def validate(self):
        """self, if every generator accepts it and its duration fits in int64
        nanoseconds; otherwise InvalidProfile."""
        if self.seed < 0:
            raise InvalidProfile(f"seed must not be negative: {self.seed!r:.40}")
        if not 0 < self.duration_s * NS_PER_S < 2**63:
            raise InvalidProfile(f"duration_s must be positive and under 2**63 ns: "
                                 f"{self.duration_s}")
        if self.rr_mean_ms <= 0:
            raise InvalidProfile(f"rr_mean_ms must be positive: {self.rr_mean_ms}")
        if not 4.0 < self.resp_rate_bpm < 60.0:
            raise InvalidProfile(f"resp_rate_bpm must be in (4, 60): {self.resp_rate_bpm}")
        if not 25.0 <= self.st_base_c <= 40.0:
            raise InvalidProfile(f"st_base_c outside [25, 40]: {self.st_base_c}")
        if not 3.0 <= self.pupil_base_mm <= 6.0:
            raise InvalidProfile(f"pupil_base_mm outside [3, 6]: {self.pupil_base_mm}")
        if self.eda_tonic_uS <= 0:
            raise InvalidProfile(f"eda_tonic_uS must be positive: {self.eda_tonic_uS}")
        _scr_events(self.scr_events)
        prev_end = -math.inf
        for ev in self.gaze_script:
            if ev.kind not in ("fixation", "saccade", "pursuit", "pso"):
                raise InvalidProfile(f"unknown gaze event kind {ev.kind!r}")
            if ev.duration_s <= 0:
                raise InvalidProfile("gaze event duration must be positive")
            if ev.start_s < prev_end - 1e-12:
                raise OverlappingEvents(
                    f"{ev.kind} at {ev.start_s}s overlaps previous event ending {prev_end}s")
            prev_end = ev.end_s
        return self


@dataclass
class RRSeries:
    """Beat-to-beat intervals; cumulative sums give beat times from 0."""

    intervals_ms: np.ndarray

    def beat_times_s(self) -> np.ndarray:
        """Start time of each interval, in s (one beat per interval)."""
        iv_s = np.asarray(self.intervals_ms, dtype=float) / 1000.0
        return np.concatenate(([0.0], np.cumsum(iv_s)[:-1]))

    @property
    def span_s(self) -> float:
        return float(np.sum(self.intervals_ms) / 1000.0)


@dataclass
class Waveform:
    """A uniformly sampled stream plus the generator's ground truth.

    nominal_duration_ns is the requested recording length; it can exceed the
    span of the sample times when the rate does not divide the duration
    (e.g. 30 s at 1.008 Hz holds 30 samples spanning 28.8 s).
    """

    modality: str
    fs_hz: float
    values: np.ndarray  # shape (n,) or (n, k)
    t0_ns: int = 0
    truth: dict = field(default_factory=dict)
    nominal_duration_ns: int | None = None

    @property
    def n(self) -> int:
        return len(self.values)

    def times_ns(self) -> np.ndarray:
        """Sample times: t0 + round(i * NS_PER_S / fs) per index i (np.rint
        rounds half to even, as round does)."""
        idx = np.arange(self.n, dtype=np.int64)
        return self.t0_ns + np.rint(idx * NS_PER_S / self.fs_hz).astype(np.int64)

    @property
    def duration_ns(self) -> int:
        if self.nominal_duration_ns is not None:
            return self.nominal_duration_ns
        return round(self.n * NS_PER_S / self.fs_hz)

    @property
    def end_ns(self) -> int:
        return self.t0_ns + self.duration_ns


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _sample_times(duration_s: float, fs: float) -> np.ndarray:
    """The time in s of every whole sample period at fs within duration_s."""
    return np.arange(int(duration_s * fs + 1e-9)) / fs


# -- cardiac -------------------------------------------------------------------


def gen_rr_series(profile: SynthProfile) -> RRSeries:
    """Beat intervals: mean + seeded gaussian + sinusoidal HF modulation.

    interval_k = rr_mean + N(0, rr_sdnn) + hf_mod_depth * sin(2*pi*hf_mod_hz*t_k)
    where t_k is the beat time at the start of interval k. Generation stops
    once the cumulative span reaches duration_s.
    """
    profile.validate()
    rng = _rng(profile.seed, _STREAM_RR)
    intervals = []
    t = 0.0
    while t < profile.duration_s:
        iv = profile.rr_mean_ms
        if profile.rr_sdnn_ms > 0:
            iv += rng.standard_normal() * profile.rr_sdnn_ms
        if profile.hf_mod_depth_ms != 0.0:
            iv += profile.hf_mod_depth_ms * math.sin(2.0 * math.pi * profile.hf_mod_hz * t)
        iv = min(max(iv, 200.001), 2999.999)
        intervals.append(iv)
        t += iv / 1000.0
    return RRSeries(np.array(intervals, dtype=float))


def _ecg_from_beats(beat_times_s: np.ndarray, duration_s: float, fs: float) -> np.ndarray:
    t = _sample_times(duration_s, fs)
    x = np.zeros(len(t))
    for bt in beat_times_s:
        for off, sigma, amp in ECG_BUMPS:
            lo = np.searchsorted(t, bt + off - 5 * sigma)
            hi = np.searchsorted(t, bt + off + 5 * sigma)
            if hi > lo:
                seg = t[lo:hi] - (bt + off)
                x[lo:hi] += amp * np.exp(-0.5 * (seg / sigma) ** 2)
    return x


def _ppg_pulse_shape(tau: np.ndarray, interval_s: float) -> np.ndarray:
    primary = (1.0 - np.exp(-tau / PPG_TAU_RISE)) * np.exp(-tau / PPG_TAU_DECAY)
    primary /= _PPG_PEAK
    mu = PPG_DICROTIC_FRAC * interval_s
    sigma = 0.05 * interval_s
    bump = PPG_DICROTIC_AMP * np.exp(-0.5 * ((tau - mu) / sigma) ** 2)
    return primary + bump


def render_cardiac(rr: RRSeries, modality: str, amplitude: float | None = None) -> Waveform:
    """Sample an ECG (252 Hz) or PPG (64 Hz) waveform from beat intervals.

    ECG places one Gaussian-bump PQRST template per beat (range within the
    plotted [-0.5, 1.5]); PPG places one rise/decay pulse with a dicrotic
    bump per beat. Ground-truth beat times ride along in .truth.
    """
    if len(rr.intervals_ms) == 0:
        raise EmptySeries("RR series has no intervals")
    beat_times = rr.beat_times_s()
    duration = rr.span_s
    if modality == "ecg":
        fs = ECG_FS
        x = _ecg_from_beats(beat_times, duration, fs)
        truth_beats = np.array([round(bt * NS_PER_S) for bt in beat_times], dtype=np.int64)
        truth = {"beat_times_ns": truth_beats, "intervals_ms": rr.intervals_ms.copy()}
        return Waveform("ecg", fs, x, 0, truth, round(duration * NS_PER_S))
    if modality == "ppg":
        fs = PPG_FS
        amp = float(amplitude) if amplitude is not None else 100.0
        t = _sample_times(duration, fs)
        x = np.zeros(len(t))
        iv_s = np.asarray(rr.intervals_ms, dtype=float) / 1000.0
        peak_times = []
        for bt, T in zip(beat_times, iv_s):
            lo = np.searchsorted(t, bt)
            hi = np.searchsorted(t, bt + T)
            if hi <= lo:
                continue
            tau = t[lo:hi] - bt
            shape = _ppg_pulse_shape(tau, T)
            x[lo:hi] += shape
            peak_times.append(round((bt + _PPG_PEAK_TAU) * NS_PER_S))
        # shape spans [0, ~1] per pulse; recenter so range sits inside +-amp
        x = amp * (x - PPG_DC_FRAC)
        truth = {
            "beat_times_ns": np.array(peak_times, dtype=np.int64),
            "foot_times_ns": np.array([round(bt * NS_PER_S) for bt in beat_times], dtype=np.int64),
            "intervals_ms": rr.intervals_ms.copy(),
            "amplitude": amp,
        }
        return Waveform("ppg", fs, x, 0, truth, round(duration * NS_PER_S))
    raise ValueError(f"unknown cardiac modality {modality!r}")


# -- respiration ---------------------------------------------------------------


def gen_resp(rate_bpm: float, fs_hz: float = RESP_FS, duration_s: float = 60.0,
             phase0_rad: float = 0.0) -> Waveform:
    """Sinusoidal respiration at rate_bpm/60 Hz, amplitude +-10.

    phase0_rad lets consecutive segments continue each other's cycle. A rate
    or duration that SynthProfile.validate refuses, or an fs_hz that is not
    positive, raises InvalidProfile.
    """
    SynthProfile(duration_s=duration_s, resp_rate_bpm=rate_bpm).validate()
    if fs_hz <= 0:
        raise InvalidProfile(f"fs_hz must be positive: {fs_hz}")
    t = _sample_times(duration_s, fs_hz)
    x = 10.0 * np.sin(2.0 * math.pi * (rate_bpm / 60.0) * t + phase0_rad)
    return Waveform("resp", fs_hz, x, 0, {"rate_bpm": rate_bpm},
                    round(duration_s * NS_PER_S))


# -- electrodermal -------------------------------------------------------------


def _scr_events(scr_events) -> list[tuple[float, float]]:
    """The (time_s, amplitude_uS) events as floats, if time-ordered, of
    positive amplitude and at least 1 s apart; otherwise InvalidProfile or
    OverlapTooDense."""
    events = [(float(t0), float(a0)) for t0, a0 in scr_events]
    if events != sorted(events):
        raise InvalidProfile("scr_events must be time-ordered")
    for t0, a0 in events:
        if a0 <= 0:
            raise InvalidProfile(f"SCR amplitude must be positive: {a0}")
    for (t0, _), (t1, _) in zip(events, events[1:]):
        if t1 - t0 < 1.0:
            raise OverlapTooDense(f"SCR events at {t0} and {t1} closer than 1 s")
    return events


def gen_eda(profile: SynthProfile) -> Waveform:
    """Tonic level + slow drift + one biexponential bump per SCR event, 4 Hz,
    over the profile's duration_s; a profile validate refuses raises there."""
    profile.validate()
    events = _scr_events(profile.scr_events)
    t = _sample_times(profile.duration_s, EDA_FS)
    x = profile.eda_tonic_uS + (profile.eda_drift_uS_per_min / 60.0) * t
    for t0, a0 in events:
        tau = t - t0
        mask = tau >= 0
        x[mask] += (a0 / _SCR_PEAK_GAIN) * (np.exp(-tau[mask] / SCR_TAU_DECAY)
                                            - np.exp(-tau[mask] / SCR_TAU_RISE))
    if profile.eda_noise_uS > 0:
        x = x + _rng(profile.seed, _STREAM_EDA).standard_normal(len(t)) * profile.eda_noise_uS
    return Waveform("eda", EDA_FS, x, 0,
                    {"scr_events": events, "tonic_uS": profile.eda_tonic_uS},
                    round(profile.duration_s * NS_PER_S))


# -- skin temperature ----------------------------------------------------------


def gen_drift_st(profile: SynthProfile) -> Waveform:
    """Base temperature + linear drift + small seeded gaussian noise, 4 Hz,
    over the profile's duration_s; a profile validate refuses raises there."""
    profile.validate()
    t = _sample_times(profile.duration_s, ST_FS)
    x = profile.st_base_c + (profile.st_drift_c_per_min / 60.0) * t
    if profile.st_noise_c > 0:
        x = x + _rng(profile.seed, _STREAM_ST).standard_normal(len(t)) * profile.st_noise_c
    return Waveform("st", ST_FS, x, 0,
                    {"base_c": profile.st_base_c, "drift_c_per_min": profile.st_drift_c_per_min},
                    round(profile.duration_s * NS_PER_S))


# -- gaze ------------------------------------------------------------------------


def gen_gaze(script: list[GazeEvent], pupil_base_mm: float = 4.5,
             duration_s: float | None = None, fixation_noise_deg: float = 0.1,
             seed: int = 0) -> Waveform:
    """Scripted 2-D gaze position plus pupil diameter at 120 Hz.

    Fixations hold a target with slow band-limited wander (RMS ~= the given
    noise amplitude, so finite-difference speed stays well under the 5 deg/s
    pursuit floor). Saccades follow a minimum-jerk ramp (peak velocity
    1.875*A/T). Pursuit is a constant-velocity ramp. A pso is a damped
    oscillation appended after a saccade. Diameter is base + slow sinusoid.
    """
    SynthProfile(gaze_script=script, pupil_base_mm=pupil_base_mm).validate()
    dur = duration_s if duration_s is not None else (script[-1].end_s if script else 0.0)
    if dur <= 0:
        raise InvalidProfile("gaze duration must be positive")
    rng = _rng(seed, _STREAM_GAZE)
    t = _sample_times(dur, GAZE_FS)
    values = np.zeros((len(t), 3))  # x, y, diameter, rendered in place
    x, y, diameter = values.T
    pos = np.array([0.0, 0.0])
    if script and script[0].kind == "fixation" and script[0].x_deg is not None:
        pos = np.array([script[0].x_deg, script[0].y_deg or 0.0])
    cursor = 0.0
    last_saccade_dir = 0.0

    def fill_hold(lo, hi, center):
        if hi <= lo:
            return
        seg_t = t[lo:hi]
        if fixation_noise_deg > 0:
            fx, fy = 0.7 + 0.6 * rng.random(2)
            px, py = 2 * math.pi * rng.random(2)
            x[lo:hi] = center[0] + fixation_noise_deg * np.sin(2 * math.pi * fx * seg_t + px)
            y[lo:hi] = center[1] + fixation_noise_deg * np.sin(2 * math.pi * fy * seg_t + py)
        else:
            x[lo:hi] = center[0]
            y[lo:hi] = center[1]

    segments = []
    for ev in script:
        if ev.start_s > cursor + 1e-12:
            segments.append(GazeEvent("fixation", cursor, ev.start_s - cursor))
        segments.append(ev)
        cursor = ev.end_s
    if cursor < dur - 1e-12:
        segments.append(GazeEvent("fixation", cursor, dur - cursor))

    for ev in segments:
        lo = int(np.searchsorted(t, ev.start_s - 1e-12))
        hi = int(np.searchsorted(t, ev.end_s - 1e-12))
        if ev.kind == "fixation":
            if ev.x_deg is not None:
                pos = np.array([ev.x_deg, ev.y_deg if ev.y_deg is not None else pos[1]])
            fill_hold(lo, hi, pos)
        elif ev.kind == "saccade":
            amp = ev.amplitude_deg if ev.amplitude_deg is not None else 8.0
            d = math.radians(ev.direction_deg)
            vec = np.array([math.cos(d), math.sin(d)])
            u = np.clip((t[lo:hi] - ev.start_s) / ev.duration_s, 0.0, 1.0)
            ramp = amp * (10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5)  # minimum jerk
            x[lo:hi] = pos[0] + vec[0] * ramp
            y[lo:hi] = pos[1] + vec[1] * ramp
            pos = pos + vec * amp
            last_saccade_dir = ev.direction_deg
        elif ev.kind == "pursuit":
            v = ev.velocity_deg_s if ev.velocity_deg_s is not None else 15.0
            d = math.radians(ev.direction_deg)
            vec = np.array([math.cos(d), math.sin(d)])
            rel = t[lo:hi] - ev.start_s
            x[lo:hi] = pos[0] + vec[0] * v * rel
            y[lo:hi] = pos[1] + vec[1] * v * rel
            pos = pos + vec * v * ev.duration_s
        elif ev.kind == "pso":
            amp = ev.amplitude_deg if ev.amplitude_deg is not None else PSO_DEFAULT_AMP_DEG
            d = math.radians(ev.direction_deg if ev.direction_deg else last_saccade_dir)
            vec = np.array([math.cos(d), math.sin(d)])
            rel = t[lo:hi] - ev.start_s
            osc = amp * np.exp(-rel / PSO_TAU_S) * np.sin(2 * math.pi * PSO_FREQ_HZ * rel)
            x[lo:hi] = pos[0] + vec[0] * osc
            y[lo:hi] = pos[1] + vec[1] * osc

    if np.any(np.abs(x) > 60.0) or np.any(np.abs(y) > 45.0):
        raise InvalidProfile("gaze positions exceed +-60 deg horizontal / +-45 deg vertical")
    diameter[:] = pupil_base_mm + 0.15 * np.sin(2 * math.pi * 0.1 * t)
    return Waveform("gaze", GAZE_FS, values, 0,
                    {"script": list(script), "pupil_base_mm": pupil_base_mm},
                    round(dur * NS_PER_S))


# -- script builders (canonical test/demo scripts) ------------------------------


def default_gaze_script(duration_s: float, seed: int = 0,
                        start_x_deg: float = -4.0) -> list[GazeEvent]:
    """Continuous scanning behavior for arbitrary durations.

    Alternating-direction saccades between seeded fixation holds, with an
    occasional pursuit sweep; positions stay near the origin and segments
    join without jumps (no spurious velocity spikes at block seams).
    start_x_deg anchors the opening fixation so consecutive segments can
    hand position over smoothly.
    """
    rng = _rng(seed, _STREAM_GAZE + 100)
    script: list[GazeEvent] = []
    cursor = 0.0
    x = float(min(max(start_x_deg, -30.0), 30.0))
    script.append(GazeEvent("fixation", cursor, 1.0, x_deg=x, y_deg=0.0))
    cursor += 1.0
    while cursor < duration_s - 0.5:
        kind = rng.random()
        if kind < 0.12 and abs(x) < 6.0:
            v = 10.0 + 5.0 * rng.random()
            dur = 1.0 + 0.4 * rng.random()
            direction = 0.0 if x < 0 else 180.0
            script.append(GazeEvent("pursuit", cursor, dur,
                                    velocity_deg_s=v, direction_deg=direction))
            x += v * dur * (1.0 if direction == 0.0 else -1.0)
            cursor += dur
        else:
            amp = 6.0 + 4.0 * rng.random()
            direction = 0.0 if x < 0 else 180.0
            script.append(GazeEvent("saccade", cursor, 0.04,
                                    amplitude_deg=amp, direction_deg=direction))
            x += amp * (1.0 if direction == 0.0 else -1.0)
            cursor += 0.04
        hold = 2.0 + 1.5 * rng.random()
        hold = min(hold, max(0.2, duration_s - cursor))
        script.append(GazeEvent("fixation", cursor, hold))
        cursor += hold
    if cursor < duration_s:
        script.append(GazeEvent("fixation", cursor, duration_s - cursor))
    return script


def default_scr_events(duration_s: float, seed: int = 0) -> list:
    """Seeded SCR event train, amplitudes within 30% of 0.05 uS and gaps
    within 40% of 22 s, comfortably above the 1 s floor."""
    rng = _rng(seed, _STREAM_EDA + 100)
    events = []
    t = 6.0 + 4.0 * rng.random()
    while t < duration_s - 4.0:
        amp = 0.05 * (0.7 + 0.6 * rng.random())
        events.append((round(t, 3), round(amp, 5)))
        t += 22.0 * (0.6 + 0.8 * rng.random())
    return events
