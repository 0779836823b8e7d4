"""Session orchestration: baseline, four runs at alternating difficulty with
free-play gaps, TLX capture after each run, everything on one bus and into
one bag.

The session clock is manual and tick-driven (DT_S). Physiology streams run
through every phase; the task information systems (prompts, radar drift,
resource drain) are active only during runs. Identical plan and seed yield
a byte-identical bag body.

Window extraction runs beside the tick loop, not inside it, and SciPy with
it: each session forks one features.worker.FeatureWorker, which builds the
session's FeaturePipeline and runs it one flush interval behind the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .bag import BagWriter
from .bus import Bus, NS_PER_S, TopicDescriptor
from .errors import InvalidProfile, PlanInvalid, ScaleOutOfRange
from .features.catalog import BIO_TOPICS, FEATURE_CATALOG
from .features.gaze import DEFAULT_THRESHOLDS, GazeThresholds
from .features.worker import HAND_OVER_NS, FeatureWorker
from .sim.difficulty import preset
from .sim.operator import PolicyConfig, ScriptedOperator, WanderOperator
from .sim.outcome import RunOutcome, RunTally
from .sim.rover import DEFAULT_PHYSICS, DT_S, TICK_NS, PhysicsParams, RoverSim
from .synth import (
    PPG_DC_FRAC,
    SynthProfile,
    default_gaze_script,
    default_scr_events,
    gen_drift_st,
    gen_eda,
    gen_gaze,
    gen_resp,
    gen_rr_series,
    render_cardiac,
)

TICK_HZ = 1 / DT_S

# Every _FLUSH_TICKS ticks (features.worker.HAND_OVER_NS, 10 s of session
# time, the hand-over cadence extract keeps too) and at every phase end, the
# loop publishes what it gathered, one block per topic, and hands the feature
# worker the samples. The bag is flushed one such interval behind, once the
# worker's rows for it are published, so the writer buffers at most about
# two intervals of the session.
_FLUSH_TICKS = HAND_OVER_NS // TICK_NS

TLX_SCALES = ("mental", "physical", "temporal", "performance", "effort", "frustration")

TLX_BASE = {
    "low": {"mental": 35, "physical": 25, "temporal": 30,
            "performance": 70, "effort": 35, "frustration": 20},
    "high": {"mental": 70, "physical": 40, "temporal": 65,
             "performance": 55, "effort": 70, "frustration": 45},
}
TLX_FAILURE_ADJUST = {"performance": -25, "frustration": +20}
TLX_JITTER = 8  # scripted scores move by a seeded draw from [-jitter, jitter]


@dataclass(frozen=True)
class SessionTopic(TopicDescriptor):
    """A topic the session records, with the feature-table columns that
    export joins from it (payload field -> CSV column)."""

    columns: dict = field(default_factory=dict)


# Every topic a session records, in the order the bag manifest lists them.
SESSION_TOPICS = (
    *(SessionTopic(f"bio.{m}", dict.fromkeys(t.fields, "f64"), t.rate_hz)
      for m, t in BIO_TOPICS.items()),
    SessionTopic("sim.rover", {"x_m": "f64", "y_m": "f64", "heading_deg": "f64",
                               "speed_m_s": "f64", "angular_vel_deg_s": "f64",
                               "battery_pct": "f64", "motor_temp_c": "f64",
                               "stalled": "bool", "overdrive_s": "f64",
                               "distance_m": "f64"}, TICK_HZ,
                 {f: f"sim.{f}" for f in ("x_m", "y_m", "heading_deg", "speed_m_s",
                                          "angular_vel_deg_s", "battery_pct",
                                          "motor_temp_c", "distance_m")}),
    SessionTopic("sim.resources", {"o2_pct": "f64", "co2_pct": "f64"}, TICK_HZ,
                 {"o2_pct": "sim.o2_pct", "co2_pct": "sim.co2_pct"}),
    SessionTopic("sim.radar", {"state": "i64", "dish_heading_deg": "f64", "flash_hz": "f64"},
                 TICK_HZ, {"state": "sim.radar_state"}),
    SessionTopic("sim.comms", {"request": "bool", "response": "bool", "kind": "str",
                               "target": "str", "channel": "str", "latency_s": "f64?"}),
    SessionTopic("sim.meta", {"phase": "str", "run_index": "i64", "difficulty": "str",
                              "elapsed_s": "f64"}, 1.0,
                 {f: f"meta.{f}" for f in ("phase", "difficulty", "run_index")}),
    SessionTopic("survey.tlx", dict.fromkeys(("run_index",) + TLX_SCALES, "i64")),
    *(SessionTopic(f"feat.{m}", {**dict.fromkeys(names, "f64?"), "quality": "f64"})
      for m, names in FEATURE_CATALOG.items()),
)


@dataclass(frozen=True)
class TLXResponse:
    run_index: int
    mental: int
    physical: int
    temporal: int
    performance: int
    effort: int
    frustration: int

    def __post_init__(self):
        for name in TLX_SCALES:
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v <= 100:
                raise ScaleOutOfRange(f"TLX {name}={v} outside [0, 100]")

    def as_payload(self) -> dict:
        out = {"run_index": self.run_index}
        out.update({name: getattr(self, name) for name in TLX_SCALES})
        return out


@dataclass
class RunRecord:
    run_index: int
    difficulty: str
    outcome: RunOutcome
    tlx: TLXResponse | None
    t_start_ns: int
    t_end_ns: int


def scripted_tlx(run_index: int, difficulty: str, status: str, seed: int,
                 jitter: int = TLX_JITTER) -> TLXResponse:
    """Difficulty-monotone synthetic TLX with seeded jitter.

    The base-score gap between difficulties (>= 2x jitter) keeps high-run
    demand scores at or above low-run scores for any seed.
    """
    rng = np.random.default_rng([seed, 20 + run_index])
    values = {}
    for name in TLX_SCALES:
        v = TLX_BASE[difficulty][name]
        if status != "completed" and name in TLX_FAILURE_ADJUST:
            v += TLX_FAILURE_ADJUST[name]
        v += int(rng.integers(-jitter, jitter + 1))
        values[name] = int(min(max(v, 0), 100))
    return TLXResponse(run_index=run_index, **values)


def collect_tlx(run_index: int, difficulty: str, status: str, seed: int,
                jitter: int = TLX_JITTER, interactive_prompt=None) -> TLXResponse:
    """Scripted responder by default; interactive entry via the CLI hook."""
    if interactive_prompt is not None:
        values = {name: int(interactive_prompt(name)) for name in TLX_SCALES}
        return TLXResponse(run_index=run_index, **values)
    return scripted_tlx(run_index, difficulty, status, seed, jitter)


class Phase(NamedTuple):
    """One phase of a plan as sim.meta marks it (run_index -1 for the baseline,
    the run's before it for a gap; difficulty "" outside runs), with its full
    length in s and in ticks: a run may end before them."""

    name: str  # "baseline", "run" or "freeplay"
    run_index: int
    difficulty: str
    duration_s: float
    ticks: int


@dataclass
class SessionPlan:
    """Trial protocol description.

    phase_profiles optionally overrides the synthesis profile per phase kind
    ("baseline" / "run" / "freeplay"); gaze_thresholds and physics flow into
    feature extraction and the simulator from the shared config file.
    """

    seed: int = 0
    baseline_s: float = 300.0
    interrun_s: float = 180.0
    run_order: tuple = ("low", "high", "low", "high")
    run_timeout_s: float = 720.0
    profile: SynthProfile = field(default_factory=SynthProfile)
    phase_profiles: dict = field(default_factory=dict)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    tlx_jitter: int = TLX_JITTER
    gaze_thresholds: GazeThresholds = DEFAULT_THRESHOLDS
    physics: PhysicsParams = DEFAULT_PHYSICS

    def validate(self):
        if self.seed < 0:
            raise PlanInvalid(f"seed must not be negative: {self.seed!r:.40}")
        # scripted_tlx draws from [-tlx_jitter, tlx_jitter] in int64
        if not 0 <= self.tlx_jitter < 2**63:
            raise PlanInvalid(f"tlx_jitter must be in [0, 2**63 - 1]: {self.tlx_jitter!r:.40}")
        order = tuple(self.run_order)
        if len(order) != 4 or sorted(order) != ["high", "high", "low", "low"]:
            raise PlanInvalid(f"run_order needs two low and two high: {order}")
        if any(a == b for a, b in zip(order, order[1:])):
            raise PlanInvalid(f"run_order must alternate difficulty: {order}")
        durations = (self.baseline_s, self.interrun_s, self.run_timeout_s)
        if not all(0 < d * NS_PER_S < 2**63 for d in durations):
            raise PlanInvalid(f"phase durations must be positive and under 2**63 ns: {durations}")
        phases = self.phases()
        if min(p.ticks for p in phases) < 1:
            raise PlanInvalid(f"every phase must last at least one {DT_S} s tick: {durations}")
        if sum(p.ticks for p in phases) * TICK_NS >= 2**63:
            raise PlanInvalid("a session with every phase at full length overruns 2**63 ns")
        self._validate_simulator(phases[1].ticks * DT_S)  # the first run
        unknown = set(self.phase_profiles) - {"baseline", "run", "freeplay"}
        if unknown:
            raise PlanInvalid(f"unknown phase_profiles keys: {sorted(unknown)}")
        for name, profile in [("profile", self.profile), *self.phase_profiles.items()]:
            try:
                profile.validate()
            except InvalidProfile as e:
                raise PlanInvalid(f"{name}: {e}") from e
        return self

    def _validate_simulator(self, run_s: float):
        """Refuse physics and policy under which the simulator would place
        the rover and goal forever, divide by zero, refuse the operator's
        throttle, or overflow a prompt time or its flash rate."""
        p, c = self.physics, self.policy
        delays = [p.reprompt_base_s, p.reprompt_floor_s]
        if not math.isinf(c.reaction_mean_s):  # an infinite mean never responds
            delays += [c.reaction_mean_s, c.reaction_jitter_s]
        # The flash rate doubles every flash_double_s of a run; the per-tick
        # sum of DT_S may pass run_s, so allow one doubling more.
        doublings = run_s / p.flash_double_s if p.flash_double_s > 0 else math.inf
        for ok, rule in (
            (p.map_size_m > 0, "physics map_size_m > 0"),
            # two points of a square map lie its side apart often enough;
            # farther than its diagonal, never
            (0 <= p.min_separation_m <= p.map_size_m,
             "physics 0 <= min_separation_m <= map_size_m"),
            (p.radar_state_span_deg > 0, "physics radar_state_span_deg > 0"),
            (p.gravity_g > 0 and p.traction_mu > 0 and p.gravity_g * p.traction_mu > 0,
             "physics gravity_g * traction_mu > 0"),
            # a prompt's next time is a sum of a few of these, in int ns
            (all(abs(d) * NS_PER_S < 2**63 for d in delays),
             "physics reprompt_base_s, reprompt_floor_s and policy reaction_mean_s, "
             "reaction_jitter_s under 2**63 ns"),
            (doublings < 1023
             and math.isfinite(p.flash_base_hz * 2.0 ** (math.floor(doublings) + 1)),
             "physics flash_double_s > 0 and flash_base_hz * 2 ** (run_timeout_s / "
             "flash_double_s) within the float range"),
            (0 <= c.cruise_throttle <= 1, "policy cruise_throttle in [0, 1]"),
        ):
            if not ok:
                raise PlanInvalid(f"the simulator needs {rule}")

    def phases(self) -> list[Phase]:
        """The session's phases in order: the baseline, then each run of
        run_order, with a free-play gap between each run and the next."""
        out = [("baseline", -1, "", self.baseline_s)]
        for i, level in enumerate(self.run_order):
            out += [("freeplay", i - 1, "", self.interrun_s)] if i else []
            out.append(("run", i, level, self.run_timeout_s))
        return [Phase(*p, round(p[3] / DT_S)) for p in out]

    def profile_for(self, phase_name: str) -> SynthProfile:
        return self.phase_profiles.get(phase_name, self.profile)


@dataclass
class SessionResult:
    bag_path: str
    run_records: list
    phases: list  # (name, start_ns, end_ns)


CARDIAC_FADE_S = 0.08


def _taper_edges(values: np.ndarray, fs: float, dc: float) -> np.ndarray:
    """Raised-cosine fade over CARDIAC_FADE_S to the channel's DC level at both
    array ends, suppressing step discontinuities where phases are stitched."""
    n_fade = int(CARDIAC_FADE_S * fs)
    if n_fade < 1 or len(values) < 2 * n_fade:
        return values
    out = values.copy()
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_fade) / n_fade))
    out[:n_fade] = dc + (out[:n_fade] - dc) * ramp
    out[-n_fade:] = dc + (out[-n_fade:] - dc) * ramp[::-1]
    return out


@dataclass
class StitchState:
    """Continuity carried from one phase's streams into the next."""

    resp_phase_rad: float = 0.0
    gaze_x_deg: float = -4.0


def phase_waveforms(profile: SynthProfile, duration_s: float, seed: int,
                    stitch: StitchState) -> dict:
    """The six raw waveforms of one phase, keyed by modality, untapered, over
    duration_s in place of the profile's own.

    Respiration continues the cycle and the gaze script opens at the
    position that stitch carries over from the previous phase.
    """
    p = replace(profile, seed=seed, duration_s=duration_s)
    rr = gen_rr_series(p)
    gaze_script = p.gaze_script or default_gaze_script(
        duration_s, seed, start_x_deg=stitch.gaze_x_deg)
    return {
        "ecg": render_cardiac(rr, "ecg"),
        "ppg": render_cardiac(rr, "ppg", amplitude=p.ppg_amplitude),
        "resp": gen_resp(p.resp_rate_bpm, duration_s=duration_s,
                         phase0_rad=stitch.resp_phase_rad),
        "eda": gen_eda(replace(
            p, scr_events=p.scr_events or default_scr_events(duration_s, seed))),
        "st": gen_drift_st(p),
        "gaze": gen_gaze(gaze_script, p.pupil_base_mm, duration_s=duration_s,
                         fixation_noise_deg=p.fixation_noise_deg, seed=seed),
    }


class _PhaseStreams:
    """Pregenerated physiology for one phase, published one block per
    modality at each flush point and at the phase end.

    Cardiac channels are tapered to their DC at the stitch; respiration
    continues the previous phase's cycle; the gaze script opens where the
    previous phase left off.
    """

    def __init__(self, profile: SynthProfile, duration_s: float, phase_seed: int,
                 t0_ns: int, stitch: StitchState):
        waveforms = phase_waveforms(profile, duration_s, phase_seed, stitch)
        for m, dc in (("ecg", 0.0), ("ppg", -PPG_DC_FRAC * profile.ppg_amplitude)):
            wf = waveforms[m]
            wf.values = _taper_edges(wf.values, wf.fs_hz, dc)
        self.breath_rate_bpm = profile.resp_rate_bpm
        self.streams = {m: {"times": wf.times_ns() + t0_ns,
                            "feed": np.asarray(wf.values, dtype=float), "ptr": 0}
                        for m, wf in waveforms.items()}

    def carry_out(self, actual_duration_s: float, stitch: StitchState) -> StitchState:
        """Continuity values at the point this phase actually ended."""
        resp_phase = (stitch.resp_phase_rad
                      + 2.0 * math.pi * (self.breath_rate_bpm / 60.0) * actual_duration_s)
        gaze = self.streams["gaze"]
        feed = gaze["feed"]
        idx = min(max(gaze["ptr"] - 1, 0), len(feed) - 1)
        gaze_x = float(feed[idx, 0]) if len(feed) else stitch.gaze_x_deg
        return StitchState(resp_phase_rad=resp_phase % (2.0 * math.pi), gaze_x_deg=gaze_x)

    def publish_until(self, bus, topics, queue: list, t_limit_ns: int):
        """Publish each modality's samples with t < t_limit_ns not published
        yet as one block, and queue each block's slice as (modality, times,
        values) for the feature pipeline. carry_out reads how far gaze got,
        so the phase end publishes before it."""
        for m, s in self.streams.items():
            times, feed, i = s["times"], s["feed"], s["ptr"]
            j = int(np.searchsorted(times, t_limit_ns, side="left"))
            if j <= i:
                continue
            bus.publish_block(topics[f"bio.{m}"], times[i:j], feed[i:j].reshape(j - i, -1).T)
            queue.append((m, times[i:j], feed[i:j]))
            s["ptr"] = j


class _PendingRows:
    """The sim.* rows of the ticks since the last flush point, kept per topic
    and published as one block per topic at the next one."""

    def __init__(self, topics):
        self._topics = topics
        self._rows: dict = {}  # topic name -> (times, rows)

    def add(self, name: str, t_ns: int, row: tuple):
        """Queue one row: the topic's values in schema order, None for an
        absent optional field."""
        times, rows = self._rows.setdefault(name, ([], []))
        times.append(t_ns)
        rows.append(row)

    def publish(self, bus):
        for name, (times, rows) in self._rows.items():
            bus.publish_block(self._topics[name], times, list(zip(*rows)))
        self._rows.clear()


def _publish_features(bus, topics, writer, done):
    """Publish a feature worker reply's rows, each modality's as one block,
    then flush the bag up to its watermark. Safe: the next interval's rows
    end after it, and all else the loop publishes from here on is stamped at
    or after the current hand-over point, which is at or past it."""
    if done is None:
        return
    watermark, rows = done
    for m in dict.fromkeys(row.modality for row in rows):
        group = [row for row in rows if row.modality == m]
        # the schema's fields: the catalog's, then quality
        columns = [[row.values.get(f) for row in group] for f in FEATURE_CATALOG[m]]
        bus.publish_block(topics[f"feat.{m}"], [row.t_end_ns for row in group],
                          [*columns, [row.quality for row in group]])
    writer.flush_until(watermark)


def run_session(plan: SessionPlan, out_path, tlx_interactive_prompt=None) -> SessionResult:
    plan.validate()
    bus = Bus()
    topics = {t.name: bus.open_topic(t) for t in SESSION_TOPICS}
    writer = BagWriter(out_path, bus, session_meta={
        "seed": plan.seed,
        "run_order": list(plan.run_order),
        "baseline_s": plan.baseline_s,
        "interrun_s": plan.interrun_s,
        "run_timeout_s": plan.run_timeout_s,
    })
    writer.start()

    phases = plan.phases()
    run_records: list[RunRecord] = []
    phase_spans: list[tuple] = []
    t_ns = 0
    stitch = StitchState()

    pending = _PendingRows(topics)

    def queue_meta(t, phase_name, run_index, difficulty):
        pending.add("sim.meta", t, (phase_name, run_index, difficulty, t / NS_PER_S))

    # the baseline phase never ends early, so its end is known now
    features = FeatureWorker(t0_ns=0, gaze_thresholds=plan.gaze_thresholds,
                             baseline_end_ns=phases[0].ticks * TICK_NS)
    slices = []  # (modality, times, values) published since the last hand-over

    def hand_over(streams, t):
        """Publish every sample and row stamped before t, then hand the
        worker the slices up to t and publish the rows of the interval
        before, so the worker extracts while the loop publishes and flushes.
        Each point is handed over once: a phase's last tick is its end's."""
        streams.publish_until(bus, topics, slices, t)
        pending.publish(bus)
        _publish_features(bus, topics, writer, features.advance(slices, t))
        slices.clear()

    try:
        for phase_index, phase in enumerate(phases):
            is_run = phase.name == "run"
            phase_seed = plan.seed * 100 + phase_index
            phase_start = t_ns
            streams = _PhaseStreams(plan.profile_for(phase.name), phase.duration_s,
                                    phase_seed, phase_start, stitch)
            if is_run:
                sim = RoverSim(plan.seed * 100 + 50 + phase.run_index, preset(phase.difficulty),
                               plan.physics, task_active=True)
                operator = ScriptedOperator(plan.policy, phase_seed)
                tally = RunTally(sim)
            else:
                sim = RoverSim(phase_seed, preset("low"), plan.physics, task_active=False)
                operator = WanderOperator(phase_seed)

            queue_meta(phase_start, *phase[:3])  # name, run index, difficulty
            for k in range(phase.ticks):
                tick_t = phase_start + k * TICK_NS
                tick_end = tick_t + TICK_NS
                if tick_t % NS_PER_S == 0 and tick_t != phase_start:
                    queue_meta(tick_t, *phase[:3])
                action = operator.act(sim, sim.state)
                state, events = sim.step(action, streams.breath_rate_bpm)
                pending.add("sim.rover", tick_t, (
                    state.x_m, state.y_m, state.heading_deg, state.speed_m_s,
                    state.angular_vel_deg_s, state.battery_pct, state.motor_temp_c,
                    state.stalled, state.overdrive_remaining_s, state.distance_traveled_m))
                pending.add("sim.resources", tick_t, (state.o2_pct, state.co2_pct))
                pending.add("sim.radar", tick_t,
                            (state.radar_state, state.radar_heading_deg, state.flash_hz))
                if events:
                    latencies = [e["latency_s"] for e in events if "latency_s" in e]
                    pending.add("sim.comms", tick_t, (
                        any(e["event"] == "request" for e in events),
                        any(e["event"] == "response" for e in events),
                        events[-1].get("kind", ""), events[-1].get("target", ""),
                        state.comm_channel, latencies[-1] if latencies else None))
                bus.clock.advance_to(tick_end)
                t_ns = tick_end
                if is_run and tally.add(state, action, events) is not None:
                    break
                if (k + 1) % _FLUSH_TICKS == 0 and k + 1 < phase.ticks:
                    # the bag is flushed up to the previous flush point
                    hand_over(streams, tick_end)
            phase_end = t_ns
            hand_over(streams, phase_end)
            if is_run:
                outcome = tally.outcome()
                tlx = collect_tlx(phase.run_index, phase.difficulty, outcome.status, plan.seed,
                                  plan.tlx_jitter, tlx_interactive_prompt)
                bus.publish(topics["survey.tlx"], tlx.as_payload(), t_ns=phase_end)
                run_records.append(RunRecord(phase.run_index, phase.difficulty, outcome, tlx,
                                             phase_start, phase_end))
            stitch = streams.carry_out((phase_end - phase_start) / NS_PER_S, stitch)
            phase_spans.append((phase.name, phase_start, phase_end))
        _publish_features(bus, topics, writer, features.drain())
        queue_meta(t_ns, "end", -1, "")
        pending.publish(bus)
        writer.flush_until(t_ns + 1)
    finally:
        try:
            features.close()
        finally:
            writer.close()
    return SessionResult(str(out_path), run_records, phase_spans)
