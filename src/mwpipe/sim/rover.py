"""Rover state, fixed-step dynamics, and the four task subsystems.

Single-threaded dt=0.1 s core; every step function is a pure state-to-state
map given its inputs, so (seed, difficulty, policy) determines the whole
trace bit-for-bit. Coefficients are sized so that full oxygen lasts about
45 minutes at 15 breaths/min and CO2 venting is needed a few times per run;
all of them live on PhysicsParams and the shared config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..bus import NS_PER_S
from .difficulty import DifficultyParams

DT_S = 0.1  # the one tick of the simulator and of the session clock

_STREAM_PLACEMENT = 10
_STREAM_COMMS = 11
_STREAM_TERRAIN = 12


@dataclass(frozen=True)
class PhysicsParams:
    v_max_m_s: float = 3.0
    turn_rate_deg_s: float = 45.0
    ambient_c: float = 50.0
    k_temp: float = 1.583          # deg C/s at unit torque
    k_cool: float = 1.0 / 60.0     # 1/s toward ambient
    stall_on_c: float = 140.0
    stall_off_c: float = 90.0
    c_speed: float = 0.02          # battery %/s per m/s
    c_torque: float = 0.023        # battery %/s per unit torque
    c_temp: float = 0.005          # battery %/s per deg C above 100
    k_o2: float = 100.0 / (15.0 * 2700.0)   # o2 %/s per bpm: full tank ~45 min at 15 bpm
    k_co2: float = 80.0 / (15.0 * 120.0)    # co2 %/s per bpm: vent ~every 2 min at 15 bpm
    overdrive_s: float = 10.0
    overdrive_speed: float = 1.5
    overdrive_torque: float = 1.6
    overdrive_cost_pct: float = 5.0
    gravity_g: float = 0.166
    traction_mu: float = 1.5
    map_size_m: float = 1000.0
    goal_radius_m: float = 10.0
    min_separation_m: float = 300.0
    relay_pos_m: tuple = (500.0, 1200.0)   # fixed relay station, off-map north
    dish_slew_deg_s: float = 20.0
    radar_state_span_deg: float = 15.0
    flash_base_hz: float = 1.0
    flash_double_s: float = 10.0
    reprompt_base_s: float = 16.0
    reprompt_floor_s: float = 2.0
    report_in_fraction: float = 0.2
    co2_fail_pct: float = 100.0


DEFAULT_PHYSICS = PhysicsParams()


@dataclass(frozen=True)
class Prompt:
    kind: str                 # "switch" | "report"
    target: str | None        # channel for switch prompts
    issued_t_ns: int          # first issue time (latency is measured from here)
    reprompt_count: int = 0
    next_reprompt_ns: int = 0


@dataclass
class RoverState:
    t_ns: int = 0
    x_m: float = 0.0
    y_m: float = 0.0
    heading_deg: float = 0.0
    speed_m_s: float = 0.0
    angular_vel_deg_s: float = 0.0
    battery_pct: float = 100.0
    motor_temp_c: float = 50.0
    stalled: bool = False
    o2_pct: float = 100.0
    co2_pct: float = 0.0
    radar_state: int = 11
    radar_heading_deg: float = 0.0
    comm_channel: str = "A"
    pending_prompt: Prompt | None = None
    overdrive_remaining_s: float = 0.0
    distance_traveled_m: float = 0.0
    flash_uncorrected_s: float = 0.0    # radar alarm bookkeeping
    flash_hz: float = 0.0


@dataclass(frozen=True)
class OperatorAction:
    throttle: float = 0.0        # [0, 1]
    steer: float = 0.0           # [-1, 1]
    rotate_dish: int = 0         # {-1, 0, +1}
    switch_channel: str | None = None
    acknowledge: bool = False
    vent_co2: bool = False
    overdrive: bool = False
    drop_marker: bool = False

    def __post_init__(self):
        if not 0.0 <= self.throttle <= 1.0:
            raise ValueError(f"throttle outside [0,1]: {self.throttle}")
        if not -1.0 <= self.steer <= 1.0:
            raise ValueError(f"steer outside [-1,1]: {self.steer}")
        if self.rotate_dish not in (-1, 0, 1):
            raise ValueError(f"rotate_dish must be -1, 0 or +1: {self.rotate_dish}")
        if self.switch_channel not in (None, "A", "B"):
            raise ValueError(f"switch_channel must be A or B: {self.switch_channel}")


class Terrain:
    """Seeded smooth heightfield; analytic gradient feeds the traction model."""

    N_COMPONENTS = 6

    def __init__(self, seed: int, roughness: float, map_size: float):
        rng = np.random.default_rng([seed, _STREAM_TERRAIN])
        self.roughness = roughness
        wavelengths = rng.uniform(80.0, 300.0, self.N_COMPONENTS)
        angles = rng.uniform(0.0, 2.0 * math.pi, self.N_COMPONENTS)
        self._kx = 2.0 * math.pi * np.cos(angles) / wavelengths
        self._ky = 2.0 * math.pi * np.sin(angles) / wavelengths
        self._phase = rng.uniform(0.0, 2.0 * math.pi, self.N_COMPONENTS)
        self._amp = rng.uniform(2.0, 6.0, self.N_COMPONENTS) * roughness

    def gradient(self, x: float, y: float) -> tuple:
        c = self._amp * np.cos(self._kx * x + self._ky * y + self._phase)
        return float(np.sum(c * self._kx)), float(np.sum(c * self._ky))

    def speed_factor(self, x: float, y: float, heading_deg: float,
                     physics: PhysicsParams) -> float:
        """Slope along heading against lunar-gravity traction, clamped."""
        gx, gy = self.gradient(x, y)
        h = math.radians(heading_deg)
        slope = gx * math.cos(h) + gy * math.sin(h)
        limit = physics.traction_mu * physics.gravity_g
        return float(min(max(1.0 - slope / limit, 0.4), 1.2))


def wrap_deg(a: float) -> float:
    """Wrap to [-180, 180)."""
    return (a + 180.0) % 360.0 - 180.0


def bearing_deg(from_xy: tuple, to_xy: tuple) -> float:
    return math.degrees(math.atan2(to_xy[1] - from_xy[1], to_xy[0] - from_xy[0]))


def init_run(seed: int, difficulty: DifficultyParams,
             physics: PhysicsParams = DEFAULT_PHYSICS):
    """Seeded placement of rover and goal with separation >= 300 m.

    Returns (state, goal_xy, terrain, comms_rng).
    """
    rng = np.random.default_rng([seed, _STREAM_PLACEMENT])
    size = physics.map_size_m
    while True:
        rx, ry, gx, gy = rng.uniform(0.0, size, 4)
        if math.hypot(gx - rx, gy - ry) >= physics.min_separation_m:
            break
    state = RoverState(
        x_m=float(rx),
        y_m=float(ry),
        heading_deg=float(rng.uniform(-180.0, 180.0)),
        motor_temp_c=physics.ambient_c,
    )
    state.radar_heading_deg = bearing_deg((state.x_m, state.y_m), physics.relay_pos_m)
    comms_rng = np.random.default_rng([seed, _STREAM_COMMS])
    return state, (float(gx), float(gy)), Terrain(seed, difficulty.terrain_roughness, size), comms_rng


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


class RoverSim:
    """One run's worth of simulation context (terrain, goal, comms RNG).

    task_active=False (baseline / free play) freezes the information
    systems and resources: no prompts, no radar drift, no battery/O2/CO2
    changes; vehicle pose and thermals still evolve.
    """

    def __init__(self, seed: int, difficulty: DifficultyParams,
                 physics: PhysicsParams = DEFAULT_PHYSICS, task_active: bool = True):
        self.seed = seed
        self.difficulty = difficulty
        self.physics = physics
        self.task_active = task_active
        self.state, self.goal, self.terrain, self._rng = init_run(seed, difficulty, physics)
        first_gap = float(self._rng.exponential(difficulty.comm_mean_interval_s))
        self._next_arrival_ns = round(first_gap * NS_PER_S)

    def distance_to_goal(self, state: RoverState | None = None) -> float:
        st = state if state is not None else self.state
        return math.hypot(self.goal[0] - st.x_m, self.goal[1] - st.y_m)

    def step(self, action: OperatorAction, breath_rate_bpm: float):
        """Advance one 0.1 s tick; returns (state, comm_events)."""
        s = self.state
        if self.task_active:
            s = step_dynamics(s, action, breath_rate_bpm, DT_S, self.difficulty,
                              self.physics, self.terrain)
            s = update_radar(s, action, DT_S, self.difficulty, self.physics)
            s, self._next_arrival_ns, events = step_comms(
                s, action, self._rng, self._next_arrival_ns, DT_S,
                self.difficulty, self.physics)
        else:
            frozen = (s.battery_pct, s.o2_pct, s.co2_pct)
            s = step_dynamics(s, action, 0.0, DT_S, None, self.physics, self.terrain)
            s = replace(s, battery_pct=frozen[0], o2_pct=frozen[1], co2_pct=frozen[2],
                        radar_state=11, flash_hz=0.0, flash_uncorrected_s=0.0)
            events = []
        self.state = s
        return s, events
