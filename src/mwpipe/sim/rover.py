"""Rover state, fixed-step dynamics, and the four task subsystems.

Single-threaded DT_S = 0.1 s core: each RoverSim.step computes the tick
from the current state and the operator's action and builds one fresh
RoverState, so (seed, difficulty, policy) determines the whole trace
bit-for-bit. Coefficients are sized so that full oxygen lasts about
45 minutes at 15 breaths/min and CO2 venting is needed a few times per run;
all of them live on PhysicsParams and the shared config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bus import NS_PER_S
from .difficulty import DifficultyParams

DT_S = 0.1  # the one tick of the simulator and of the session clock
TICK_NS = round(DT_S * NS_PER_S)

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


class RoverSim:
    """One run's worth of simulation: the seeded placement of rover and goal
    (at least min_separation_m apart), the terrain, the comms RNG and the
    current state.

    task_active=False (baseline / free play) freezes the information
    systems and resources: no prompts, no radar drift, no battery/O2/CO2
    changes; vehicle pose and thermals still evolve.
    """

    def __init__(self, seed: int, difficulty: DifficultyParams,
                 physics: PhysicsParams = DEFAULT_PHYSICS, task_active: bool = True):
        self.difficulty = difficulty
        self.physics = physics
        self.task_active = task_active
        rng = np.random.default_rng([seed, _STREAM_PLACEMENT])
        size = physics.map_size_m
        while True:
            rx, ry, gx, gy = rng.uniform(0.0, size, 4)
            if math.hypot(gx - rx, gy - ry) >= physics.min_separation_m:
                break
        start = (float(rx), float(ry))
        self.state = RoverState(x_m=start[0], y_m=start[1],
                                heading_deg=float(rng.uniform(-180.0, 180.0)),
                                motor_temp_c=physics.ambient_c,
                                radar_heading_deg=bearing_deg(start, physics.relay_pos_m))
        self.goal = (float(gx), float(gy))
        self.terrain = Terrain(seed, difficulty.terrain_roughness, size)
        self._rng = np.random.default_rng([seed, _STREAM_COMMS])
        first_gap = float(self._rng.exponential(difficulty.comm_mean_interval_s))
        self._next_arrival_ns = round(first_gap * NS_PER_S)

    def distance_to_goal(self, state: RoverState) -> float:
        return math.hypot(self.goal[0] - state.x_m, self.goal[1] - state.y_m)

    def step(self, action: OperatorAction, breath_rate_bpm: float):
        """Advance one DT_S tick; returns (state, comm_events). The events
        are dicts published on the comms topic ({"request"/"response",
        kind, latency_s, ...})."""
        s, a, p, d = self.state, action, self.physics, self.difficulty
        t = s.t_ns + TICK_NS

        # vehicle and thermals; clamping, not faults
        battery = s.battery_pct
        overdrive_remaining = s.overdrive_remaining_s
        if a.overdrive and overdrive_remaining <= 0.0 and battery > p.overdrive_cost_pct:
            overdrive_remaining = p.overdrive_s
            battery -= p.overdrive_cost_pct
        boosting = overdrive_remaining > 0.0

        # stall latch: on at stall_on_c, released once cooled to stall_off_c
        stalled = s.stalled
        if s.motor_temp_c >= p.stall_on_c:
            stalled = True
        elif stalled and s.motor_temp_c <= p.stall_off_c:
            stalled = False

        torque = 0.0 if stalled else a.throttle * (p.overdrive_torque if boosting else 1.0)
        speed = 0.0 if stalled else (
            a.throttle * p.v_max_m_s * (p.overdrive_speed if boosting else 1.0)
            * self.terrain.speed_factor(s.x_m, s.y_m, s.heading_deg, p)
        )
        temp_scale = d.temp_gain_scale if self.task_active else 1.0  # free play heats unscaled
        temp = s.motor_temp_c + DT_S * (
            p.k_temp * temp_scale * torque * torque
            - p.k_cool * (s.motor_temp_c - p.ambient_c)
        )
        angular_vel = a.steer * p.turn_rate_deg_s
        heading = wrap_deg(s.heading_deg + angular_vel * DT_S)
        h = math.radians(heading)
        x = min(max(s.x_m + speed * DT_S * math.cos(h), 0.0), p.map_size_m)
        y = min(max(s.y_m + speed * DT_S * math.sin(h), 0.0), p.map_size_m)

        if self.task_active:
            battery -= DT_S * d.battery_drain_scale * (
                p.c_speed * speed
                + p.c_torque * torque
                + p.c_temp * max(0.0, s.motor_temp_c - 100.0)
            )
            battery = min(max(battery, 0.0), 100.0)
            o2 = min(max(s.o2_pct - DT_S * p.k_o2 * breath_rate_bpm, 0.0), 100.0)
            co2 = 0.0 if a.vent_co2 else s.co2_pct + DT_S * d.co2_rate_scale * p.k_co2 * breath_rate_bpm
            co2 = min(max(co2, 0.0), 100.0)

            # dish drift and slew; the 12-state antenna accuracy indicator
            # is read at the tick's new position
            dish = s.radar_heading_deg + angular_vel * DT_S + d.radar_decay_deg_per_s * DT_S
            dish += a.rotate_dish * p.dish_slew_deg_s * DT_S
            dish = wrap_deg(dish)
            err = abs(wrap_deg(dish - bearing_deg((x, y), p.relay_pos_m)))
            radar_state = int(min(max(11 - math.floor(err / p.radar_state_span_deg), 0), 11))
            if radar_state < 4:
                uncorrected = s.flash_uncorrected_s + DT_S
                flash_hz = p.flash_base_hz * (2.0 ** math.floor(uncorrected / p.flash_double_s))
            else:
                uncorrected = flash_hz = 0.0

            # prompt arrivals, re-prompt halving and response bookkeeping
            events = []
            pending = s.pending_prompt
            if pending is not None and (
                (pending.kind == "switch" and a.switch_channel == pending.target)
                or (pending.kind == "report" and a.acknowledge)
            ):
                latency_s = (t - pending.issued_t_ns) / NS_PER_S
                events.append({"event": "response", "kind": pending.kind,
                               "latency_s": latency_s, "reprompts": pending.reprompt_count})
                pending = None
            channel = s.comm_channel if a.switch_channel is None else a.switch_channel
            if pending is not None and t >= pending.next_reprompt_ns:
                count = pending.reprompt_count + 1
                gap_s = max(p.reprompt_floor_s, p.reprompt_base_s / (2 ** count))
                pending = Prompt(pending.kind, pending.target, pending.issued_t_ns, count,
                                 t + round(gap_s * NS_PER_S))
                events.append({"event": "request", "kind": pending.kind,
                               "target": pending.target or "", "reprompts": count})
            if pending is None and t >= self._next_arrival_ns:
                if self._rng.random() < p.report_in_fraction:
                    kind, target = "report", None
                else:
                    kind, target = "switch", ("B" if channel == "A" else "A")
                pending = Prompt(kind, target, t,
                                 next_reprompt_ns=t + round(p.reprompt_base_s * NS_PER_S))
                events.append({"event": "request", "kind": kind, "target": target or "",
                               "reprompts": 0})
                gap_s = float(self._rng.exponential(d.comm_mean_interval_s))
                self._next_arrival_ns = t + round(gap_s * NS_PER_S)
        else:  # free play: resources, dish, prompt and channel stay as they were
            battery, o2, co2 = s.battery_pct, s.o2_pct, s.co2_pct
            dish, radar_state, uncorrected, flash_hz = s.radar_heading_deg, 11, 0.0, 0.0
            pending, channel, events = s.pending_prompt, s.comm_channel, []

        self.state = RoverState(
            t_ns=t,
            x_m=x,
            y_m=y,
            heading_deg=heading,
            speed_m_s=speed,
            angular_vel_deg_s=angular_vel,
            battery_pct=battery,
            motor_temp_c=min(max(temp, 20.0), 200.0),
            stalled=stalled,
            o2_pct=o2,
            co2_pct=co2,
            radar_state=radar_state,
            radar_heading_deg=dish,
            comm_channel=channel,
            pending_prompt=pending,
            overdrive_remaining_s=max(0.0, overdrive_remaining - DT_S),
            distance_traveled_m=s.distance_traveled_m + speed * DT_S,
            flash_uncorrected_s=uncorrected,
            flash_hz=flash_hz,
        )
        return self.state, events
