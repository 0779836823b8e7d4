"""Scripted operator closing the control loop in place of a human.

Drives proportionally toward the goal, throttles to keep motor temperature
in check, services the radar when the indicator drops, answers prompts
after a seeded reaction latency, vents CO2 at 80%, and uses overdrive only
with plenty of battery and distance left. An infinite reaction latency
models an unresponsive operator: no control inputs at all, so the run ends
by resource depletion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bus import NS_PER_S
from .rover import OperatorAction, RoverSim, RoverState, bearing_deg, wrap_deg

_STREAM_OPERATOR = 13

CO2_VENT_AT_PCT = 80.0
RADAR_SERVICE_AT = 8
OVERDRIVE_MIN_BATTERY = 50.0
OVERDRIVE_MIN_DIST = 200.0
OVERDRIVE_MAX_TEMP_C = 90.0  # below the stall-release band, so bursts stay rare


@dataclass(frozen=True)
class PolicyConfig:
    reaction_mean_s: float = 0.6
    reaction_jitter_s: float = 0.3
    error_rate: float = 0.0       # chance of ignoring a prompt until re-issued
    cruise_throttle: float = 1.0


class ScriptedOperator:
    def __init__(self, config: PolicyConfig, seed: int):
        self.config = config
        self._rng = np.random.default_rng([seed, _STREAM_OPERATOR])
        self._respond_at_ns: int | None = None
        self._seen_prompt_ns: int | None = None

    def _sample_latency_s(self) -> float:
        c = self.config
        if math.isinf(c.reaction_mean_s):
            return math.inf
        jitter = c.reaction_jitter_s * float(self._rng.random())
        return c.reaction_mean_s + jitter

    def act(self, sim: RoverSim, state: RoverState) -> OperatorAction:
        if math.isinf(self.config.reaction_mean_s):
            return OperatorAction()  # unresponsive operator

        goal = sim.goal
        dist = sim.distance_to_goal(state)
        err = wrap_deg(bearing_deg((state.x_m, state.y_m), goal) - state.heading_deg)
        steer = min(max(err / 45.0, -1.0), 1.0)

        # back off the throttle as the motor approaches the stall band
        throttle = min(self.config.cruise_throttle,
                       max(0.25, (125.0 - state.motor_temp_c) / 40.0))
        if dist < 30.0:
            throttle = min(throttle, 0.3)
        if state.stalled:
            throttle = 0.0

        rotate = 0
        if state.radar_state <= RADAR_SERVICE_AT:
            relay = bearing_deg((state.x_m, state.y_m), sim.physics.relay_pos_m)
            rotate = 1 if wrap_deg(relay - state.radar_heading_deg) > 0 else -1

        switch = None
        ack = False
        prompt = state.pending_prompt
        if prompt is None:
            self._respond_at_ns = None
            self._seen_prompt_ns = None
        else:
            if self._seen_prompt_ns != prompt.issued_t_ns:
                self._seen_prompt_ns = prompt.issued_t_ns
                latency = self._sample_latency_s()
                if self._rng.random() < self.config.error_rate:
                    latency += sim.physics.reprompt_base_s  # misses the first issue
                self._respond_at_ns = (
                    None if math.isinf(latency)
                    else prompt.issued_t_ns + round(latency * NS_PER_S)
                )
            if self._respond_at_ns is not None and state.t_ns >= self._respond_at_ns:
                if prompt.kind == "switch":
                    switch = prompt.target
                else:
                    ack = True

        overdrive = (
            state.battery_pct > OVERDRIVE_MIN_BATTERY
            and dist > OVERDRIVE_MIN_DIST
            and state.overdrive_remaining_s <= 0.0
            and state.motor_temp_c < OVERDRIVE_MAX_TEMP_C
        )
        return OperatorAction(
            throttle=throttle,
            steer=steer,
            rotate_dish=rotate,
            switch_channel=switch,
            acknowledge=ack,
            vent_co2=state.co2_pct >= CO2_VENT_AT_PCT,
            overdrive=overdrive,
            drop_marker=dist <= sim.physics.goal_radius_m,
        )


class WanderOperator:
    """Free-play driver: gentle seeded meandering, no task interaction."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, _STREAM_OPERATOR + 1])
        self._steer_freq = 0.02 + 0.03 * float(rng.random())
        self._steer_phase = 2.0 * math.pi * float(rng.random())
        self._throttle = 0.3 + 0.2 * float(rng.random())

    def act(self, sim: RoverSim, state: RoverState) -> OperatorAction:
        t_s = state.t_ns / NS_PER_S
        steer = 0.5 * math.sin(2.0 * math.pi * self._steer_freq * t_s + self._steer_phase)
        throttle = 0.0 if state.stalled else self._throttle
        return OperatorAction(throttle=throttle, steer=steer)
