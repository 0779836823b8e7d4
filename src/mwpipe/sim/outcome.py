"""Run evaluation: failure rules, completion, and alert-response stats."""

from __future__ import annotations

from dataclasses import dataclass

from ..bus import NS_PER_S
from ..errors import IncompleteTrace
from .rover import DT_S, OperatorAction, RoverSim, RoverState


@dataclass
class RunOutcome:
    status: str                  # completed | failed_battery | failed_o2 | failed_co2 | aborted
    completion_time_s: float
    distance_m: float
    alert_response_stats: dict


def run_end(sim: RoverSim, state: RoverState, action: OperatorAction) -> str | None:
    """The status that ends a run at this tick, or None while it goes on.

    The limits are the simulator's own physics, so the tick that stops a
    run and the status reported for it always agree.
    """
    physics = sim.physics
    if state.battery_pct <= 0.0:
        return "failed_battery"
    if state.o2_pct <= 0.0:
        return "failed_o2"
    if state.co2_pct >= physics.co2_fail_pct:
        return "failed_co2"
    if action.drop_marker and sim.distance_to_goal(state) <= physics.goal_radius_m:
        return "completed"
    return None


class RunTally:
    """The outcome of sim's run, folded tick by tick: add each tick until add
    returns a status, then read outcome(). A run that never meets the
    run-end rule is aborted at its last tick."""

    def __init__(self, sim: RoverSim):
        self._sim = sim
        self._end = self._first_t_ns = self._last = self._below_since = None
        self._prompts = self._reprompts = self._radar_drops = 0
        self._latency_sum, self._responses = 0.0, 0
        self._recovery_sum, self._recoveries = 0.0, 0

    def add(self, state: RoverState, action: OperatorAction, events: list) -> str | None:
        """Fold one tick in; returns the status that ends the run here, or None."""
        if self._last is None:
            self._first_t_ns = state.t_ns
        self._last = state
        for ev in events:
            if ev["event"] == "request" and ev["reprompts"] == 0:
                self._prompts += 1
            elif ev["event"] == "request":
                self._reprompts += 1
            elif ev["event"] == "response":
                self._latency_sum += ev["latency_s"]
                self._responses += 1
        low = state.radar_state < 4
        if low and self._below_since is None:
            self._below_since = state.t_ns
            self._radar_drops += 1
        elif not low and self._below_since is not None:
            self._recovery_sum += (state.t_ns - self._below_since) / NS_PER_S
            self._recoveries += 1
            self._below_since = None
        self._end = run_end(self._sim, state, action)
        return self._end

    def outcome(self) -> RunOutcome:
        last = self._last
        if last is None:
            raise IncompleteTrace("no tick of the run was added")
        return RunOutcome(
            status=self._end or "aborted",
            completion_time_s=(last.t_ns - self._first_t_ns) / NS_PER_S + DT_S,
            distance_m=last.distance_traveled_m,
            alert_response_stats={
                "comm_prompt_count": self._prompts,
                "comm_mean_latency_s":
                    self._latency_sum / self._responses if self._responses else None,
                "comm_miss_count": self._reprompts + (last.pending_prompt is not None),
                "radar_drop_count": self._radar_drops,
                "radar_mean_recovery_s":
                    self._recovery_sum / self._recoveries if self._recoveries else None,
            },
        )
