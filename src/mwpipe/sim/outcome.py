"""Run evaluation: failure rules, completion, and alert-response stats."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bus import NS_PER_S
from ..errors import IncompleteTrace
from .rover import DT_S, OperatorAction, RoverSim, RoverState


@dataclass
class TickRecord:
    state: RoverState
    action: OperatorAction
    events: list = field(default_factory=list)


@dataclass
class RunOutcome:
    status: str                  # completed | failed_battery | failed_o2 | failed_co2 | aborted
    completion_time_s: float
    distance_m: float
    alert_response_stats: dict


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
        "comm_mean_latency_s": sum(latencies) / len(latencies) if latencies else None,
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
        "radar_mean_recovery_s": sum(recovery) / len(recovery) if recovery else None,
    }


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

