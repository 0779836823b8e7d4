import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwpipe.errors import IncompleteTrace, PlanInvalid
from mwpipe.sim.difficulty import HIGH, LOW, DifficultyParams, preset
from mwpipe.sim.operator import PolicyConfig
from mwpipe.sim.outcome import RunTally, run_end
from mwpipe.sim.rover import (DEFAULT_PHYSICS, DT_S, OperatorAction, RoverSim, RoverState,
                              bearing_deg, wrap_deg)

from oracles import evaluate_run, reference_step, run_closed_loop


def validate_pair(low: DifficultyParams, high: DifficultyParams):
    """High difficulty strictly tightens every field of low."""
    checks = (
        high.comm_mean_interval_s < low.comm_mean_interval_s,
        high.radar_decay_deg_per_s > low.radar_decay_deg_per_s,
        high.battery_drain_scale > low.battery_drain_scale,
        high.temp_gain_scale > low.temp_gain_scale,
        high.terrain_roughness > low.terrain_roughness,
        high.co2_rate_scale > low.co2_rate_scale,
    )
    if not all(checks):
        raise PlanInvalid("high difficulty must strictly tighten every field of low")


def test_init_run_deterministic():
    a, b = RoverSim(7, LOW), RoverSim(7, LOW)
    assert (a.state.x_m, a.state.y_m) == (b.state.x_m, b.state.y_m)
    assert a.goal == b.goal


def test_init_run_property_sweep():
    for seed in range(1000):
        sim = RoverSim(seed, LOW)
        s, goal = sim.state, sim.goal
        assert 0 <= s.x_m <= 1000 and 0 <= s.y_m <= 1000
        assert 0 <= goal[0] <= 1000 and 0 <= goal[1] <= 1000
        assert math.hypot(goal[0] - s.x_m, goal[1] - s.y_m) >= 300.0
        assert s.radar_state == 11
        assert s.battery_pct == 100.0 and s.o2_pct == 100.0 and s.co2_pct == 0.0


def test_difficulty_presets_validate():
    validate_pair(LOW, HIGH)
    with pytest.raises(PlanInvalid):
        validate_pair(HIGH, LOW)
    with pytest.raises(PlanInvalid):
        preset("medium")


def test_throttle_zero_temp_decays_to_ambient():
    sim = RoverSim(1, LOW)
    sim.state.motor_temp_c = 60.0
    for _ in range(3000):  # 300 s, five cooling time constants
        s, _ = sim.step(OperatorAction(), 15.0)
    assert s.speed_m_s == 0.0
    assert 50.0 <= s.motor_temp_c < 51.0


def test_stall_latch_and_release():
    sim = RoverSim(2, LOW)
    s = sim.state
    s.motor_temp_c = 139.0
    stalled_seen = False
    released_at = None
    for _ in range(6000):
        throttle = 0.0 if s.stalled or stalled_seen else 1.0
        s, _ = sim.step(OperatorAction(throttle=throttle, overdrive=not stalled_seen), 15.0)
        if s.stalled:
            stalled_seen = True
            assert s.speed_m_s == 0.0
        if stalled_seen and not s.stalled and released_at is None:
            released_at = s.motor_temp_c
    assert stalled_seen
    assert released_at is not None and released_at <= 90.0


def test_vent_resets_co2():
    sim = RoverSim(3, LOW)
    sim.state.co2_pct = 40.0
    s, _ = sim.step(OperatorAction(vent_co2=True), 15.0)
    assert s.co2_pct == 0.0


# In the radar tests the rover stands still, so the relay's bearing holds
# and the dish moves by low difficulty's drift alone, 1 degree per second:
# 0.1 degrees in one tick, which takes no error below across a 15-degree
# band edge.

def test_radar_state_mapping_endpoints():
    sim = RoverSim(4, LOW)
    relay = DEFAULT_PHYSICS.relay_pos_m
    spot_on = bearing_deg((sim.state.x_m, sim.state.y_m), relay)
    for err, expected in ((0.0, 11), (16.0, 10), (180.0, 0), (45.0, 8)):
        sim.state.radar_heading_deg = wrap_deg(spot_on + err)
        out, _ = sim.step(OperatorAction(), 15.0)
        assert out.radar_state == expected, err


def test_radar_all_twelve_states_reachable():
    sim = RoverSim(5, LOW)
    relay = DEFAULT_PHYSICS.relay_pos_m
    spot_on = bearing_deg((sim.state.x_m, sim.state.y_m), relay)
    seen = set()
    for err in np.arange(0.0, 180.0, 1.0):
        sim.state.radar_heading_deg = wrap_deg(spot_on + float(err))
        out, _ = sim.step(OperatorAction(), 15.0)
        seen.add(out.radar_state)
    assert seen == set(range(12))


def test_radar_flash_doubles_every_10s():
    sim = RoverSim(6, LOW)
    s = sim.state
    relay = DEFAULT_PHYSICS.relay_pos_m
    s.radar_heading_deg = wrap_deg(bearing_deg((s.x_m, s.y_m), relay) + 170.0)
    freqs = []
    for _ in range(250):  # 25 s uncorrected; 25 degrees of drift keep the state below 4
        s, _ = sim.step(OperatorAction(), 15.0)
        freqs.append(s.flash_hz)
    assert freqs[50] == 1.0      # first 10 s at base rate
    assert freqs[150] == 2.0     # doubled after 10 s
    assert freqs[240] == 4.0     # doubled again after 20 s


ACTIONS = st.builds(OperatorAction, throttle=st.floats(0.0, 1.0), steer=st.floats(-1.0, 1.0),
                    rotate_dish=st.sampled_from([-1, 0, 1]),
                    switch_channel=st.sampled_from([None, "A", "B"]),
                    acknowledge=st.booleans(), vent_co2=st.booleans(),
                    overdrive=st.booleans(), drop_marker=st.booleans())

PHYSICS = st.fixed_dictionaries({}, optional={
    "k_temp": st.floats(0.5, 20.0),
    "stall_on_c": st.floats(95.0, 160.0),
    "stall_off_c": st.floats(40.0, 95.0),
    "overdrive_s": st.floats(0.05, 20.0),
    "overdrive_cost_pct": st.floats(0.0, 60.0),
    "k_co2": st.floats(0.0, 1.0),
    "dish_slew_deg_s": st.floats(0.0, 90.0),
    "radar_state_span_deg": st.floats(1.0, 30.0),
    "flash_double_s": st.floats(0.1, 20.0),
    "reprompt_base_s": st.floats(0.1, 30.0),
    "reprompt_floor_s": st.floats(0.0, 4.0),
    "report_in_fraction": st.floats(0.0, 1.0),
}).map(lambda changes: replace(DEFAULT_PHYSICS, **changes))

# a state a run can reach: hot enough to stall, short of air, the dish off
# the relay, an overdrive or an uncorrected radar alarm under way
START = st.fixed_dictionaries({}, optional={
    "motor_temp_c": st.floats(20.0, 200.0),
    "stalled": st.booleans(),
    "battery_pct": st.floats(0.0, 100.0),
    "o2_pct": st.floats(0.0, 100.0),
    "co2_pct": st.floats(0.0, 100.0),
    "radar_heading_deg": st.floats(-180.0, 180.0, exclude_max=True),
    "overdrive_remaining_s": st.floats(0.0, 10.0),
    "flash_uncorrected_s": st.floats(0.0, 60.0),
})


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), level=st.sampled_from(["low", "high"]),
       task_active=st.booleans(), physics=PHYSICS, start=START,
       first_prompt_s=st.one_of(st.none(), st.floats(0.0, 5.0)),
       breath_rate_bpm=st.floats(0.0, 40.0), actions=st.lists(ACTIONS, min_size=1, max_size=30),
       ticks=st.integers(1, 400))
def test_step_equals_the_three_step_functions(seed, level, task_active, physics, start,
                                              first_prompt_s, breath_rate_bpm, actions, ticks):
    """RoverSim.step gives, tick by tick, the state, every field to the bit,
    and the comm events that the three step functions give when composed."""
    sims = [RoverSim(seed, preset(level), physics, task_active) for _ in range(2)]
    for sim in sims:
        for name, value in start.items():
            setattr(sim.state, name, value)
        if first_prompt_s is not None:  # a prompt early enough for its re-prompts
            sim._next_arrival_ns = round(first_prompt_s * 1e9)
    sim, ref = sims
    for k in range(ticks):
        action = actions[k % len(actions)]
        got, events = sim.step(action, breath_rate_bpm)
        want, want_events = reference_step(ref, action, breath_rate_bpm)
        for f in fields(RoverState):
            assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), (k, f.name)
        assert repr(events) == repr(want_events), k
        assert sim._next_arrival_ns == ref._next_arrival_ns, k


def test_comms_reprompt_halving():
    sim = RoverSim(1, LOW)
    # force a prompt immediately, never answer it
    sim._next_arrival_ns = 0
    request_times = []
    for _ in range(4000):  # 400 s
        state, events = sim.step(OperatorAction(), 15.0)
        for ev in events:
            if ev["event"] == "request":
                request_times.append(state.t_ns / 1e9)
        if len(request_times) >= 5:
            break
    gaps = np.diff(request_times[:5])
    assert gaps[0] == pytest.approx(16.0, abs=0.11)
    assert gaps[1] == pytest.approx(8.0, abs=0.11)
    assert gaps[2] == pytest.approx(4.0, abs=0.11)
    assert gaps[3] == pytest.approx(2.0, abs=0.11)


def test_comms_answer_logs_latency_without_reprompt():
    sim = RoverSim(2, LOW)
    sim._next_arrival_ns = 0
    state, events = sim.step(OperatorAction(), 15.0)
    (req,) = [e for e in events if e["event"] == "request"]
    target = req["target"] or None
    answered = []
    for _ in range(15):  # answer 1.5 s after issue
        state, events = sim.step(OperatorAction(), 15.0)
        answered += [e for e in events if e["event"] == "response"]
    action = OperatorAction(switch_channel=target) if target else OperatorAction(acknowledge=True)
    state, events = sim.step(action, 15.0)
    answered += [e for e in events if e["event"] == "response"]
    assert len(answered) == 1
    assert answered[0]["latency_s"] == pytest.approx(1.6, abs=0.11)
    assert answered[0]["reprompts"] == 0


def test_closed_loop_low_difficulty_completes():
    _, out = run_closed_loop(0, LOW)
    assert out.status == "completed"
    assert out.alert_response_stats["comm_mean_latency_s"] is not None


def test_closed_loop_unresponsive_fails_by_resources():
    _, out = run_closed_loop(0, LOW, PolicyConfig(reaction_mean_s=math.inf))
    assert out.status == "failed_co2"


def test_closed_loop_deterministic():
    t1, o1 = run_closed_loop(5, HIGH)
    t2, o2 = run_closed_loop(5, HIGH)
    assert o1 == o2
    assert len(t1) == len(t2)
    for a, b in zip(t1, t2):
        assert a.state == b.state and a.action == b.action


def test_monotone_resources_over_closed_loop():
    for seed in (0, 1, 2):
        trace, _ = run_closed_loop(seed, HIGH)
        o2 = [r.state.o2_pct for r in trace]
        battery = [r.state.battery_pct for r in trace]
        dist = [r.state.distance_traveled_m for r in trace]
        assert all(b <= a for a, b in zip(o2, o2[1:]))
        assert all(b <= a for a, b in zip(battery, battery[1:]))
        assert all(b >= a for a, b in zip(dist, dist[1:]))
        for prev, rec in zip(trace, trace[1:]):
            if rec.state.co2_pct < prev.state.co2_pct:
                assert rec.action.vent_co2  # co2 only drops via vent
            assert rec.state.radar_state in range(12)
            if rec.state.stalled:
                assert rec.state.speed_m_s == 0.0


def test_evaluate_run_failure_rules():
    trace, out = run_closed_loop(3, LOW)
    assert out.status == "completed"
    assert out.distance_m > 0
    with pytest.raises(IncompleteTrace):
        evaluate_run([], RoverSim(3, LOW))
    with pytest.raises(IncompleteTrace):
        RunTally(RoverSim(3, LOW)).outcome()


POLICIES = st.one_of(st.just(PolicyConfig()), st.just(PolicyConfig(reaction_mean_s=math.inf)),
                     st.floats(0.0, 1.0).map(lambda rate: PolicyConfig(error_rate=rate)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), level=st.sampled_from(["low", "high"]), policy=POLICIES,
       timeout_s=st.one_of(st.integers(1, 60).map(float), st.just(720.0)),
       co2_fail_pct=st.one_of(st.just(DEFAULT_PHYSICS.co2_fail_pct), st.floats(30.0, 100.0)))
def test_run_tally_equals_evaluate_run(seed, level, policy, timeout_s, co2_fail_pct):
    """The tally folded tick by tick gives the outcome the kept trace gives,
    and stops the run on the trace's first run-end tick."""
    physics = replace(DEFAULT_PHYSICS, co2_fail_pct=co2_fail_pct)
    trace, out = run_closed_loop(seed, preset(level), policy, timeout_s=timeout_s,
                                 physics=physics)
    sim = RoverSim(seed, preset(level), physics)
    assert out == evaluate_run(trace, sim)
    ends = [run_end(sim, rec.state, rec.action) for rec in trace]
    assert not any(ends[:-1])
    assert ends[-1] or len(trace) == int(timeout_s / DT_S)


def test_configured_co2_limit_ends_and_reports_the_run():
    physics = replace(DEFAULT_PHYSICS, co2_fail_pct=36.06)
    trace, out = run_closed_loop(3, preset("high"), timeout_s=60.0, physics=physics)
    assert len(trace) == 301
    assert trace[-1].state.co2_pct >= physics.co2_fail_pct
    assert out.status == "failed_co2"


def test_out_of_band_rules_marker_radius():
    trace, out = run_closed_loop(4, LOW)
    # the completing tick dropped the marker within the goal radius
    last = trace[-1]
    assert last.action.drop_marker
