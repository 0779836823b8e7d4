import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwpipe.errors import IncompleteTrace, PlanInvalid
from mwpipe.sim.difficulty import HIGH, LOW, preset, validate_pair
from mwpipe.sim.operator import PolicyConfig
from mwpipe.sim.outcome import RunTally, run_end
from mwpipe.sim.rover import (DEFAULT_PHYSICS, DT_S, OperatorAction, RoverSim, bearing_deg,
                              init_run, step_dynamics, update_radar, wrap_deg)

from oracles import evaluate_run, run_closed_loop


def test_init_run_deterministic():
    a_state, a_goal, _, _ = init_run(7, LOW)
    b_state, b_goal, _, _ = init_run(7, LOW)
    assert (a_state.x_m, a_state.y_m) == (b_state.x_m, b_state.y_m)
    assert a_goal == b_goal


def test_init_run_property_sweep():
    for seed in range(1000):
        s, goal, _, _ = init_run(seed, LOW)
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
    s, _, terrain, _ = init_run(1, LOW)
    s.motor_temp_c = 60.0
    for _ in range(3000):  # 300 s, five cooling time constants
        s = step_dynamics(s, OperatorAction(), 15.0, 0.1, LOW, DEFAULT_PHYSICS, terrain)
    assert s.speed_m_s == 0.0
    assert 50.0 <= s.motor_temp_c < 51.0


def test_stall_latch_and_release():
    s, _, terrain, _ = init_run(2, LOW)
    s.motor_temp_c = 139.0
    stalled_seen = False
    released_at = None
    for _ in range(6000):
        throttle = 0.0 if s.stalled or stalled_seen else 1.0
        s = step_dynamics(s, OperatorAction(throttle=throttle, overdrive=not stalled_seen),
                          15.0, 0.1, LOW, DEFAULT_PHYSICS, terrain)
        if s.stalled:
            stalled_seen = True
            assert s.speed_m_s == 0.0
        if stalled_seen and not s.stalled and released_at is None:
            released_at = s.motor_temp_c
    assert stalled_seen
    assert released_at is not None and released_at <= 90.0


def test_vent_resets_co2():
    s, _, terrain, _ = init_run(3, LOW)
    s.co2_pct = 40.0
    s = step_dynamics(s, OperatorAction(vent_co2=True), 15.0, 0.1, LOW, DEFAULT_PHYSICS, terrain)
    assert s.co2_pct == 0.0


def test_radar_state_mapping_endpoints():
    s, _, _, _ = init_run(4, LOW)
    relay = DEFAULT_PHYSICS.relay_pos_m
    spot_on = bearing_deg((s.x_m, s.y_m), relay)
    for err, expected in ((0.0, 11), (16.0, 10), (180.0, 0), (45.0, 8)):
        s.radar_heading_deg = wrap_deg(spot_on + err)
        s.angular_vel_deg_s = 0.0
        out = update_radar(s, OperatorAction(), 0.0, None, DEFAULT_PHYSICS)
        assert out.radar_state == expected, err


def test_radar_all_twelve_states_reachable():
    s, _, _, _ = init_run(5, LOW)
    relay = DEFAULT_PHYSICS.relay_pos_m
    spot_on = bearing_deg((s.x_m, s.y_m), relay)
    seen = set()
    for err in np.arange(0.0, 180.0, 1.0):
        s.radar_heading_deg = wrap_deg(spot_on + float(err))
        s.angular_vel_deg_s = 0.0
        out = update_radar(s, OperatorAction(), 0.0, None, DEFAULT_PHYSICS)
        seen.add(out.radar_state)
    assert seen == set(range(12))


def test_radar_flash_doubles_every_10s():
    s, _, _, _ = init_run(6, LOW)
    relay = DEFAULT_PHYSICS.relay_pos_m
    s.radar_heading_deg = wrap_deg(bearing_deg((s.x_m, s.y_m), relay) + 170.0)
    s.angular_vel_deg_s = 0.0
    freqs = []
    for _ in range(250):  # 25 s uncorrected
        s = update_radar(s, OperatorAction(), 0.1, None, DEFAULT_PHYSICS)
        freqs.append(s.flash_hz)
    assert freqs[50] == 1.0      # first 10 s at base rate
    assert freqs[150] == 2.0     # doubled after 10 s
    assert freqs[240] == 4.0     # doubled again after 20 s


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
