import dataclasses
import json
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mwpipe.bag import read_manifest, validate
from mwpipe.config import (
    load_config,
    plan_from_config,
    profile_from_config,
)
from mwpipe.errors import MwpipeError, PlanInvalid
from mwpipe.features import GazeThresholds
from mwpipe.session import SessionPlan, run_session
from mwpipe.sim.difficulty import preset
from mwpipe.sim.operator import PolicyConfig, ScriptedOperator
from mwpipe.sim.rover import PhysicsParams, RoverSim
from mwpipe.synth import GazeEvent, SynthProfile


def test_defaults_when_no_config():
    plan = plan_from_config({})
    assert plan.baseline_s == 300.0
    assert plan.run_order == ("low", "high", "low", "high")


def test_plan_fields_loaded(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "seed": 4,
        "baseline_s": 60.0,
        "run_order": ["high", "low", "high", "low"],
        "profile": {"rr_mean_ms": 900.0, "resp_rate_bpm": 12.0},
        "policy": {"reaction_mean_s": 0.4},
        "gaze_thresholds": {"saccade_speed_deg_s": 40.0},
        "physics": {"v_max_m_s": 2.5},
    }))
    plan = plan_from_config(load_config(str(cfg)))
    assert plan.seed == 4
    assert plan.baseline_s == 60.0
    assert plan.profile.rr_mean_ms == 900.0
    assert plan.policy.reaction_mean_s == 0.4
    assert plan.gaze_thresholds.saccade_speed_deg_s == 40.0
    assert plan.physics.v_max_m_s == 2.5


def test_unknown_profile_field_rejected():
    with pytest.raises(PlanInvalid):
        profile_from_config({"profile": {"not_a_field": 1}})


@pytest.mark.parametrize("profile", [{"duration_s": 1e300}, {"rr_mean_ms": -5},
                                     {"resp_rate_bpm": 4}, {"st_base_c": 40.5}])
def test_profile_out_of_range_is_plan_invalid(profile):
    with pytest.raises(PlanInvalid):
        profile_from_config({"profile": profile})


def test_gaze_script_parsed():
    profile = profile_from_config({
        "gaze_script": [
            {"kind": "fixation", "start_s": 0.0, "duration_s": 5.0,
             "x_deg": 0.0, "y_deg": 0.0},
            {"kind": "saccade", "start_s": 5.0, "duration_s": 0.04,
             "amplitude_deg": 8.0},
        ],
        "duration_s": 10.0,
    })
    assert len(profile.gaze_script) == 2
    assert profile.gaze_script[1].amplitude_deg == 8.0


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("MWPIPE_SEED", "123")
    plan = plan_from_config({"seed": 4})
    assert plan.seed == 123
    assert plan.profile.seed == 123


def test_seed_env_not_integer_is_plan_invalid(monkeypatch):
    monkeypatch.setenv("MWPIPE_SEED", "x")
    with pytest.raises(PlanInvalid):
        plan_from_config({})
    with pytest.raises(PlanInvalid):
        profile_from_config({})


def test_a_negative_seed_is_plan_invalid(monkeypatch):
    """default_rng takes no negative seed, whether from the file or from
    MWPIPE_SEED; a large one is fine."""
    with pytest.raises(PlanInvalid, match="seed must not be negative"):
        profile_from_config({"seed": -1})
    assert profile_from_config({"seed": 2**70}).seed == 2**70
    monkeypatch.setenv("MWPIPE_SEED", "-5")
    with pytest.raises(PlanInvalid, match="seed must not be negative"):
        plan_from_config({})
    with pytest.raises(PlanInvalid, match="seed must not be negative"):
        profile_from_config({})


@pytest.mark.parametrize("cfg, key", [
    ({"profile": {"seed": 5}, "phase_profiles": {"run": {"seed": 9}}}, "profile"),
    ({"seed": 3, "phase_profiles": {"rest": {"rr_mean_ms": 700.0}, "run": {"seed": 9}}},
     "phase_profiles run"),
], ids=["profile", "phase_profile"])
def test_a_seed_under_a_profile_of_a_plan_is_refused_by_name(cfg, key, monkeypatch):
    """plan_from_config recorded seed 0 for the first of these and never
    used the phase seed; synth's profile_from_config still takes one."""
    monkeypatch.delenv("MWPIPE_SEED", raising=False)
    with pytest.raises(PlanInvalid, match=f"^config {key} has a seed"):
        plan_from_config(cfg)
    assert profile_from_config({"profile": {"seed": 5}}).seed == 5


def test_phase_profile_override_runs(tmp_path):
    base = SynthProfile(rr_mean_ms=800.0)
    fast = SynthProfile(rr_mean_ms=650.0, resp_rate_bpm=20.0)
    plan = SessionPlan(seed=6, baseline_s=32.0, interrun_s=10.0, run_timeout_s=15.0,
                       profile=base, phase_profiles={"run": fast})
    result = run_session(plan, tmp_path / "pp.bag")
    assert validate(result.bag_path).ok
    with pytest.raises(PlanInvalid):
        SessionPlan(phase_profiles={"warmup": base}).validate()


def test_session_error_leaves_valid_truncated_bag(tmp_path, monkeypatch):
    plan = SessionPlan(seed=7, baseline_s=32.0, interrun_s=10.0, run_timeout_s=15.0)
    calls = {"n": 0}
    import mwpipe.session as session_mod

    original = session_mod._PhaseStreams

    class Exploding(original):
        def __init__(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("injected failure")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(session_mod, "_PhaseStreams", Exploding)
    path = tmp_path / "abort.bag"
    with pytest.raises(RuntimeError):
        run_session(plan, path)
    # the bag so far is still readable and structurally clean
    assert read_manifest(path)["format"] == "MWBAG1"
    report = validate(path)
    gap_free = [i for i in report.issues if i.kind != "gap"]
    assert gap_free == []
    assert report.records > 0


BAD_CONFIGS = {
    "not_json": "{seed: 4",
    "not_an_object": "[1, 2]",
    "unknown_policy_key": '{"policy": {"no_such_key": 1}}',
    "unknown_physics_key": '{"physics": {"no_such_key": 1}}',
    "unknown_gaze_thresholds_key": '{"gaze_thresholds": {"no_such_key": 1}}',
    "profile_not_object": '{"profile": 5}',
    "phase_profiles_not_object": '{"phase_profiles": 5}',
    "run_order_not_list": '{"run_order": 5}',
    "baseline_s_not_number": '{"baseline_s": "x"}',
    "physics_not_object": '{"physics": 5}',
    "scr_events_not_list": '{"profile": {"scr_events": 5}}',
    "gaze_script_entry_not_object": '{"profile": {"gaze_script": [5]}}',
    "seed_not_integer": '{"seed": "x"}',
    "seed_negative": '{"seed": -1}',
    # a plan has one seed; these were dropped or kept unused
    "profile_seed": '{"profile": {"seed": 5}}',
    "phase_profile_seed": '{"phase_profiles": {"run": {"seed": 9}}}',
    "tlx_jitter_not_integer": '{"tlx_jitter": "x"}',
    # scripted_tlx draws from [-tlx_jitter, tlx_jitter] in int64
    "tlx_jitter_negative": '{"tlx_jitter": -1}',
    "tlx_jitter_beyond_int64": '{"tlx_jitter": 9223372036854775808}',
    "policy_value_not_number": '{"policy": {"reaction_mean_s": "x"}}',
    "policy_value_bool": '{"policy": {"error_rate": true}}',
    "policy_not_object": '{"policy": [1]}',
    "physics_value_not_number": '{"physics": {"v_max_m_s": "x"}}',
    "relay_pos_entry_not_number": '{"physics": {"relay_pos_m": ["a", 1.0]}}',
    "gaze_thresholds_value_not_number": '{"gaze_thresholds": {"saccade_speed_deg_s": "x"}}',
    "gaze_thresholds_int_field_float": '{"gaze_thresholds": {"saccade_min_samples": 2.5}}',
    "gaze_event_x_not_number": ('{"profile": {"gaze_script": [{"kind": "fixation", '
                                '"start_s": 0, "duration_s": 1, "x_deg": "a"}]}}'),
    "gaze_event_start_is_text": ('{"profile": {"gaze_script": [{"kind": "fixation", '
                                 '"start_s": "0", "duration_s": 1}]}}'),
    "gaze_event_kind_not_text": '{"profile": {"gaze_script": [{"kind": 5, "start_s": 0, '
                                '"duration_s": 1}]}}',
    "gaze_event_without_kind": '{"profile": {"gaze_script": [{"start_s": 0, "duration_s": 1}]}}',
    "baseline_s_nan": '{"baseline_s": NaN}',
    "baseline_s_infinity": '{"baseline_s": Infinity}',
    "baseline_s_1e999": '{"baseline_s": 1e999}',
    "profile_duration_minus_infinity": '{"profile": {"duration_s": -Infinity}}',
    "physics_value_1e999": '{"physics": {"v_max_m_s": 1e999}}',
    "baseline_s_1e300": '{"baseline_s": 1e300}',
    "baseline_s_401_digits": '{"baseline_s": 1' + "0" * 400 + "}",
    "session_overruns_int64_ns": '{"run_timeout_s": 2.5e9}',
    "profile_resp_rate_out_of_range": '{"profile": {"resp_rate_bpm": 70}}',
    "profile_st_base_out_of_range": '{"profile": {"st_base_c": 20}}',
    "profile_pupil_base_out_of_range": '{"profile": {"pupil_base_mm": 9.0}}',
    "profile_rr_mean_negative": '{"profile": {"rr_mean_ms": -5}}',
    "profile_duration_1e300": '{"profile": {"duration_s": 1e300}}',
    "phase_profile_pupil_base_out_of_range": '{"phase_profiles": {"run": {"pupil_base_mm": 9.0}}}',
    "profile_eda_tonic_401_digits": '{"profile": {"eda_tonic_uS": 1' + "0" * 400 + "}}",
    "policy_value_401_digits": '{"policy": {"reaction_mean_s": 1' + "0" * 400 + "}}",
    "scr_event_amplitude_negative": '{"profile": {"scr_events": [[2.0, -1.0]]}}',
    "scr_events_closer_than_1s": '{"profile": {"scr_events": [[2.0, 0.1], [2.5, 0.1]]}}',
    "scr_events_out_of_order": '{"phase_profiles": {"run": {"scr_events": [[5, 0.1], [2, 0.1]]}}}',
    "gaze_events_overlap": ('{"profile": {"gaze_script": [{"kind": "fixation", "start_s": 0, '
                            '"duration_s": 2}, {"kind": "fixation", "start_s": 1, '
                            '"duration_s": 2}]}}'),
    # physics and policy the simulator would hang or crash on
    "physics_map_size_zero": '{"physics": {"map_size_m": 0}}',
    "physics_map_size_negative": '{"physics": {"map_size_m": -1}}',
    "physics_min_separation_beyond_map": '{"physics": {"min_separation_m": 5000}}',
    "physics_radar_state_span_zero": '{"physics": {"radar_state_span_deg": 0}}',
    "physics_flash_double_zero": '{"physics": {"flash_double_s": 0}}',
    "physics_flash_rate_overflows": '{"physics": {"flash_double_s": 0.01}}',
    "physics_gravity_zero": '{"physics": {"gravity_g": 0}}',
    "physics_traction_zero": '{"physics": {"traction_mu": 0}}',
    "physics_reprompt_base_beyond_ns": '{"physics": {"reprompt_base_s": 1e300}}',
    "policy_cruise_throttle_above_1": '{"policy": {"cruise_throttle": 2.0}}',
    "policy_cruise_throttle_negative": '{"policy": {"cruise_throttle": -0.5}}',
    "policy_reaction_mean_beyond_ns": '{"policy": {"reaction_mean_s": 1e300}}',
    "policy_reaction_jitter_beyond_ns": '{"policy": {"reaction_jitter_s": 1e300}}',
    "gaze_event_kind_unknown": ('{"profile": {"gaze_script": [{"kind": "blink", "start_s": 0, '
                                '"duration_s": 1}]}}'),
    # a top-level typo once left the default 300 s baseline in place
    "unknown_top_level_key": '{"basline_s": 3}',
    # the relay is one point: one number crashed the simulator, a third went unused
    "relay_pos_one_number": '{"physics": {"relay_pos_m": [500.0]}}',
    "relay_pos_three_numbers": '{"physics": {"relay_pos_m": [1, 2, 3]}}',
    # an SCR event is two numbers, never text or a boolean
    "scr_event_time_is_text": '{"profile": {"scr_events": [["5", 0.1]]}}',
    "scr_event_time_is_bool": '{"profile": {"scr_events": [[true, 0.1]]}}',
}


@pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_bad_config_is_plan_invalid(tmp_path, text):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    with pytest.raises(PlanInvalid):
        plan_from_config(load_config(str(cfg)))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=2000)
@given(raw=st.one_of(st.binary(max_size=200),
                     json_values.map(lambda v: json.dumps(v).encode()),
                     st.integers(1, 5000).map(lambda n: b"[" * n + b"]" * n)))
@example(raw=b"[" * 100_000)
@example(raw=b'{"a": ' * 50_000)
@example(raw=b"\xff\xfe{}")
def test_load_config_parses_or_raises_plan_invalid(tmp_path_factory, raw):
    """Any file gives a config object or an MwpipeError, in bounded time."""
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_bytes(raw)
    try:
        cfg = load_config(str(path))
    except MwpipeError:
        return
    assert isinstance(cfg, dict)


def keyed(names, values):
    """Objects over the given keys."""
    return st.dictionaries(st.sampled_from(sorted(names)), values, max_size=4)


finite_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=8)
gaze_events = keyed(("kind", "start_s", "duration_s", "direction_deg", "x_deg", "y_deg",
                     "amplitude_deg", "velocity_deg_s"),
                    finite_json | st.sampled_from(["fixation", "saccade", "pursuit", "blink"]))
profiles = keyed([f.name for f in dataclasses.fields(SynthProfile)],
                 finite_json | st.lists(gaze_events, max_size=3)
                 | st.lists(st.lists(finite_json, max_size=3), max_size=3))
config_objects = st.fixed_dictionaries({}, optional={
    "profile": profiles | finite_json,
    "phase_profiles": st.dictionaries(st.sampled_from(["baseline", "run", "freeplay", "rest"]),
                                      profiles | finite_json, max_size=3) | finite_json,
    "policy": keyed([f.name for f in dataclasses.fields(PolicyConfig)], finite_json) | finite_json,
    "physics": keyed([f.name for f in dataclasses.fields(PhysicsParams)],
                     finite_json | st.lists(finite_json, max_size=3)) | finite_json,
    "gaze_thresholds": keyed([f.name for f in dataclasses.fields(GazeThresholds)],
                             finite_json) | finite_json,
    "run_order": st.lists(st.sampled_from(["low", "high"]) | finite_json, max_size=5)
    | finite_json,
    **{key: finite_json for key in ("seed", "baseline_s", "interrun_s", "run_timeout_s",
                                    "tlx_jitter")},
})


@settings(max_examples=300, deadline=None)
@given(cfg=config_objects)
@example(cfg={"physics": {"relay_pos_m": [500.0]}})
def test_plan_from_config_gives_a_valid_plan_or_plan_invalid(cfg):
    """Any values under the config's own keys, nested ones included, give a
    plan that validates and that the simulator and operator can start on,
    or an MwpipeError, never a raw exception."""
    with mock.patch.dict(os.environ):
        os.environ.pop("MWPIPE_SEED", None)
        try:
            plan = plan_from_config(cfg)
        except MwpipeError:
            return
    plan.validate()
    sim = RoverSim(0, preset("low"), plan.physics)
    sim.step(ScriptedOperator(plan.policy, 0).act(sim, sim.state), 15.0)


def typed(value):
    """value with the type of each of its leaves, so that 1 and 1.0 differ."""
    if dataclasses.is_dataclass(value):
        return type(value), {f.name: typed(getattr(value, f.name))
                             for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return type(value), [typed(v) for v in value]
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    return type(value), value


DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.json")
MIXED_CONFIG = {
    "seed": 3,
    "baseline_s": 35,
    "profile": {
        "rr_mean_ms": 900,
        "scr_events": [[5, 1], [7.5, 0.25]],
        "gaze_script": [
            {"kind": "fixation", "start_s": 0, "duration_s": 2, "x_deg": 1, "y_deg": None},
            {"kind": "saccade", "start_s": 2, "duration_s": 0.04, "amplitude_deg": 8,
             "direction_deg": 90},
        ],
    },
    "phase_profiles": {"run": {"resp_rate_bpm": 20, "scr_events": [[1, 2]]}},
    "policy": {"error_rate": 0},
    "physics": {"relay_pos_m": [500, 1200.5], "v_max_m_s": 2},
    "gaze_thresholds": {"saccade_min_samples": 3},
}
MIXED_PLAN = SessionPlan(
    seed=3, baseline_s=35,
    profile=SynthProfile(
        seed=3, rr_mean_ms=900, scr_events=[(5.0, 1.0), (7.5, 0.25)],
        gaze_script=[GazeEvent("fixation", 0.0, 2.0, x_deg=1),
                     GazeEvent("saccade", 2.0, 0.04, amplitude_deg=8, direction_deg=90.0)]),
    phase_profiles={"run": SynthProfile(resp_rate_bpm=20, scr_events=[(1.0, 2.0)])},
    policy=PolicyConfig(error_rate=0),
    physics=PhysicsParams(relay_pos_m=(500, 1200.5), v_max_m_s=2),
    gaze_thresholds=GazeThresholds(saccade_min_samples=3))


@pytest.mark.parametrize("cfg, expected", [(load_config(DEFAULT_CONFIG), SessionPlan()),
                                           (MIXED_CONFIG, MIXED_PLAN)],
                         ids=["default_json", "mixed"])
def test_a_config_reads_to_its_plan_with_the_same_value_types(cfg, expected, monkeypatch):
    """An int in a float field stays an int, as the session manifest records
    it; gaze event times and direction and SCR events are floats."""
    monkeypatch.delenv("MWPIPE_SEED", raising=False)
    assert typed(plan_from_config(cfg)) == typed(expected)
