"""Shared JSON config: synthesis profile, session plan, policy, thresholds.

One human-editable file; field names mirror the dataclasses. Every key is
optional and falls back to the built-in defaults. MWPIPE_SEED in the
environment overrides any configured seed.
"""

from __future__ import annotations

import json
import os

from .errors import PlanInvalid
from .features import GazeThresholds
from .session import SessionPlan
from .sim import PhysicsParams, PolicyConfig
from .synth import GazeEvent, SynthProfile


def _gaze_event_from_dict(d: dict) -> GazeEvent:
    return GazeEvent(
        kind=d["kind"],
        start_s=float(d["start_s"]),
        duration_s=float(d["duration_s"]),
        x_deg=d.get("x_deg"),
        y_deg=d.get("y_deg"),
        amplitude_deg=d.get("amplitude_deg"),
        velocity_deg_s=d.get("velocity_deg_s"),
        direction_deg=float(d.get("direction_deg", 0.0)),
    )


_NUMBER = (int, float)


def _of_type(key: str, value, kind):
    """value when it is an instance of kind (a bool never is); otherwise
    PlanInvalid."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise PlanInvalid(f"config {key} has the wrong type: {value!r:.40}")
    return value


def profile_from_dict(d: dict) -> SynthProfile:
    """A profile whose fields have the types of SynthProfile's defaults
    (a float field also takes an int); anything else raises PlanInvalid."""
    profile = SynthProfile()
    for key, value in _of_type("profile", d, dict).items():
        if not hasattr(profile, key):
            raise PlanInvalid(f"unknown profile field {key!r}")
        default = getattr(profile, key)
        value = _of_type(f"profile {key}", value,
                         _NUMBER if isinstance(default, float) else type(default))
        try:
            if key == "scr_events":
                value = [(float(t), float(a)) for t, a in value]
            elif key == "gaze_script":
                value = [_gaze_event_from_dict(e) for e in value]
        except (TypeError, ValueError, KeyError) as e:
            raise PlanInvalid(f"bad profile {key}: {e}") from e
        setattr(profile, key, value)
    return profile


def load_config(path: str | None) -> dict:
    """The config object in a JSON file; a file that is not UTF-8 JSON, or
    holds anything but an object, raises PlanInvalid."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
            raise PlanInvalid(f"config {path} is not UTF-8 JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise PlanInvalid(f"config {path} is not a JSON object")
    return cfg


def _from_fields(cls, key: str, fields):
    """cls(**fields) for the config object under key; an unknown field
    raises PlanInvalid."""
    try:
        return cls(**fields)
    except TypeError as e:
        raise PlanInvalid(f"bad {key} config: {e}") from e


def seed_override(seed: int) -> int:
    env = os.environ.get("MWPIPE_SEED")
    return int(env) if env else seed


def gaze_thresholds_from_config(cfg: dict) -> GazeThresholds:
    return _from_fields(GazeThresholds, "gaze_thresholds", cfg.get("gaze_thresholds", {}))


_PLAN_SCALARS = {"seed": int, "baseline_s": _NUMBER, "interrun_s": _NUMBER,
                 "run_timeout_s": _NUMBER, "tlx_jitter": int}


def plan_from_config(cfg: dict) -> SessionPlan:
    """The session plan a config object describes; a value of the wrong type
    or out of range raises PlanInvalid."""
    plan = SessionPlan()
    if "profile" in cfg:
        plan.profile = profile_from_dict(cfg["profile"])
    if "phase_profiles" in cfg:
        plan.phase_profiles = {
            name: profile_from_dict(d)
            for name, d in _of_type("phase_profiles", cfg["phase_profiles"], dict).items()
        }
    if "policy" in cfg:
        plan.policy = _from_fields(PolicyConfig, "policy", cfg["policy"])
    if "physics" in cfg:
        phys = dict(_of_type("physics", cfg["physics"], dict))
        if "relay_pos_m" in phys:
            phys["relay_pos_m"] = tuple(_of_type("physics relay_pos_m", phys["relay_pos_m"], list))
        plan.physics = _from_fields(PhysicsParams, "physics", phys)
    plan.gaze_thresholds = gaze_thresholds_from_config(cfg)
    for key, kind in _PLAN_SCALARS.items():
        if key in cfg:
            setattr(plan, key, _of_type(key, cfg[key], kind))
    if "run_order" in cfg:
        plan.run_order = tuple(_of_type("run_order", x, str)
                               for x in _of_type("run_order", cfg["run_order"], list))
    plan.seed = seed_override(plan.seed)
    plan.profile.seed = plan.seed
    return plan.validate()


def profile_from_config(cfg: dict) -> SynthProfile:
    profile = profile_from_dict(cfg.get("profile", cfg))
    profile.seed = seed_override(profile.seed)
    return profile.validate()
