"""Shared JSON config: synthesis profile, session plan, policy, thresholds.

One human-editable file; field names mirror the dataclasses. Every key is
optional and falls back to the built-in defaults. MWPIPE_SEED in the
environment overrides any configured seed.
"""

from __future__ import annotations

import json
import math
import os

from .errors import InvalidProfile, PlanInvalid
from .features.gaze import GazeThresholds
from .session import SessionPlan
from .sim.operator import PolicyConfig
from .sim.rover import PhysicsParams
from .synth import GazeEvent, SynthProfile


_NUMBER = (int, float)


def _of_type(key: str, value, kind):
    """value when it is an instance of kind (a bool never is); otherwise
    PlanInvalid."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise PlanInvalid(f"config {key} has the wrong type: {value!r:.40}")
    return value


def _like(key: str, value, default):
    """value when it has the type of default (a float also takes an int whose
    float is finite)."""
    if not isinstance(default, float):
        return _of_type(key, value, type(default))
    if isinstance(_of_type(key, value, _NUMBER), int):
        try:
            float(value)
        except OverflowError:
            raise PlanInvalid(f"config {key} is too large for a float: {value!r:.40}") from None
    return value


_GAZE_PARAMS = ("x_deg", "y_deg", "amplitude_deg", "velocity_deg_s")


def _gaze_event_from_dict(d) -> GazeEvent:
    """A gaze_script event: a string kind, numeric times and direction, and
    each target parameter a number or null; anything else raises PlanInvalid."""
    d = _of_type("gaze_script event", d, dict)
    return GazeEvent(
        kind=_of_type("gaze_script kind", d["kind"], str),
        start_s=float(_of_type("gaze_script start_s", d["start_s"], _NUMBER)),
        duration_s=float(_of_type("gaze_script duration_s", d["duration_s"], _NUMBER)),
        direction_deg=float(_of_type("gaze_script direction_deg",
                                     d.get("direction_deg", 0.0), _NUMBER)),
        **{k: _of_type(f"gaze_script {k}", d[k], _NUMBER)
           for k in _GAZE_PARAMS if d.get(k) is not None},
    )


def profile_from_dict(d: dict) -> SynthProfile:
    """A profile whose fields have the types of SynthProfile's defaults
    (a float field also takes an int); anything else raises PlanInvalid."""
    profile = SynthProfile()
    for key, value in _of_type("profile", d, dict).items():
        if not hasattr(profile, key):
            raise PlanInvalid(f"unknown profile field {key!r}")
        value = _like(f"profile {key}", value, getattr(profile, key))
        try:
            if key == "scr_events":
                value = [(float(t), float(a)) for t, a in value]
            elif key == "gaze_script":
                value = [_gaze_event_from_dict(e) for e in value]
        except (TypeError, ValueError, KeyError) as e:
            raise PlanInvalid(f"bad profile {key}: {e}") from e
        setattr(profile, key, value)
    return profile


def _finite(text: str) -> float:
    """The JSON number (or NaN / Infinity constant) text as a float, if finite."""
    value = float(text)
    if not math.isfinite(value):
        raise PlanInvalid(f"config holds the non-finite number {text}")
    return value


def load_config(path: str | None) -> dict:
    """The config object in a JSON file; a file that is not UTF-8 JSON, nests
    too deeply to parse, holds anything but an object, or holds a number that
    is not finite (NaN, Infinity, 1e999), raises PlanInvalid."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
        except (ValueError, RecursionError) as e:  # UnicodeDecodeError or JSONDecodeError
            raise PlanInvalid(f"config {path} is not UTF-8 JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise PlanInvalid(f"config {path} is not a JSON object")
    return cfg


def _from_fields(cls, key: str, fields):
    """cls(**fields) for the config object under key, each field of the type
    of cls's default for it; an unknown field or a wrong type raises
    PlanInvalid."""
    defaults = cls()
    for name, value in _of_type(key, fields, dict).items():
        if not hasattr(defaults, name):
            raise PlanInvalid(f"unknown {key} field {name!r}")
        _like(f"{key} {name}", value, getattr(defaults, name))
    return cls(**fields)


def seed_override(seed: int) -> int:
    """MWPIPE_SEED from the environment when set, else seed; a value that is
    not an integer raises PlanInvalid."""
    env = os.environ.get("MWPIPE_SEED")
    if not env:
        return seed
    try:
        return int(env)
    except ValueError:
        raise PlanInvalid(f"MWPIPE_SEED is not an integer: {env!r}") from None


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
            phys["relay_pos_m"] = tuple(
                _of_type("physics relay_pos_m", x, _NUMBER)
                for x in _of_type("physics relay_pos_m", phys["relay_pos_m"], list))
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
    """The synthesis profile a config object describes; a value of the wrong
    type or out of range raises PlanInvalid."""
    profile = profile_from_dict(cfg.get("profile", cfg))
    profile.seed = seed_override(profile.seed)
    try:
        return profile.validate()
    except InvalidProfile as e:
        raise PlanInvalid(f"profile: {e}") from e
