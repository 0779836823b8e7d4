"""Shared JSON config: synthesis profile, session plan, policy, thresholds.

One human-editable file whose objects and field names mirror the
dataclasses. One reader, _read, reads each value against the default it
replaces, so the defaults say which fields an object has and what each
takes; _FIELDS holds the readers of the few fields whose default does not
show that. Every key is optional and falls back to its default; an unknown
key, at any level, or a value of the wrong type or shape raises PlanInvalid.
MWPIPE_SEED in the environment overrides any configured seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

from .errors import InvalidProfile, PlanInvalid
from .features.gaze import GazeThresholds
from .session import SessionPlan
from .synth import GazeEvent, SynthProfile


def _of_type(key: str, value, kind):
    """value when it is an instance of kind (a bool never is); otherwise
    PlanInvalid."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise PlanInvalid(f"{key} has the wrong type: {value!r:.40}")
    return value


def _read(key: str, value, default):
    """value, the config's entry under key, read against the default it
    replaces: a dataclass takes an object of its fields, each read by its
    reader in _FIELDS or else like its default; a tuple a list of as many
    items, each read like the default's; a float or None a number (an int
    stays an int, if its float is finite), and None also null; anything
    else a value of the default's type. Anything else raises PlanInvalid."""
    if dataclasses.is_dataclass(default):
        names = {f.name for f in dataclasses.fields(default)}
        fields = {}
        for name, item in _of_type(key, value, dict).items():
            if name not in names:
                raise PlanInvalid(f"{key} has no field {name!r}")
            fields[name] = _FIELDS.get(name, _read)(f"{key} {name}", item, getattr(default, name))
        return dataclasses.replace(default, **fields)
    if isinstance(default, tuple):
        if len(_of_type(key, value, list)) != len(default):
            raise PlanInvalid(f"{key} takes {len(default)} items, not {len(value)}")
        return tuple(_read(key, item, d) for item, d in zip(value, default))
    if not (default is None or isinstance(default, float)):
        return _of_type(key, value, type(default))
    if value is None and default is None:
        return value
    if isinstance(_of_type(key, value, (int, float)), int):
        try:
            float(value)
        except OverflowError:
            raise PlanInvalid(f"{key} is too large for a float: {value!r:.40}") from None
    return value


def _profile_of_plan(key: str, value, default: SynthProfile) -> SynthProfile:
    """A profile of a plan, which has one seed, its own: PlanInvalid on a seed."""
    if isinstance(value, dict) and "seed" in value:
        raise PlanInvalid(f"{key} has a seed; a plan takes only the top-level seed")
    return _read(key, value, default)


def _gaze_event(key: str, value) -> GazeEvent:
    """A gaze_script event: a text kind, times and direction as floats, and
    each target parameter a number or null."""
    event = _read(key, value, GazeEvent("", 0.0, 0.0))
    missing = {"kind", "start_s", "duration_s"} - value.keys()
    if missing:
        raise PlanInvalid(f"{key} event has no {' or '.join(sorted(missing))}")
    return dataclasses.replace(event, start_s=float(event.start_s),
                               duration_s=float(event.duration_s),
                               direction_deg=float(event.direction_deg))


# Readers (key, value, default) of the fields whose default does not show
# what they hold, or which take a rule of the plan's.
_FIELDS = {
    "profile": _profile_of_plan,
    "phase_profiles": lambda key, value, _: {
        name: _profile_of_plan(f"{key} {name}", d, SynthProfile())
        for name, d in _of_type(key, value, dict).items()},
    "scr_events": lambda key, value, _: [  # (time_s, amplitude_uS)
        tuple(map(float, _read(key, e, (0.0, 0.0)))) for e in _of_type(key, value, list)],
    "gaze_script": lambda key, value, _: [_gaze_event(key, e) for e in _of_type(key, value, list)],
}


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
    return _read("config gaze_thresholds", cfg.get("gaze_thresholds", {}), GazeThresholds())


def plan_from_config(cfg: dict) -> SessionPlan:
    """The session plan a config object describes; a value of the wrong type
    or out of range raises PlanInvalid."""
    plan = _read("config", cfg, SessionPlan())
    plan.seed = seed_override(plan.seed)
    plan.profile.seed = plan.seed
    return plan.validate()


def profile_from_config(cfg: dict) -> SynthProfile:
    """The synthesis profile a config object describes; a value of the wrong
    type or out of range raises PlanInvalid."""
    profile = _read("config profile" if "profile" in cfg else "config",
                    cfg.get("profile", cfg), SynthProfile())
    profile.seed = seed_override(profile.seed)
    try:
        return profile.validate()
    except InvalidProfile as e:
        raise PlanInvalid(f"profile: {e}") from e
