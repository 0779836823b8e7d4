"""Difficulty parameter sets.

High difficulty strictly tightens every knob relative to low: shorter mean
prompt interval, faster radar drift, larger drain/thermal/terrain/CO2
scales.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PlanInvalid


@dataclass(frozen=True)
class DifficultyParams:
    level: str
    comm_mean_interval_s: float
    radar_decay_deg_per_s: float
    battery_drain_scale: float
    temp_gain_scale: float
    terrain_roughness: float
    co2_rate_scale: float


LOW = DifficultyParams(
    level="low",
    comm_mean_interval_s=45.0,
    radar_decay_deg_per_s=1.0,
    battery_drain_scale=1.0,
    temp_gain_scale=1.0,
    terrain_roughness=0.3,
    co2_rate_scale=1.0,
)

HIGH = DifficultyParams(
    level="high",
    comm_mean_interval_s=20.0,
    radar_decay_deg_per_s=3.0,
    battery_drain_scale=1.6,
    temp_gain_scale=1.4,
    terrain_roughness=0.6,
    co2_rate_scale=1.8,
)


def preset(level: str) -> DifficultyParams:
    if level == "low":
        return LOW
    if level == "high":
        return HIGH
    raise PlanInvalid(f"unknown difficulty level {level!r}")

