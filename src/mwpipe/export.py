"""Feature-table CSV export from a recorded bag.

Re-runs window extraction over the raw bio topics, aligns each row to the
nearest simulator telemetry and difficulty markers, and writes one UTF-8
comma-separated file. Output is a pure function of the bag bytes and the
parameters: columns are ordered lexicographically, floats are serialized
with shortest round-trip decimals, and absent values are empty cells.
"""

from __future__ import annotations

import numpy as np

from .bag import iter_samples, read_manifest
from .bus import DEFAULT_ALIGN_TOLERANCE_NS, NS_PER_S, TimedSample, align_nearest_samples
from .features import BIO_TOPICS, DEFAULT_THRESHOLDS, FEATURE_CATALOG, FeaturePipeline

BIO_PREFIX = "bio."

# Telemetry topic -> {payload field: CSV column}.
SIM_COLUMNS = {
    "sim.rover": {f: f"sim.{f}" for f in (
        "x_m", "y_m", "heading_deg", "speed_m_s", "angular_vel_deg_s",
        "battery_pct", "motor_temp_c", "distance_m")},
    "sim.resources": {"o2_pct": "sim.o2_pct", "co2_pct": "sim.co2_pct"},
    "sim.radar": {"state": "sim.radar_state"},
}
META_TOPIC = "sim.meta"
META_COLUMNS = ("phase", "difficulty", "run_index")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _baseline_interval(meta_samples) -> tuple | None:
    start = None
    for s in meta_samples:
        phase = s.payload.get("phase")
        if start is None and phase == "baseline":
            start = s.t_ns
        elif start is not None and phase != "baseline":
            return start, s.t_ns
    return None


def extract_csv(bag_path, out_path, window_s: float = 30.0, stride_s: float = 1.0,
                align_tolerance_ns: int = DEFAULT_ALIGN_TOLERANCE_NS,
                gaze_thresholds=DEFAULT_THRESHOLDS) -> str:
    read_manifest(bag_path)

    bio: dict[str, tuple[list, list]] = {}
    sim_samples: dict[str, list[TimedSample]] = {t: [] for t in SIM_COLUMNS}
    meta_samples: list[TimedSample] = []
    for _, sample in iter_samples(bag_path, strict=True):
        if sample.topic.startswith(BIO_PREFIX):
            modality = sample.topic[len(BIO_PREFIX):]
            times, values = bio.setdefault(modality, ([], []))
            times.append(sample.t_ns)
            if modality == "gaze":
                p = sample.payload
                values.append((p["x_deg"], p["y_deg"], p["d_mm"]))
            else:
                values.append(sample.payload["v"])
        elif sample.topic in sim_samples:
            sim_samples[sample.topic].append(sample)
        elif sample.topic == META_TOPIC:
            meta_samples.append(sample)

    modalities = tuple(sorted(m for m in bio if m in BIO_TOPICS))
    rows: list = []
    if modalities:
        t0 = min(times[0] for times, _ in (bio[m] for m in modalities))
        end = max(
            bio[m][0][-1] + round(NS_PER_S / BIO_TOPICS[m].rate_hz) for m in modalities
        )
        pipeline = FeaturePipeline(len_s=window_s, stride_s=stride_s, t0_ns=t0,
                                   modalities=modalities, gaze_thresholds=gaze_thresholds)
        for m in modalities:
            times, values = bio[m]
            pipeline.feed(m, np.asarray(times, dtype=np.int64), np.asarray(values, dtype=float))
        baseline = _baseline_interval(meta_samples)
        if baseline is not None and baseline[1] <= end:
            rows.extend(pipeline.advance_to(baseline[1]))
            pipeline.freeze_baseline_from_observations()
        rows.extend(pipeline.advance_to(end))

    table: dict[int, dict[str, object]] = {}
    for row in rows:
        cells = table.setdefault(row.t_end_ns, {})
        for k, v in row.values.items():
            cells[f"{row.modality}.{k}"] = v
        cells[f"{row.modality}.quality"] = row.quality

    t_ends = sorted(table)
    anchors = [TimedSample("rows", t, i, {}) for i, t in enumerate(t_ends)]
    joined_topics = {t: s for t, s in sim_samples.items() if s}
    if meta_samples:
        joined_topics[META_TOPIC] = meta_samples
    frames = align_nearest_samples(anchors, joined_topics, align_tolerance_ns) if anchors else []
    for t_end, frame in zip(t_ends, frames):
        cells = table[t_end]
        for topic, fields in SIM_COLUMNS.items():
            if topic in frame.joined:
                payload = frame.joined[topic][0].payload
                for f, column in fields.items():
                    cells[column] = payload[f]
        if META_TOPIC in frame.joined:
            payload = frame.joined[META_TOPIC][0].payload
            for f in META_COLUMNS:
                cells[f"meta.{f}"] = payload[f]

    columns: set[str] = set()
    for m in modalities:
        columns.update(f"{m}.{feat}" for feat in FEATURE_CATALOG[m])
        columns.add(f"{m}.quality")
    for topic, fields in SIM_COLUMNS.items():
        if sim_samples[topic]:
            columns.update(fields.values())
    if meta_samples:
        columns.update(f"meta.{f}" for f in META_COLUMNS)
    ordered = sorted(columns)

    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["t_end_ns"] + ordered) + "\n")
        for t_end in t_ends:
            cells = table[t_end]
            line = [str(t_end)] + [
                _fmt(cells[c]) if c in cells else "" for c in ordered
            ]
            fh.write(",".join(line) + "\n")
    return str(out_path)
