"""Feature-table CSV export from a recorded bag.

Re-runs window extraction over the raw bio topics, aligns each row to the
nearest simulator telemetry and difficulty markers, and writes one UTF-8
comma-separated file. Output is a pure function of the bag bytes and the
parameters: columns are ordered lexicographically, floats are serialized
with shortest round-trip decimals, and absent values are empty cells.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from .bag import judged_chunks
from .bus import DEFAULT_ALIGN_TOLERANCE_NS, NS_PER_S, TimedSample, align_nearest_samples
from .features import BIO_TOPICS, DEFAULT_THRESHOLDS, FEATURE_CATALOG, FeaturePipeline
from .session import SESSION_TOPICS

# Topic -> {payload field: CSV column} of every topic joined onto the rows.
JOINED_COLUMNS = {t.name: t.columns for t in SESSION_TOPICS if t.columns}
META_TOPIC = "sim.meta"


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
    """Write the feature table of a bag to out_path and return that path. A
    record that does not fit its topic's schema raises CorruptBag."""
    bio_fields = {f"bio.{m}": (m, t.fields) for m, t in BIO_TOPICS.items()}
    bio: dict[str, list] = {}  # modality -> [(times, values)] in bag order
    joined: dict[str, list[TimedSample]] = {t: [] for t in JOINED_COLUMNS}
    for chunk in judged_chunks(bag_path):
        refused = chunk.refusal()
        if refused is not None:
            raise refused[1]
        for group in chunk.groups:
            if group.topic in bio_fields:
                m, fields = bio_fields[group.topic]
                columns = dict(zip(group.fields, group.columns))
                values = [np.asarray(columns[f], dtype=float) for f in fields]
                bio.setdefault(m, []).append(
                    (group.t, values[0] if len(values) == 1 else np.column_stack(values)))
            elif group.topic in joined:
                joined[group.topic].extend(group.samples())
        for _, sample, _ in chunk.others:
            if sample.topic in bio_fields:
                m, fields = bio_fields[sample.topic]
                bio.setdefault(m, []).append((np.array([sample.t_ns], dtype=np.int64),
                                              np.asarray([itemgetter(*fields)(sample.payload)],
                                                         dtype=float)))
            elif sample.topic in joined:
                joined[sample.topic].append(sample)

    modalities = tuple(sorted(bio))
    rows: list = []
    if modalities:
        streams = {m: (np.concatenate([t for t, _ in bio[m]]),
                       np.concatenate([v for _, v in bio[m]])) for m in modalities}
        t0 = min(int(streams[m][0][0]) for m in modalities)
        end = max(int(streams[m][0][-1]) + round(NS_PER_S / BIO_TOPICS[m].rate_hz)
                  for m in modalities)
        pipeline = FeaturePipeline(len_s=window_s, stride_s=stride_s, t0_ns=t0,
                                   modalities=modalities, gaze_thresholds=gaze_thresholds)
        for m in modalities:
            pipeline.feed(m, *streams[m])
        baseline = _baseline_interval(joined[META_TOPIC])
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
    frames = align_nearest_samples(anchors, joined, align_tolerance_ns) if anchors else []
    for t_end, frame in zip(t_ends, frames):
        cells = table[t_end]
        for topic, (sample, _) in frame.joined.items():
            for f, column in JOINED_COLUMNS[topic].items():
                cells[column] = sample.payload[f]

    columns: set[str] = set()
    for m in modalities:
        columns.update(f"{m}.{feat}" for feat in FEATURE_CATALOG[m])
        columns.add(f"{m}.quality")
    for topic, fields in JOINED_COLUMNS.items():
        if joined[topic]:
            columns.update(fields.values())
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
