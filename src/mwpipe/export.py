"""Feature-table CSV export from a recorded bag.

Re-runs window extraction over the raw bio topics, aligns each row to the
nearest simulator telemetry and difficulty markers, and writes one UTF-8
comma-separated file. Output is a pure function of the bag bytes and the
parameters: columns are ordered lexicographically, floats are serialized
with shortest round-trip decimals, and absent values are empty cells.

The bag is read one judged chunk at a time, so memory is bounded by a
window, a chunk, two hand-over intervals (features.worker.HAND_OVER_NS of
bag time each) and the join tolerance, not by the bag. The bio rows of the chunks
read are held until the records read are HAND_OVER_NS past the last
hand-over, the cadence of a live session, and then go to one
features.worker.FeatureWorker, whose FeaturePipeline (and SciPy) lives in
the worker only. It advances as far as the bag's order makes safe and
extracts while the next interval is judged, so rows come back one interval
late. A row is joined once the records read are past its end by
more than the tolerance, by indexing each joined topic's columns (as
parsed) where align_nearest_samples finds its nearest t, and is spooled
beside out_path. The header depends on which modalities and joined topics
the whole bag holds, so it is settled at the end, and only then is
out_path written from the spool.

This rests on the bag's order: a bio or joined record whose t is below that
of an earlier record of those topics raises CorruptBag, as does a record
that bag.paced_chunks refuses, or a manifest that does not give a field the
export reads its SESSION_TOPICS kind, required; and no CSV is written.
"""

from __future__ import annotations

import errno
import json
import math
import os
import tempfile
from contextlib import closing
from itertools import takewhile

import numpy as np

from .bag import Chunk, in_row_order, manifest_topics, open_output, paced_chunks, read_manifest
from .bus import DEFAULT_ALIGN_TOLERANCE_NS, NS_PER_S, align_nearest_samples
from .errors import CorruptBag, OutputError
from .features.catalog import BIO_TOPICS, FEATURE_CATALOG
from .features.gaze import DEFAULT_THRESHOLDS
from .features.worker import HAND_OVER_NS, FeatureWorker
from .session import SESSION_TOPICS

# Topic -> {payload field: CSV column} of every topic joined onto the rows.
JOINED_COLUMNS = {t.name: t.columns for t in SESSION_TOPICS if t.columns}
META_TOPIC = "sim.meta"
_BIO = {f"bio.{m}": (m, t.fields) for m, t in BIO_TOPICS.items()}
# (topic, field, kind) of every field the export reads.
_READ = [(t.name, f, t.schema[f]) for t in SESSION_TOPICS if t.name in _BIO or t.columns
         for f in t.columns or t.schema]
# Every column a row can fill. A CSV's header is the part of it that the
# bag's topics settle, in the same order.
_ALL_COLUMNS = sorted({f"{m}.{c}" for m, names in FEATURE_CATALOG.items()
                       for c in (*names, "quality")}
                      | {c for columns in JOINED_COLUMNS.values() for c in columns.values()})


def _fmt(value) -> str:
    """value as a CSV cell: a text holding a comma, a double quote, CR or LF
    in double quotes with inner quotes doubled (RFC 4180), any other as is."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def extract_csv(bag_path, out_path, window_s: float = 30.0, stride_s: float = 1.0,
                align_tolerance_ns: int = DEFAULT_ALIGN_TOLERANCE_NS,
                gaze_thresholds=DEFAULT_THRESHOLDS) -> str:
    """Write the feature table of a bag to out_path and return that path. A
    refused record (one that cannot be decoded, does not fit its topic's
    schema or is on a topic the manifest does not list), or a bio or joined
    record out of order, or a manifest at odds with a field the export
    reads, raises CorruptBag; an out_path that cannot be written (in a
    directory that does not exist, say) raises OutputError naming it, and an
    out_path that is a directory does so before the bag is read."""
    if os.path.isdir(out_path):
        raise OutputError(f"cannot write {out_path}: {os.strerror(errno.EISDIR)}")
    descs = manifest_topics(read_manifest(bag_path))
    for topic, f, kind in _READ:  # checked before the body is read
        found = descs[topic].schema.get(f) if topic in descs else kind
        if found != kind:
            raise CorruptBag(f"manifest topic {topic} gives field {f!r} kind {found!r:.40}, "
                             f"where the export reads {kind!r}")
    spool_dir = os.path.dirname(os.path.abspath(out_path))
    with open_output(out_path, lambda: tempfile.TemporaryFile(
            "w+", encoding="ascii", dir=spool_dir)) as spool, closing(
            _Table(window_s, stride_s, align_tolerance_ns, gaze_thresholds, spool)) as table:
        for chunk, _, hi in paced_chunks(bag_path):  # at rate "max": rows 0 to hi
            table.read(chunk, hi)
            del chunk  # not alive while the next chunk is judged
        table.finish()
        columns = set()
        for m in table.modalities:
            columns.update(f"{m}.{feat}" for feat in FEATURE_CATALOG[m])
            columns.add(f"{m}.quality")
        for topic in table.joined_seen:
            columns.update(JOINED_COLUMNS[topic].values())
        ordered = sorted(columns)
        picks = [0] + [1 + _ALL_COLUMNS.index(c) for c in ordered]
        spool.seek(0)
        with open_output(out_path, lambda: open(out_path, "w", encoding="utf-8",
                                                newline="\n")) as fh:
            fh.write(",".join(["t_end_ns"] + ordered) + "\n")
            for line in spool:
                cells = json.loads(line)
                fh.write(",".join([cells[i] for i in picks]) + "\n")
    return str(out_path)


class _Table:
    """What extract_csv carries from one judged chunk to the next: the
    feature worker, the bio slices read since the last hand-over to it, the
    rows it sent back that are not yet joined, and the joined samples that
    such a row, one in flight or held, or a later one may still join: per
    topic, their t array and a list of values per JOINED_COLUMNS field."""

    def __init__(self, window_s, stride_s, tolerance_ns, gaze_thresholds, spool):
        self.pipeline_args = dict(len_s=window_s, stride_s=stride_s,
                                  gaze_thresholds=gaze_thresholds)
        self.tolerance_ns = tolerance_ns
        self.spool = spool
        self.worker: FeatureWorker | None = None
        self.held = []  # (modality, times, values) of the bio read since the last hand-over
        self.handed = None  # max_t at the last hand-over, or the first bio t before one
        self.max_t = -2**63  # greatest t read of the bio and joined topics
        self.received = -2**63  # every row that ends at or before it is received
        self.end = -2**63  # greatest last t + one period of any modality so far
        self.modalities: set[str] = set()
        self.joined_seen: set[str] = set()
        self.joined = {t: (np.zeros(0, np.int64), [[] for _ in columns])
                       for t, columns in JOINED_COLUMNS.items()}
        self.rows: dict[int, dict] = {}  # t_end -> cells, in t_end order
        self.in_baseline = False
        self.baseline_end = None

    def read(self, chunk: Chunk, hi: int):
        """Read a chunk's rows up to row hi. A chunk cut short of its end ends
        the export: paced_chunks raises the refusal of row hi next, unless
        an order fault before it is raised here."""
        groups = {g.topic: g for g in chunk.groups if g.topic in _BIO or g.topic in self.joined}
        self.check_order(chunk, hi, [(g.rows, g.t) for g in groups.values()])
        if hi < len(chunk.offsets):
            return

        bio = []  # (first row, modality, times, values)
        for topic, g in groups.items():
            columns = dict(zip(g.fields, g.columns))
            if topic in _BIO:
                m, fields = _BIO[topic]
                values = [np.asarray(columns[f], dtype=float) for f in fields]
                bio.append((int(g.rows[0]), m, g.t,
                            values[0] if len(values) == 1 else np.column_stack(values)))
                continue
            t, values = self.joined[topic]
            for f, column in zip(JOINED_COLUMNS[topic], values):
                column += columns[f]
            self.joined[topic] = np.concatenate((t, g.t)), values
            self.joined_seen.add(topic)
            if topic == META_TOPIC and self.baseline_end is None:
                self.read_phases(g.t.tolist(), columns["phase"])
        if not bio and self.worker is None:
            self.received = self.max_t  # rows end after the first bio record, at or past it
            self.trim()
            return
        if self.worker is None:
            self.handed = int(min(bio)[2][0])  # t0: the first bio record's
            self.worker = FeatureWorker(
                t0_ns=self.handed, baseline_end_ns=self.baseline_end, **self.pipeline_args)
        for _, m, times, values in bio:
            self.modalities.add(m)
            self.end = max(self.end, int(times[-1]) + round(NS_PER_S / BIO_TOPICS[m].rate_hz))
            self.held.append((m, times, values))
        if self.max_t - self.handed >= HAND_OVER_NS:
            self.hand_over(min(self.max_t, self.end))
        self.join(self.max_t - self.tolerance_ns)
        self.trim()

    def check_order(self, chunk: Chunk, hi: int, streams: list):
        """Raise the chunk's first order fault before row hi; else carry the
        greatest t on."""
        _, rows, t, running = in_row_order(chunk, streams, self.max_t)
        late = np.flatnonzero(t < running[:-1])
        if len(late) and rows[late[0]] < hi:
            i = late[0]
            raise CorruptBag(f"record at byte {int(chunk.offsets[rows[i]])} is out of "
                             f"order: t={t[i]} after t={running[i]}")
        self.max_t = int(running[-1])

    def read_phases(self, times: list, phases: list):
        """Find where sim.meta first leaves the baseline phase."""
        for t, phase in zip(times, phases):
            if not self.in_baseline:
                self.in_baseline = phase == "baseline"
            elif phase != "baseline":
                self.baseline_end = t
                return

    def hand_over(self, watermark):
        """Hand the worker the slices held, the baseline end if known (so it
        goes with the first slices that pass it) and the watermark, and
        take the rows of the interval before."""
        self.take(self.worker.advance(self.held, watermark, self.baseline_end))
        self.held = []
        self.handed = self.max_t

    def take(self, done):
        """Add the rows of a worker reply (watermark, rows), if any: every
        row that ends at or before its watermark is then received."""
        self.received, rows = done or (self.received, [])
        for row in rows:
            cells = self.rows.setdefault(row.t_end_ns, {})
            for k, v in row.values.items():
                cells[f"{row.modality}.{k}"] = v
            cells[f"{row.modality}.quality"] = row.quality

    def join(self, until):
        """Join the rows received that end before until, oldest first, and
        spool them. A row in flight ends after every row received."""
        t_ends = list(takewhile(lambda t_end: t_end < until, self.rows))
        if not t_ends:
            return
        nearest = align_nearest_samples(
            t_ends, {topic: t for topic, (t, _) in self.joined.items()}, self.tolerance_ns)
        picks = [(JOINED_COLUMNS[topic].values(), self.joined[topic][1], index.tolist())
                 for topic, index in nearest.items()]
        for k, t_end in enumerate(t_ends):
            cells = self.rows.pop(t_end)
            for names, values, index in picks:
                if index[k] >= 0:
                    for name, column in zip(names, values):
                        cells[name] = column[index[k]]
            self.spool.write(json.dumps([str(t_end)] + [
                _fmt(cells[c]) if c in cells else "" for c in _ALL_COLUMNS]) + "\n")

    def trim(self):
        """Drop the joined samples more than the tolerance before the oldest
        row still to join, received or in flight: its nearest sample is
        never one of them."""
        oldest = next(iter(self.rows), self.received)
        cutoff = max(oldest - self.tolerance_ns, -2**63)
        for topic, (t, values) in self.joined.items():
            k = int(np.searchsorted(t, cutoff))
            for column in values:
                del column[:k]
            self.joined[topic] = t[k:], values

    def finish(self):
        """Hand over the slices still held with the end of the streams as the
        watermark, drain the worker and join every row left."""
        if self.worker is not None:
            self.hand_over(self.end)
            self.take(self.worker.drain())
        self.join(math.inf)

    def close(self):
        if self.worker is not None:
            self.worker.close()
