"""Topic-based publish/subscribe hub with a shared session clock.

All timestamps in the pipeline are integer nanoseconds since the session
epoch (t=0). A single monotonic session-relative clock replaces wall time;
the wall-clock epoch is stored once in bag metadata instead.

Per-topic ordering (strictly increasing t and seq) is the only cross-thread
guarantee. The bus keeps no copy of what it publishes: listeners are the one
way to observe it. The alignment operator is a pure function of its input
streams, so re-running it on the same samples is bit-identical.
"""

from __future__ import annotations

import bisect
import math
import numbers
import re
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateTopic,
    InvalidName,
    SchemaMismatch,
    TimestampRegression,
    UnknownTopic,
)

NS_PER_S = 1_000_000_000

# Half the 10 Hz telemetry period: one telemetry tick of slack.
DEFAULT_ALIGN_TOLERANCE_NS = 50_000_000

_NAME_RE = re.compile(r"[a-z0-9_]+(\.[a-z0-9_]+)+")

# Schema field kinds. A trailing "?" marks the field optional.
_KINDS = ("f64", "i64", "bool", "str")


class TimedSample(NamedTuple):
    """One timestamped record on a named topic; the atom of the system."""

    topic: str
    t_ns: int
    seq: int
    payload: dict


class SampleBlock(NamedTuple):
    """Consecutive samples of one all-f64 topic, published together.

    Sample i has time times_ns[i], seq seq0 + i and payload
    {fields[k]: columns[k, i]}. times_ns is a 1-D int64 array and columns a
    (len(fields), n) float64 array; both may be views of the publisher's
    arrays, which must not change after publishing.
    """

    topic: str
    times_ns: np.ndarray
    seq0: int
    fields: tuple
    columns: np.ndarray


class AlignedFrame(NamedTuple):
    """One anchor sample joined with the nearest-in-time sample per other topic."""

    anchor_topic: str
    anchor_t_ns: int
    joined: dict  # topic -> (TimedSample, offset_ns)


@dataclass(frozen=True)
class TopicDescriptor:
    """Name, payload schema, and nominal rate of one topic.

    nominal_rate_hz is metadata only (None = aperiodic); it is never
    enforced on publish but is used by bag validation for gap detection.
    """

    name: str
    schema: Mapping[str, str]
    nominal_rate_hz: float | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not _NAME_RE.fullmatch(self.name):
            raise InvalidName(f"topic name must be dot-separated words: {self.name!r:.40}")
        rate = self.nominal_rate_hz
        if rate is not None and (isinstance(rate, bool) or not isinstance(rate, (int, float))
                                 or not 0 < rate <= sys.float_info.max):
            raise InvalidName(f"nominal_rate_hz must be positive and finite: {rate!r:.40}")
        if not isinstance(self.schema, Mapping):
            raise InvalidName(f"schema must map field names to kinds: {self.schema!r:.40}")
        for fname, kind in self.schema.items():
            if not isinstance(kind, str) or kind.rstrip("?") not in _KINDS:
                raise InvalidName(f"unknown schema kind {kind!r:.40} for field {fname!r:.40}")
        object.__setattr__(self, "schema", dict(self.schema))


def _canonical_value(kind: str, value, fname: str):
    if kind == "f64":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaMismatch(f"field {fname!r:.40} expects float, got {type(value).__name__}")
        v = float(value)
        if not math.isfinite(v):
            raise SchemaMismatch(f"field {fname!r:.40} must be finite, got {v}")
        return v
    if kind == "i64":
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaMismatch(f"field {fname!r:.40} expects int, got {type(value).__name__}")
        if not -2**63 <= value < 2**63:
            raise SchemaMismatch(f"field {fname!r:.40} is outside the int64 range")
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            raise SchemaMismatch(f"field {fname!r:.40} expects bool, got {type(value).__name__}")
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise SchemaMismatch(f"field {fname!r:.40} expects str, got {type(value).__name__}")
        return value
    raise SchemaMismatch(f"unknown kind {kind!r}")


def canonical_payload(schema: Mapping[str, str], payload: Mapping) -> dict:
    """Validate a payload against a schema and return it in schema field order."""
    out = {}
    for fname, kind in schema.items():
        optional = kind.endswith("?")
        base = kind.rstrip("?")
        if fname not in payload:
            if optional:
                continue
            raise SchemaMismatch(f"missing required field {fname!r:.40}")
        out[fname] = _canonical_value(base, payload[fname], fname)
    extra = set(payload) - set(schema)
    if extra:
        raise SchemaMismatch("fields not in schema: " + ", ".join(f"{f!r:.40}" for f in sorted(extra)))
    return out


class ManualClock:
    """Session clock advanced explicitly by the orchestrator."""

    def __init__(self, start_ns: int = 0):
        self._now = start_ns

    def advance_to(self, t_ns: int):
        if t_ns < self._now:
            raise TimestampRegression(f"clock cannot move backwards to {t_ns}")
        self._now = t_ns


class Topic:
    """Handle for one registered topic: its descriptor, last stamp and next seq."""

    def __init__(self, desc: TopicDescriptor):
        self.desc = desc
        self.last_t_ns: int | None = None
        self.next_seq = 0
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.desc.name


class Bus:
    """Publish/subscribe hub. Topics are registered once per session."""

    def __init__(self, clock=None):
        # Publishers pass their stamps, so nothing reads the clock: run_session
        # advances it every tick, and perfbench's TickStamps hooks that call.
        self.clock = clock if clock is not None else ManualClock()
        self._topics: dict[str, Topic] = {}
        self._registry_lock = threading.Lock()
        self._bus_listeners: list[Callable[[TimedSample | SampleBlock], None]] = []

    # -- registration ---------------------------------------------------

    def open_topic(self, desc: TopicDescriptor) -> Topic:
        with self._registry_lock:
            if desc.name in self._topics:
                raise DuplicateTopic(desc.name)
            topic = Topic(desc)
            self._topics[desc.name] = topic
            return topic

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise UnknownTopic(name) from None

    def topics(self) -> list[TopicDescriptor]:
        return [t.desc for t in self._topics.values()]

    # -- publication ----------------------------------------------------

    def publish(self, topic: str | Topic, payload: Mapping, t_ns: int) -> TimedSample:
        """Publish one sample stamped t_ns. A stamp that is not an integer in
        the int64 range raises SchemaMismatch."""
        handle = topic if isinstance(topic, Topic) else self.topic(topic)
        data = canonical_payload(handle.desc.schema, payload)
        with handle._lock:
            if (type(t_ns) is not int and (isinstance(t_ns, bool)
                                           or not isinstance(t_ns, numbers.Integral))
                    or not -2**63 <= t_ns < 2**63):
                raise SchemaMismatch(
                    f"{handle.name}: t={t_ns!r} is not integer nanoseconds in the int64 range")
            if handle.last_t_ns is not None and t_ns <= handle.last_t_ns:
                raise TimestampRegression(
                    f"{handle.name}: t={t_ns} not after previous t={handle.last_t_ns}"
                )
            sample = TimedSample(handle.name, t_ns, handle.next_seq, data)
            handle.last_t_ns = t_ns
            handle.next_seq += 1
            for fn in self._bus_listeners:
                fn(sample)
        return sample

    def publish_block(self, topic: str | Topic, times_ns, columns) -> SampleBlock:
        """Publish consecutive samples of a topic whose fields are all
        required f64, as one block.

        times_ns is a 1-D integer array of strictly increasing stamps, all
        after the topic's last one; columns holds one row per schema field,
        in schema order (a 2-D array of shape (fields, len(times_ns)), or a
        sequence of such rows), of finite real numbers. A block that breaks
        a rule raises SchemaMismatch or TimestampRegression, as publish
        does, and leaves the topic unchanged. Listeners get the arrays, not
        copies, so they must not change while a listener holds them.
        """
        handle = topic if isinstance(topic, Topic) else self.topic(topic)
        schema = handle.desc.schema
        if any(kind != "f64" for kind in schema.values()):
            raise SchemaMismatch(f"{handle.name}: publish_block needs a schema of "
                                 f"required f64 fields, got {schema}")
        times = np.asarray(times_ns)
        try:
            cols = np.asarray(columns)
        except ValueError as e:  # ragged rows
            raise SchemaMismatch(f"{handle.name}: block columns are not one array: {e}") from e
        if times.ndim != 1 or times.dtype.kind != "i":
            raise SchemaMismatch(f"{handle.name}: block times must be a 1-D integer array")
        if cols.shape != (len(schema), len(times)) or cols.dtype.kind not in "fiu":
            raise SchemaMismatch(
                f"{handle.name}: block columns must be {len(schema)} rows of "
                f"{len(times)} real numbers, got {cols.dtype} {cols.shape}")
        times = times.astype(np.int64, copy=False)
        cols = cols.astype(np.float64, copy=False)
        if not np.isfinite(cols).all():
            raise SchemaMismatch(f"{handle.name}: block values must be finite")
        if (times[1:] <= times[:-1]).any():
            raise TimestampRegression(f"{handle.name}: block times are not strictly increasing")
        with handle._lock:
            block = SampleBlock(handle.name, times, handle.next_seq, tuple(schema), cols)
            if not len(times):
                return block
            if handle.last_t_ns is not None and times[0] <= handle.last_t_ns:
                raise TimestampRegression(
                    f"{handle.name}: t={int(times[0])} not after previous t={handle.last_t_ns}"
                )
            handle.last_t_ns = int(times[-1])
            handle.next_seq += len(times)
            for fn in self._bus_listeners:
                fn(block)
        return block

    # -- subscription ---------------------------------------------------

    def add_listener(self, fn: Callable[[TimedSample | SampleBlock], None]):
        """Bus-wide listener (used by the bag recorder), called with each
        TimedSample that publish makes and each SampleBlock that
        publish_block makes. Called under the publishing topic's lock;
        cross-topic call order is unspecified."""
        self._bus_listeners.append(fn)


# -- time alignment -----------------------------------------------------------


def _nearest_index(times: Sequence[int], t: int) -> int | None:
    """Index of the sample nearest t; earlier sample wins exact ties."""
    if not times:
        return None
    i = bisect.bisect_right(times, t)
    if i == 0:
        return 0
    if i == len(times):
        return len(times) - 1
    before, after = times[i - 1], times[i]
    # |t-before| <= |after-t| keeps the earlier sample on ties
    return i - 1 if t - before <= after - t else i


def align_nearest_samples(
    anchor_samples: Sequence[TimedSample],
    others: Mapping[str, Sequence[TimedSample]],
    tolerance_ns: int,
) -> list[AlignedFrame]:
    """One frame per anchor sample; each other topic joins its nearest
    sample when |offset| <= tolerance_ns, else is absent from the frame."""
    if tolerance_ns <= 0:
        raise ValueError("tolerance_ns must be positive")
    other_times = {name: [s.t_ns for s in samples] for name, samples in others.items()}
    frames = []
    for a in anchor_samples:
        joined = {}
        for name, samples in others.items():
            idx = _nearest_index(other_times[name], a.t_ns)
            if idx is None:
                continue
            cand = samples[idx]
            offset = cand.t_ns - a.t_ns
            if abs(offset) <= tolerance_ns:
                joined[name] = (cand, offset)
        frames.append(AlignedFrame(a.topic, a.t_ns, joined))
    return frames
