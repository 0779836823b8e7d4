"""Topic-based publish/subscribe hub with a shared session clock.

All timestamps in the pipeline are integer nanoseconds since the session
epoch (t=0). A single monotonic session-relative clock replaces wall time;
the wall-clock epoch is stored once in bag metadata instead.

Per-topic ordering (strictly increasing t and seq) is the only cross-thread
guarantee. Every sample enters as a row of a block: publish_block checks a
block of rows, a column per schema field, and publish one row, by the same
per-kind rules. The bus keeps no copy of what it publishes: listeners are
the one way to observe it, and each receives every publish as one
SampleBlock. The alignment operator, align_nearest_samples, joins stamp
columns: one np.searchsorted per topic gives the index of each topic's
sample nearest every anchor stamp. It is a pure function of those stamps,
so re-running it is bit-identical.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

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
    """Consecutive samples of one topic, published together: what every
    listener receives, one row per sample.

    Row i has time times_ns[i], seq seq0 + i and, for each field fields[k]
    (the schema's, in schema order), the value columns[k][i], or no value
    where that is None (an optional field left out). times_ns is a list of
    ints and columns a list per field, of values canonical for the field's
    kind: finite floats for f64, ints in the int64 range for i64, bools and
    strs. A column may be a list the publisher passed in, which must not
    change after publishing.
    """

    topic: str
    times_ns: list
    seq0: int
    fields: tuple
    columns: list


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


# The type of each kind's canonical values.
_CANONICAL_TYPE = {"f64": float, "i64": int, "bool": bool, "str": str}


def _canonical_value(kind: str, value, fname: str):
    """value checked against a field's kind (without its "?") and made
    canonical: the one rule per kind, for every value the bus takes and
    every record the bag's reference decoder reads."""
    want = _CANONICAL_TYPE[kind]
    if type(value) is not want:  # else only a float's or an int's range is left
        if (not isinstance(value, (int, float) if want is float else want)
                or isinstance(value, bool) and want is not bool):
            raise SchemaMismatch(f"field {fname!r:.40} expects {want.__name__}, "
                                 f"got {type(value).__name__}")
        if want is float:
            try:
                value = float(value)
            except OverflowError:  # an int beyond the float range
                raise SchemaMismatch(f"field {fname!r:.40} is outside the float range") from None
    if want is float and not math.isfinite(value):
        raise SchemaMismatch(f"field {fname!r:.40} must be finite, got {value}")
    if want is int and not -2**63 <= value < 2**63:
        raise SchemaMismatch(f"field {fname!r:.40} is outside the int64 range")
    return value


def canonical_row(schema: Mapping[str, str], payload: Mapping) -> list:
    """The values of a payload in schema field order, each checked and made
    canonical for its kind, with None where an optional field is absent. A
    payload that does not fit the schema raises SchemaMismatch."""
    row = []
    for fname, kind in schema.items():
        if fname in payload:
            row.append(_canonical_value(kind.rstrip("?"), payload[fname], fname))
        elif kind.endswith("?"):
            row.append(None)
        else:
            raise SchemaMismatch(f"missing required field {fname!r:.40}")
    if len(payload) > len(row) - row.count(None):
        extra = set(payload) - set(schema)
        raise SchemaMismatch("fields not in schema: " + ", ".join(f"{f!r:.40}" for f in sorted(extra)))
    return row


def _canonical_column(fname: str, kind: str, values) -> list:
    """A block column checked and made canonical for its field's kind, with
    None for an absent optional field. A column whose values are all
    canonical already, as a bag reader parses them or as an ndarray's
    tolist gives them, is taken as it is; any other goes value by value, so
    that its first bad value raises what its row published alone raises."""
    base, optional = kind.rstrip("?"), kind.endswith("?")
    if not isinstance(values, list):
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    present = [v for v in values if v is not None] if optional and None in values else values
    # a sum of floats is finite only if every one is (one that overflows is
    # checked value by value)
    if (set(map(type, present)) <= {_CANONICAL_TYPE[base]}
            and (base != "f64" or math.isfinite(sum(present)))
            and (base != "i64" or not present or -2**63 <= min(present) <= max(present) < 2**63)):
        return values
    out = []
    for v in values:
        if v is None and not optional:
            raise SchemaMismatch(f"missing required field {fname!r:.40}")
        out.append(v if v is None else _canonical_value(base, v, fname))
    return out


class ManualClock:
    """Session clock from 0, advanced explicitly by the orchestrator."""

    def __init__(self):
        self._now = 0

    def advance_to(self, t_ns: int):
        if t_ns < self._now:
            raise TimestampRegression(f"clock cannot move backwards to {t_ns}")
        self._now = t_ns


class Topic:
    """Handle for one registered topic: its descriptor, last stamp and next seq."""

    def __init__(self, desc: TopicDescriptor):
        self.desc = desc
        self.fields = tuple(desc.schema)
        self.last_t_ns: int | None = None
        self.next_seq = 0
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.desc.name


class Bus:
    """Publish/subscribe hub. Topics are registered once per session."""

    def __init__(self):
        # Publishers pass their stamps, so nothing reads the clock: run_session
        # advances it every tick, and perfbench's TickStamps hooks that call.
        self.clock = ManualClock()
        self._topics: dict[str, Topic] = {}
        self._registry_lock = threading.Lock()
        self._bus_listeners: list[Callable[[SampleBlock], None]] = []

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

    def publish(self, topic: str | Topic, payload: Mapping, t_ns: int) -> SampleBlock:
        """Publish one sample stamped t_ns, as a block of one row. A payload
        that does not fit the schema, or a stamp that is not an integer in
        the int64 range, raises SchemaMismatch."""
        handle = topic if isinstance(topic, Topic) else self.topic(topic)
        row = canonical_row(handle.desc.schema, payload)
        if (type(t_ns) is not int and (isinstance(t_ns, bool)
                                       or not isinstance(t_ns, numbers.Integral))
                or not -2**63 <= t_ns < 2**63):
            raise SchemaMismatch(
                f"{handle.name}: t={t_ns!r} is not integer nanoseconds in the int64 range")
        return self._admit(handle, [int(t_ns)], [[v] for v in row])

    def publish_block(self, topic: str | Topic, times_ns, columns) -> SampleBlock:
        """Publish consecutive samples of a topic as one block.

        times_ns is a 1-D integer array (or sequence) of strictly increasing
        stamps, all after the topic's last one. columns holds one column per
        schema field, in schema order, of len(times_ns) values each: a 2-D
        array, or a sequence of arrays or lists. A value must fit its
        field's kind as in publish, and None leaves an optional field out
        of its row. A block that breaks a rule raises SchemaMismatch or
        TimestampRegression and leaves the topic unchanged; a bad value
        raises what its row published alone would.
        """
        handle = topic if isinstance(topic, Topic) else self.topic(topic)
        schema = handle.desc.schema
        try:
            times = np.asarray(times_ns)
        except ValueError:  # ragged
            times = None
        if times is None or times.ndim != 1 or times.dtype.kind != "i":
            raise SchemaMismatch(f"{handle.name}: block times must be a 1-D integer array")
        n = len(times)
        if len(columns) != len(schema) or any(not hasattr(c, "__len__") or len(c) != n
                                              for c in columns):
            raise SchemaMismatch(
                f"{handle.name}: block columns must be {len(schema)} columns of {n} values")
        columns = [_canonical_column(fname, kind, c)
                   for (fname, kind), c in zip(schema.items(), columns)]
        if (times[1:] <= times[:-1]).any():
            raise TimestampRegression(f"{handle.name}: block times are not strictly increasing")
        if not n:
            return SampleBlock(handle.name, [], handle.next_seq, handle.fields, columns)
        return self._admit(handle, times.tolist(), columns)

    def _admit(self, handle: Topic, times: list, columns: list) -> SampleBlock:
        """Take checked rows, at least one, and hand them to the listeners as
        one block, unless the first is not after the topic's last stamp."""
        with handle._lock:
            if handle.last_t_ns is not None and times[0] <= handle.last_t_ns:
                raise TimestampRegression(
                    f"{handle.name}: t={times[0]} not after previous t={handle.last_t_ns}")
            block = SampleBlock(handle.name, times, handle.next_seq, handle.fields, columns)
            handle.last_t_ns = times[-1]
            handle.next_seq += len(times)
            for fn in self._bus_listeners:
                fn(block)
        return block

    # -- subscription ---------------------------------------------------

    def add_listener(self, fn: Callable[[SampleBlock], None]):
        """Bus-wide listener (used by the bag recorder), called with the
        SampleBlock of each publish and publish_block call: one row per
        sample, each topic's rows in order. Called under the publishing
        topic's lock; cross-topic call order is unspecified."""
        self._bus_listeners.append(fn)


# -- time alignment -----------------------------------------------------------


def align_nearest_samples(anchor_ns, others: Mapping[str, np.ndarray], tolerance_ns: int) -> dict:
    """For each topic of others, which maps it to its int64 stamps in
    nondecreasing order, the index of its sample nearest each anchor stamp,
    or -1 where none is within tolerance_ns: the earlier sample wins a tie,
    and one exactly tolerance_ns away joins."""
    if tolerance_ns <= 0:
        raise ValueError("tolerance_ns must be positive")
    anchors = np.asarray(anchor_ns, dtype=np.int64)
    tolerance = np.uint64(min(tolerance_ns, 2**64 - 1))  # any int64 distance fits in uint64
    out = {}
    for name, times in others.items():
        if not len(times):
            out[name] = np.full(len(anchors), -1)
            continue
        i = np.searchsorted(times, anchors, side="right")
        before, after = np.maximum(i - 1, 0), np.minimum(i, len(times) - 1)
        # exact where that side has a sample; where it has none, the other side is taken
        to_before = anchors.view(np.uint64) - times[before].view(np.uint64)
        to_after = times[after].view(np.uint64) - anchors.view(np.uint64)
        later = (anchors < times[before]) | ((anchors < times[after]) & (to_after < to_before))
        out[name] = np.where(np.where(later, to_after, to_before) <= tolerance,
                             np.where(later, after, before), -1)
    return out
