"""Bag persistence: write, read, replay, and validate session logs.

Format: a text file whose first line is the magic, second line the manifest
(session metadata, wall-clock epoch, topic descriptors with schemas), then
one JSON record per line — {"t": ns, "topic": name, "seq": n, "data": {...}}
— globally nondecreasing in t with ties broken by (topic, seq). Integer
nanosecond stamps and shortest-round-trip float encoding make replay and
re-extraction bit-exact. A truncated final line is tolerated by readers.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import json
import math
import os
import re
import threading
import time
import warnings
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .bus import Bus, SampleBlock, TimedSample, TopicDescriptor, canonical_row
from .errors import CorruptBag, InvalidName, OutputError, RateTooSlow, SchemaMismatch, UnknownMagic

MAGIC = "MWBAG1"


# -- the record codec ----------------------------------------------------------
#
# A record line is {"t":%d,"topic":"<name>","seq":%d,"data":{...}} with the
# present fields in schema order, each value written as json.dumps writes it
# for its schema kind. _CODEC says, per kind, how a line writes a value and how
# the judge reads it back. Writing: %d is int.__repr__, %r of a float is
# float.__repr__ (json.dumps' float encoder), a bool is true/false and a string
# goes through json's ASCII escaper; the bus has already made the value
# canonical for its kind, so an f64 value is a finite float. Reading: integers
# as JSON writes them, kept short enough that int() is cheap; floats only in the
# forms float.__repr__ writes (with a fraction or an exponent), so that float()
# of the text is exactly what json.loads and canonical_row give, unless it
# overflows to infinity; strings only as json's ASCII escaper writes them.


class _Kind(NamedTuple):
    format: str  # the %-conversion that writes a value
    convert: Callable | None  # applied to a value before it is written
    value: bytes  # the pattern of a written value, as one group
    parse: Callable  # the value of a text that pattern matched


def _str_value(text: bytes) -> str:
    return json.loads(text) if b"\\" in text else text[1:-1].decode("ascii")


_INT = rb"(-?(?:0|[1-9]\d{0,18}))"
_CODEC = {
    "f64": _Kind("%r", None, rb"(-?(?:0|[1-9]\d*)(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+))",
                 float),
    "i64": _Kind("%d", None, _INT, int),
    "bool": _Kind("%s", ("false", "true").__getitem__, rb"(true|false)", b"true".__eq__),
    "str": _Kind("%s", encode_basestring_ascii,
                 rb'("(?:[ !#-\[\]-~]|\\["\\bfnrt]|\\u[0-9a-f]{4})*")', _str_value),
}


@functools.lru_cache(maxsize=1024)
def _template(topic: str, fields: tuple, kinds: tuple) -> tuple[str, tuple, tuple]:
    """The %-template of a record line of topic with the given fields present,
    of the given schema kinds, to format with (t, seq, *values); the
    (position, conversion) of each value converted first; and the position
    of each optional field."""
    codecs = [_CODEC[k.rstrip("?")] for k in kinds]
    data = ",".join(encode_basestring_ascii(f).replace("%", "%%") + ":" + c.format
                    for f, c in zip(fields, codecs))
    return ('{"t":%d,"topic":"' + topic.replace("%", "%%") + '","seq":%d,"data":{' + data
            + "}}\n", tuple((i, c.convert) for i, c in enumerate(codecs) if c.convert),
            tuple(i for i, k in enumerate(kinds) if k.endswith("?")))


def _block_lines(block: SampleBlock, kinds: tuple) -> list[str]:
    """The bag line of each row of a block whose columns are canonical for
    the schema kinds, in row order. A field that is None in a row is left
    out of that row's line."""
    template, convert, optional = _template(block.topic, block.fields, kinds)
    columns = block.columns
    gaps = [i for i in optional if None in columns[i]]
    if convert:
        columns = list(columns)
        for i, f in convert:
            columns[i] = ([v if v is None else f(v) for v in columns[i]] if i in gaps
                          else list(map(f, columns[i])))
    rows = zip(block.times_ns, range(block.seq0, block.seq0 + len(block.times_ns)), *columns)
    if not gaps:
        return list(map(template.__mod__, rows))
    lines = []
    for t, seq, *values in rows:
        present = [i for i, v in enumerate(values) if v is not None]
        row_template = _template(block.topic, tuple(block.fields[i] for i in present),
                                 tuple(kinds[i] for i in present))[0]
        lines.append(row_template % (t, seq, *[values[i] for i in present]))
    return lines


class BagWriter:
    """Formats each row of each published block into its bag line at once,
    and writes the lines in merged timestamp order: t, then topic name.

    flush_until(w) may be called whenever the orchestrator can guarantee no
    future publish carries t < w; a record that breaks that raises
    CorruptBag on the next flush. What is buffered, and so the writer's
    memory, is the lines published since the last flush, with their t: a
    session flushes every 10 s of session time and at each phase end, up to
    the previous such point, so it buffers at most about 20 s. start, or
    else the first flush, writes the magic and manifest lines, so the file
    stays readable after abnormal termination.
    """

    def __init__(self, path, bus: Bus, session_meta: dict | None = None):
        self.path = str(path)
        self._bus = bus
        self._meta = dict(session_meta or {})
        self._pending: dict[str, tuple[list, list]] = {}  # topic -> (t of each line, lines)
        self._lock = threading.Lock()
        self._fh = None
        self._last_written_ns = None
        bus.add_listener(self._on_publish)

    def _on_publish(self, block: SampleBlock):
        lines = _block_lines(block, tuple(self._bus.topic(block.topic).desc.schema.values()))
        with self._lock:
            times, buffered = self._pending.setdefault(block.topic, ([], []))
            times += block.times_ns  # the bus makes each topic's t strictly increasing
            buffered += lines

    def start(self):
        """Create the file and write its magic and manifest lines, unless
        that is done; a file that cannot be created raises OutputError."""
        if self._fh is not None:
            return
        self._fh = open_output(self.path, lambda: open(self.path, "w", encoding="utf-8",
                                                       newline="\n"))
        manifest = {
            "format": MAGIC,
            "epoch_unix_ns": time.time_ns(),
            "session": self._meta,
            "topics": [
                {
                    "name": d.name,
                    "schema": dict(d.schema),
                    "nominal_rate_hz": d.nominal_rate_hz,
                }
                for d in self._bus.topics()
            ],
        }
        self._fh.write(MAGIC + "\n")
        self._fh.write(json.dumps(manifest, separators=(",", ":")) + "\n")

    def flush_until(self, watermark_ns: int):
        times, lines = [], []  # each topic's due lines, in topic-name order
        with self._lock:
            for _, (t, buffered) in sorted(self._pending.items()):
                k = bisect.bisect_left(t, watermark_ns)
                times += t[:k]
                lines += buffered[:k]
                del t[:k], buffered[:k]
        self.start()
        if times:
            # a stable sort by t keeps topic-name order among equal t
            order = np.argsort(np.array(times, dtype=np.int64), kind="stable").tolist()
            first, last = times[order[0]], times[order[-1]]
            if self._last_written_ns is not None and first < self._last_written_ns:
                raise CorruptBag(
                    f"flush watermark violated: sample at {first} after "
                    f"writing up to {self._last_written_ns}"
                )
            self._fh.write("".join(map(lines.__getitem__, order)))
            self._last_written_ns = last
        self._fh.flush()

    def close(self):
        try:
            self.flush_until(math.inf)  # after every int64 stamp: writes all that is buffered
        finally:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def open_output(path, opener):
    """opener(), which creates a file for path; an OSError it raises (no such
    directory, say) raises OutputError naming path."""
    try:
        return opener()
    except OSError as e:
        raise OutputError(f"cannot write {path}: {e.strerror or e}") from e


def header_lines(path) -> tuple[bytes, bytes]:
    """The magic line and the manifest line of a bag, as raw bytes. At most
    64 bytes of the magic line are read: a longer first line is no magic
    line, and its bag has no manifest line (b"")."""
    with open(path, "rb") as fh:
        magic = fh.readline(64)
        return magic, fh.readline() if magic.endswith(b"\n") else b""


def manifest_topics(manifest: dict) -> dict[str, TopicDescriptor]:
    """Name -> TopicDescriptor of each topic entry of a manifest; an entry
    that is not a valid descriptor, or repeats a name, raises CorruptBag."""
    descs = {}
    for t in manifest["topics"]:
        if not isinstance(t, dict):
            raise CorruptBag(f"manifest topic entry is not an object: {t!r:.40}")
        try:
            desc = TopicDescriptor(t.get("name"), t.get("schema", {}), t.get("nominal_rate_hz"))
        except InvalidName as e:
            raise CorruptBag(f"bad manifest topic entry: {e}") from e
        if desc.name in descs:
            raise CorruptBag(f"manifest lists topic {desc.name!r:.40} twice")
        descs[desc.name] = desc
    return descs


def read_manifest(path) -> dict:
    """Check the magic and parse the manifest; a malformed header, topic
    entries included, raises UnknownMagic or CorruptBag."""
    magic, line = header_lines(path)
    magic = magic.decode("utf-8", "replace").rstrip("\r\n")
    if magic != MAGIC:
        raise UnknownMagic(f"expected {MAGIC!r}, found {magic!r:.40}")
    if not line:
        raise CorruptBag("missing manifest line")
    try:
        manifest = json.loads(line.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
        raise CorruptBag(f"manifest is not UTF-8 JSON: {e}") from e
    if not isinstance(manifest, dict) or not isinstance(manifest.get("topics"), list):
        raise CorruptBag("manifest has no topic list")
    manifest_topics(manifest)
    return manifest


def _decode_record(line: bytes, schemas: dict) -> tuple[TimedSample, str | None]:
    """The reference record decoder: any JSON record line, with its payload
    canonical when it fits its topic's schema, else as decoded and with the
    reason it is refused: it does not fit, or its topic is not in the
    manifest (schemas). Raises ValueError, KeyError, TypeError,
    OverflowError or RecursionError on a record it cannot decode, such as one
    whose t, seq, topic or data is of the wrong type, or whose t is outside
    the int64 range."""
    rec = json.loads(line)
    topic, t, seq, data = rec["topic"], rec["t"], rec["seq"], rec["data"]
    if (not isinstance(topic, str) or type(t) is not int or type(seq) is not int
            or not isinstance(data, dict) or not -2**63 <= t < 2**63):
        raise TypeError(f"record topic, t, seq or data of the wrong type or range: {line[:80]!r}")
    misfit = None
    if topic not in schemas:
        misfit = "topic not in manifest"
    else:
        try:
            row = canonical_row(schemas[topic], data)
        except SchemaMismatch as e:
            misfit = str(e)
        else:
            data = {f: v for f, v in zip(schemas[topic], row) if v is not None}
    return TimedSample(topic, t, seq, data), misfit


# Body lines are judged about _CHUNK_BYTES at a time, cut at a newline. A chunk's
# lines are each a bytes object while it is judged, so the size bounds that
# memory; a larger chunk is judged a little faster per line.
_CHUNK_BYTES = 128 * 1024


class _Decoder(NamedTuple):
    """A topic's compiled record line: line matches exactly the lines
    BagWriter writes for the topic, anchored at line starts, with groups t,
    seq and one per field (empty when an optional field is absent)."""

    name: str
    fields: tuple
    line: re.Pattern
    kinds: tuple
    optional: tuple


def _fast_decoders(schemas: dict) -> dict:
    """Topic bytes, as the topic appears between quotes in a line -> the
    topic's _Decoder. A line its pattern matches decodes to what
    _decode_record returns once t is in int64 and every f64 value is finite."""
    out = {}
    for name, schema in schemas.items():
        kinds = tuple(k.rstrip("?") for k in schema.values())
        optional = tuple(k.endswith("?") for k in schema.values())
        items = []
        for i, (f, kind, opt) in enumerate(zip(schema, kinds, optional)):
            if i == 0:
                sep = b""
            elif not all(optional[:i]):
                sep = b","
            else:  # every earlier field is optional: a comma unless this one is first
                sep = rb"(?:(?<=\{)|(?<!\{),)"
            item = sep + re.escape(json.dumps(f).encode()) + b":" + _CODEC[kind].value
            items.append(b"(?:" + item + b")?" if opt else item)
        quoted = json.dumps(name).encode()
        line = re.compile(rb'^\{"t":' + _INT + b',"topic":' + re.escape(quoted) + b',"seq":'
                          + _INT + rb',"data":\{' + b"".join(items) + rb"\}\}\n", re.M)
        out[quoted[1:-1]] = _Decoder(name, tuple(schema), line, kinds, optional)
    return out


def _scanner(decoders: dict) -> re.Pattern:
    """One match per line of a chunk: the topic's bytes when the line begins
    like a record of a manifest topic, else empty."""
    names = b"|".join(map(re.escape, decoders))
    return re.compile(rb'\{"t":-?\d+,"topic":"(' + names + rb')"[^\n]*\n|[^\n]+\n?|\n')


class Rows:
    """The accepted rows of one topic in a chunk, in row order: the row
    numbers within the chunk and t as int64. seq (a list) and columns (one
    list per field, None where an optional field is absent) are parsed from
    the lines' text when first read, so a reader that needs neither parses
    neither; where the reference decoder read a row, both are set from the
    canonical samples instead (_with_decoded). Every row fits the topic's
    schema."""

    def __init__(self, dec: _Decoder, rows: np.ndarray, t: np.ndarray, texts: list):
        """texts: the text of each row's seq, then of each row's value of
        each field (None where an optional field is absent), a list each."""
        self.topic, self.fields, self.optional = dec.name, dec.fields, any(dec.optional)
        self.rows, self.t = rows, t
        self._dec, self._texts = dec, texts

    @functools.cached_property
    def seq(self) -> list:
        return list(map(int, self._texts[0]))

    @functools.cached_property
    def columns(self) -> list:
        return [[_CODEC[kind].parse(v) if v else None for v in text] if opt
                else list(map(_CODEC[kind].parse, text))
                for kind, opt, text in zip(self._dec.kinds, self._dec.optional, self._texts[1:])]

    def payloads(self):
        """The payload dict of each row, in row order, made as they are
        read."""
        values = zip(*self.columns) if self.columns else repeat((), len(self.t))
        if self.optional:
            return ({f: v for f, v in zip(self.fields, vals) if v is not None}
                    for vals in values)
        return (dict(zip(self.fields, vals)) for vals in values)


class Chunk(NamedTuple):
    """One judged chunk of a bag body: the piece of the file it was judged
    from, the byte offset of each of its records, one Rows per topic that
    holds every accepted record of that topic in the chunk, and the refused
    records as (row, sample, reason) in row order. A record is refused when
    it cannot be decoded (sample None), does not fit its topic's schema, or
    is on a topic the manifest does not list. Row i is line i of the piece;
    an undecodable final line of the file is no row."""

    data: bytes
    offsets: np.ndarray  # int64
    groups: list
    refused: list


def _surely_finite(columns: list) -> bool:
    """Whether the texts of float columns, as the f64 pattern matched them,
    are all finite, known without parsing them: none is longer than 308
    bytes, so that an integer part holds at most 307 digits, and no exponent
    is positive. An absent optional field is None."""
    texts = list(filter(None, chain.from_iterable(columns)))
    joined = b"".join(texts)
    return (max(map(len, texts), default=0) <= 308 and b"E" not in joined
            and joined.count(b"e") == joined.count(b"e-"))


def _judge_rows(dec: _Decoder, rows: np.ndarray, lines: list) -> Rows | None:
    """The rows' lines judged column-wise by the topic's compiled line, or
    None unless every one matches and fits."""
    # split, not findall: one flat list of the lines' groups, with the text
    # between matches, which is empty when every line matches.
    parts = dec.line.split(b"\n".join([lines[i] for i in rows.tolist()]) + b"\n")
    step = dec.line.groups + 1
    if len(parts) != len(rows) * step + 1 or any(parts[::step]):
        return None
    try:
        t = np.array(list(map(int, parts[1::step])), dtype=np.int64)
    except OverflowError:
        return None
    texts = [parts[i::step] for i in range(2, step)]
    group = Rows(dec, rows, t, texts)
    floats = [i for i, kind in enumerate(dec.kinds) if kind == "f64"]
    if not _surely_finite([texts[1 + i] for i in floats]):
        values = [v for i in floats for v in group.columns[i] if v is not None]
        if not np.isfinite(np.array(values, dtype=float)).all():
            return None
    # The i64 pattern takes up to 19 digits; a text of at most 18 bytes is an int64.
    if any(len(v) > 18 and not -2**63 <= int(v) < 2**63
           for i, kind in enumerate(dec.kinds) if kind == "i64" for v in texts[1 + i] if v):
        return None
    return group


def _with_decoded(dec: _Decoder, group: Rows | None, decoded: list) -> Rows:
    """A topic's Rows in a chunk: its compiled rows (group, or None) and the
    (row, canonical sample) of each row that only the reference decoder
    read, merged in row order."""
    items = [(row, s.t_ns, s.seq, *map(s.payload.get, dec.fields)) for row, s in decoded]
    if group is not None:
        items += zip(group.rows.tolist(), group.t.tolist(), group.seq, *group.columns)
    items.sort(key=itemgetter(0))
    rows, t, seq, *columns = map(list, zip(*items))
    merged = Rows(dec, np.array(rows, dtype=np.int64), np.array(t, dtype=np.int64), [])
    merged.seq, merged.columns = seq, columns
    return merged


def _body_pieces(fh):
    """(byte offset, bytes) of the rest of a file in pieces of _CHUNK_BYTES,
    each extended to the end of its last line; only the last piece may lack
    a final newline."""
    offset = fh.tell()
    while piece := fh.read(_CHUNK_BYTES):
        if not piece.endswith(b"\n"):
            piece += fh.readline()
        yield offset, piece
        offset += len(piece)


def _judge_chunk(data: bytes, offset: int, final: bool, path, schemas: dict,
                 scan: re.Pattern, code: dict, decoders: list) -> Chunk:
    """The Chunk of one piece of the body; final when it ends the file."""
    topics = scan.findall(data)
    lines = data.split(b"\n")
    ended = lines[-1] == b""  # the piece ends with a newline
    if ended:
        lines.pop()
    lengths = np.fromiter(map(len, lines), np.int64, len(lines)) + 1
    if not ended:
        lengths[-1] -= 1
    offsets = offset + np.cumsum(lengths) - lengths
    codes = np.fromiter(map(code.__getitem__, topics), np.int64, len(topics))
    groups, fallback = {}, []
    for k in np.unique(codes).tolist():
        rows = np.flatnonzero(codes == k)
        group = _judge_rows(decoders[k], rows, lines) if k >= 0 else None
        if group is None:
            fallback += rows.tolist()
        else:
            groups[group.topic] = group
    decoded, refused = {}, []
    for row in sorted(fallback):
        last = row == len(lines) - 1
        line = lines[row] if last and not ended else lines[row] + b"\n"
        try:
            sample, reason = _decode_record(line, schemas)
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as e:
            if final and last:
                end = "corrupt" if ended else "truncated"
                warnings.warn(f"skipping {end} final record in {path}: {e}")
                offsets = offsets[:-1]  # the final line is no record
                break
            sample, reason = None, str(e)
        if reason is None:
            decoded.setdefault(sample.topic, []).append((row, sample))
        else:
            refused.append((row, sample, reason))
    # A row only the reference decoder reads, such as a valid line spaced
    # otherwise than BagWriter spaces it, joins its topic's columns.
    for topic, items in decoded.items():
        dec = next(d for d in decoders if d.name == topic)
        groups[topic] = _with_decoded(dec, groups.get(topic), items)
    return Chunk(data, offsets, list(groups.values()), refused)


def in_row_order(chunk: Chunk, streams: list, max_t: int):
    """streams, each the (rows, t) of a topic in chunk, merged in row order:
    the stream, row and t of each row, and the running maximum of t from
    max_t before each row and after the last (a row below it is late)."""
    t = np.zeros(len(chunk.offsets), np.int64)
    source = np.full(len(chunk.offsets), -1)
    for k, (rows, times) in enumerate(streams):
        t[rows] = times
        source[rows] = k
    rows = np.flatnonzero(source >= 0)
    t = t[rows]
    return source[rows], rows, t, np.maximum.accumulate(np.concatenate(([max_t], t)))


def judged_chunks(path):
    """Yield the judged Chunks of a bag body: the one verdict every reader
    takes. The lines a topic's compiled line matches are judged column-wise,
    with its other rows in the chunk; every other line goes through
    _decode_record, and so does every row of a topic whose rows in the chunk
    do not all match and fit. Every accepted row, however it was read, is in
    its topic's Rows; every other row is refused. An undecodable final line
    is skipped with a warning."""
    schemas = {name: d.schema for name, d in manifest_topics(read_manifest(path)).items()}
    by_topic = _fast_decoders(schemas)
    scan = _scanner(by_topic)
    code = {topic: i for i, topic in enumerate(by_topic)}
    code[b""] = -1  # a line the scan does not tie to a manifest topic
    decoders = list(by_topic.values())
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fh.readline()
        fh.readline()
        for offset, data in _body_pieces(fh):
            yield _judge_chunk(data, offset, offset + len(data) >= size, path, schemas,
                               scan, code, decoders)


def iter_samples(path):
    """Yield (byte_offset, TimedSample) per record of a bag, in file order. A
    refused record raises CorruptBag once every record before it is yielded,
    as paced_chunks stops. Each sample is made as it is yielded, so a
    chunk's samples are not all alive at once."""
    for chunk, _, hi in paced_chunks(path):  # at rate "max" each range starts at row 0
        offsets = chunk.offsets.tolist()
        rows = [zip(g.rows.tolist(), repeat(g.topic), g.t.tolist(), g.seq, g.payloads())
                for g in chunk.groups]
        for row, topic, t, seq, payload in heapq.merge(*rows):  # rows are unique
            if row >= hi:
                break
            yield offsets[row], TimedSample(topic, t, seq, payload)
        del chunk, rows  # not alive while the next chunk is judged


def paced_chunks(path, rate: float | str = "max"):
    """Iterator over (chunk, lo, hi): the judged chunks of a bag, each as
    ranges lo to hi of its rows, released in wall-clock time.

    Every range holds at least one row, and no range holds a refused row:
    a chunk with one comes out only up to its first, and that record's
    CorruptBag is raised once every row before it is consumed. At rate
    "max" each chunk comes out as one range. A numeric rate scales the
    delays between the records' stamps by 1/rate: a range ends before the
    first row not yet due, and the rest of the chunk follows once that row
    is due; a row due further off than time.sleep can wait raises
    RateTooSlow once every row before it is consumed. The rate is checked
    on the call, before the bag is read.
    """
    if rate != "max" and not (isinstance(rate, (int, float)) and rate > 0):
        raise ValueError(f"rate must be positive or 'max': {rate!r}")
    return _paced(judged_chunks(path), rate)


def _paced(chunks, rate: float | str):
    start_wall = time.monotonic()
    t0 = None
    for chunk in chunks:
        lo, n = 0, chunk.refused[0][0] if chunk.refused else len(chunk.offsets)
        if rate != "max":
            stamps = sorted(chain.from_iterable(zip(g.rows.tolist(), g.t.tolist())
                                                for g in chunk.groups))
            for row, t in stamps:
                if row >= n:
                    break
                if t0 is None:
                    t0 = t
                delay = start_wall + (t - t0) / 1e9 / rate - time.monotonic()
                if delay > 0:
                    if row > lo:
                        yield chunk, lo, row
                        lo = row
                    try:
                        time.sleep(delay)
                    except OverflowError:  # beyond the platform's time_t, or inf
                        raise RateTooSlow(f"record at byte {int(chunk.offsets[row])} is due in "
                                          f"{delay:.3g} s at rate {rate}, beyond what the clock "
                                          "can wait") from None
        if lo < n:
            yield chunk, lo, n
        if chunk.refused:
            row, _, reason = chunk.refused[0]
            raise CorruptBag(f"record at byte {int(chunk.offsets[row])} is refused: {reason}")
        del chunk  # not alive while the next chunk is judged


def replay(path, bus: Bus | None = None, rate: float | str = "max",
           retain: bool = False) -> Bus:
    """Republish a bag onto a bus, preserving stamps and per-topic seqs,
    paced as paced_chunks paces it. Downstream extraction over a replayed
    bag matches the live run bit-exactly because records are reproduced
    verbatim.

    A chunk's judged rows of each topic go out as one Bus.publish_block
    block of their columns, as a live session publishes a tick's samples.
    Each topic's rows keep file order; across topics the order of publishes
    is unspecified, as on the bus. A refused record (paced_chunks), on a
    topic the manifest does not list among them even when the bus has that
    topic, raises CorruptBag, a record whose t is not after its topic's
    previous t TimestampRegression, and a record due further off than the
    clock can wait RateTooSlow, once every record before it in the file is
    published.

    The bus keeps no history, so retain must be False; the keyword stays
    because perfbench's log_io workload passes retain=False.
    """
    if retain:
        raise ValueError("the bus keeps no topic history: retain must be False")
    chunks = paced_chunks(path, rate)
    if bus is None:
        bus = Bus()
    for desc in manifest_topics(read_manifest(path)).values():
        bus.open_topic(desc)
    for chunk, lo, hi in chunks:
        _publish_judged(bus, chunk.groups, lo, hi)
        del chunk  # not alive while the next chunk is judged
    return bus


def _publish_judged(bus: Bus, groups: list, lo: int, hi: int):
    """Publish the judged rows lo to hi of a chunk's groups, each topic's as
    one block. A row whose t is not after its topic's previous t is
    published alone, once every row before it is, so that the bus raises
    TimestampRegression for it after the same records."""
    spans, cut, late = [], hi, None  # late: the group and index of the row at cut
    for g in groups:
        a, b = g.rows.searchsorted((lo, hi)).tolist()
        if a == b:
            continue
        spans.append((g, a, b))
        t = g.t[a:b]
        last = bus.topic(g.topic).last_t_ns
        if last is not None and t[0] <= last:
            i = a
        else:
            back = np.flatnonzero(t[1:] <= t[:-1])
            i = a + 1 + int(back[0]) if len(back) else b
        if i < b and g.rows[i] < cut:
            cut, late = int(g.rows[i]), (g, i)
    for g, a, b in spans:
        end = int(g.rows.searchsorted(cut))
        bus.publish_block(g.topic, g.t[a:end], [c[a:end] for c in g.columns])
    if late is not None:
        g, i = late  # raises TimestampRegression
        bus.publish_block(g.topic, g.t[i:i + 1], [c[i:i + 1] for c in g.columns])


@dataclass
class ValidationIssue:
    kind: str
    topic: str
    message: str
    byte_offset: int | None = None

    def __str__(self):
        at = f" @byte {self.byte_offset}" if self.byte_offset is not None else ""
        return f"[{self.kind}] {self.topic}: {self.message}{at}"


@dataclass
class ValidationReport:
    issues: list = field(default_factory=list)
    records: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(path) -> ValidationReport:
    """Check magic, manifest/schema conformance, global t order, per-topic
    (t, seq) contiguity, and nominal-rate gaps (> 2x the nominal period).
    Issues come in file order, and a record's in that order of checks."""
    report = ValidationReport()
    try:
        descs = manifest_topics(read_manifest(path))
    except (CorruptBag, OSError) as e:
        report.issues.append(ValidationIssue("header", "", str(e)))
        return report
    checks = _Checks(descs)
    for chunk in judged_chunks(path):
        report.records += checks.chunk(chunk, report.issues)
        del chunk  # not alive while the next chunk is judged
    return report


_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


def _exact_ints(values: list) -> np.ndarray:
    """values as int64, or as Python ints (dtype object) when one is the
    int64 maximum or beyond the int64 range, so that a running maximum
    plus 1 stays exact."""
    try:
        column = np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
    return column if column.max() < _INT64_MAX else column.astype(object)


class _Checks:
    """validate's checks, run over one judged chunk at a time as columns,
    with what they carry from chunk to chunk: the greatest t so far, and
    each topic's last t and greatest seq."""

    def __init__(self, descs: dict):
        self.descs = descs
        self.max_t = _INT64_MIN  # no stamp is below it
        self.last_t: dict[str, int] = {}
        self.max_seq: dict[str, int] = {}

    def chunk(self, chunk: Chunk, issues: list) -> int:
        """Append the chunk's issues to issues; return its record count."""
        self.at, self.found = chunk.offsets, []  # found: (row, rank of the check, issue)
        streams = {g.topic: (g.topic, g.rows, g.t, g.seq) for g in chunk.groups}
        misfits: dict[str, list] = {}
        for row, sample, reason in chunk.refused:
            if sample is None:
                self.flag(row, 0, "parse", "", f"cannot decode: {reason}")
            elif sample.topic not in self.descs:
                self.flag(row, 0, "manifest", sample.topic, reason)
            else:
                self.flag(row, 0, "schema", sample.topic, reason)
                misfits.setdefault(sample.topic, []).append((row, sample.t_ns, sample.seq))
        # A misfit record is checked in its topic's stream, in row order.
        for topic, items in misfits.items():
            if topic in streams:
                _, rows, t, seq = streams[topic]
                items += zip(rows.tolist(), t.tolist(), seq)
                items.sort(key=itemgetter(0))
            rows, t, seq = zip(*items)
            streams[topic] = topic, np.array(rows), np.array(t, dtype=np.int64), list(seq)
        self.order(chunk, list(streams.values()))
        for stream in streams.values():
            self.topic(*stream)
        self.found.sort(key=itemgetter(0, 1))
        issues += [issue for _, _, issue in self.found]
        return len(self.at) - sum(sample is None for _, sample, _ in chunk.refused)

    def flag(self, row, rank: int, kind: str, topic: str, message: str):
        self.found.append((int(row), rank, ValidationIssue(kind, topic, message, int(self.at[row]))))

    def order(self, chunk: Chunk, streams: list):
        """Each record's t is at least every earlier one's."""
        source, rows, t, running = in_row_order(
            chunk, [(rows, times) for _, rows, times, _ in streams], self.max_t)
        for i in np.flatnonzero(t < running[:-1]).tolist():
            self.flag(rows[i], 1, "order", streams[source[i]][0], f"t={t[i]} after t={running[i]}")
        self.max_t = int(running[-1])

    def topic(self, topic: str, rows: np.ndarray, t: np.ndarray, seq: list):
        """seq one above the greatest before it on its topic, t after the
        topic's previous t, and no gap over twice the nominal period."""
        seq = _exact_ints([self.max_seq.get(topic, -1), *seq])
        running = np.maximum.accumulate(seq)
        expect = running[:-1] + 1
        for i in np.flatnonzero(seq[1:] != expect).tolist():
            self.flag(rows[i], 2, "seq", topic, f"seq {seq[i + 1]} where {expect[i]} expected")
        self.max_seq[topic] = int(running[-1])
        last = self.last_t.get(topic)
        self.last_t[topic] = int(t[-1])
        if last is None:
            prev, t, rows = t[:-1], t[1:], rows[1:]
        else:
            prev = np.concatenate(([last], t[:-1]))
        for i in np.flatnonzero(t <= prev).tolist():
            self.flag(rows[i], 3, "topic-order", topic, f"t={t[i]} not after t={prev[i]}")
        rate = self.descs[topic].nominal_rate_hz
        limit = 2e9 / rate if rate and len(t) else math.inf
        if limit < 2**64:
            # t - prev > limit, exactly as with Python ints: for t > prev the
            # difference fits in uint64, and an integer exceeds a float
            # exactly when it exceeds the float's floor.
            floor = np.uint64(math.floor(limit))
            wide = (t > prev) & (t.view(np.uint64) - prev.view(np.uint64) > floor)
            for i in np.flatnonzero(wide).tolist():
                self.flag(rows[i], 4, "gap", topic,
                          f"{(int(t[i]) - int(prev[i])) / 1e9:.3f} s gap exceeds 2x nominal period")
