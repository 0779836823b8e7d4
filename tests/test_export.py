import csv
import functools
import json
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import mwpipe.bag as mbag
import mwpipe.export as mexport
from mwpipe.bag import BagWriter, replay, validate
from mwpipe.bus import Bus, TimedSample, TopicDescriptor
from mwpipe.cli import main
from mwpipe.errors import CorruptBag
from mwpipe.export import extract_csv
from mwpipe.features import BIO_TOPICS, FEATURE_CATALOG
from mwpipe.session import SESSION_TOPICS, SessionPlan, StitchState, phase_waveforms, run_session
from mwpipe.synth import SynthProfile, gen_rr_series, render_cardiac

from oracles import extract_csv_oracle, load_samples, record_line


def write_single_modality_bag(path, duration_s=60):
    bus = Bus()
    t = bus.open_topic(TopicDescriptor("bio.ecg", {"v": "f64"}, 252.0))
    w = BagWriter(path, bus)
    w.start()
    p = SynthProfile(seed=4, duration_s=duration_s, rr_sdnn_ms=30)
    wf = render_cardiac(gen_rr_series(p), "ecg")
    times = wf.times_ns()
    keep = times < duration_s * 10**9
    for tt, v in zip(times[keep], wf.values[keep].tolist()):
        bus.publish(t, {"v": v}, t_ns=int(tt))
    w.close()
    return path


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_60s_single_modality_gives_31_rows(tmp_path):
    path = write_single_modality_bag(tmp_path / "one.bag")
    out = extract_csv(path, tmp_path / "one.csv")
    rows = csv_rows(out)
    assert len(rows) == 31


def test_columns_cover_catalog_for_present_modalities(tmp_path):
    path = write_single_modality_bag(tmp_path / "cols.bag")
    out = extract_csv(path, tmp_path / "cols.csv")
    header = Path(out).read_text().splitlines()[0].split(",")
    assert header[0] == "t_end_ns"
    for feature in FEATURE_CATALOG["ecg"]:
        assert f"ecg.{feature}" in header
    assert "ecg.quality" in header
    assert not any(c.startswith("ppg.") for c in header)
    assert header[1:] == sorted(header[1:])  # lexicographic column order


def test_rerun_is_byte_identical(tmp_path):
    path = write_single_modality_bag(tmp_path / "det.bag")
    a = extract_csv(path, tmp_path / "a.csv")
    b = extract_csv(path, tmp_path / "b.csv")
    assert Path(a).read_bytes() == Path(b).read_bytes()


@pytest.fixture(scope="module")
def session_bag(tmp_path_factory):
    path = tmp_path_factory.mktemp("exp") / "sess.bag"
    plan = SessionPlan(seed=5, baseline_s=35.0, interrun_s=12.0, run_timeout_s=40.0)
    run_session(plan, path)
    return path


def test_session_csv_has_sim_and_meta_columns(session_bag, tmp_path):
    out = extract_csv(session_bag, tmp_path / "sess.csv")
    rows = csv_rows(out)
    header = rows[0].keys()
    for col in ("sim.battery_pct", "sim.motor_temp_c", "sim.o2_pct", "sim.co2_pct",
                "sim.radar_state", "meta.difficulty", "meta.phase"):
        assert col in header, col
    mid = rows[len(rows) // 2]
    assert mid["sim.battery_pct"] != ""
    assert mid["meta.phase"] in ("baseline", "run", "freeplay")
    assert all(r["meta.difficulty"] in ("", "low", "high") for r in rows)


def test_absent_cells_are_empty_not_zero(session_bag, tmp_path):
    out = extract_csv(session_bag, tmp_path / "absent.csv")
    rows = csv_rows(out)
    # pursuit-free windows leave the mean absent but keep the count at 0
    bad = [r for r in rows if r["gaze.fixation_duration_ms"] == "0"]
    assert not bad


def test_live_feature_rows_match_reextraction(session_bag, tmp_path):
    # the feat.* rows recorded live must equal re-derivation from raw topics
    out = extract_csv(session_bag, tmp_path / "live.csv")
    rows = {int(r["t_end_ns"]): r for r in csv_rows(out)}
    checked = dict.fromkeys(FEATURE_CATALOG, 0)
    for s in load_samples(session_bag):
        modality = s.topic.removeprefix("feat.")
        if modality == s.topic:
            continue
        row = rows[s.t_ns]
        for key, value in s.payload.items():
            cell = row[f"{modality}.{key}"]
            assert cell != ""
            assert float(cell) == value, (s.topic, key)
            checked[modality] += 1
    assert min(checked.values()) > 100, checked


def test_extract_over_replayed_bag_identical(session_bag, tmp_path):
    bus = Bus()
    w = BagWriter(tmp_path / "re.bag", bus)
    replay(session_bag, bus=bus, rate="max")
    w.close()
    a = extract_csv(session_bag, tmp_path / "orig.csv")
    b = extract_csv(tmp_path / "re.bag", tmp_path / "re.csv")
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_floats_round_trip_through_csv(tmp_path):
    path = write_single_modality_bag(tmp_path / "rt.bag")
    out = extract_csv(path, tmp_path / "rt.csv")
    rows = csv_rows(out)
    for r in rows:
        v = r["ecg.rmssd_ms"]
        if v:
            assert repr(float(v)) == v


# A 40 s bio.st bag with sim.meta and sim.resources topics; each record
# below goes into it as bio.st sample 140, or as the first sample of its
# topic, at t=35 s, where it lines up with a row.
FIT_TOPICS = {"bio.st": {"v": "f64"},
              "sim.meta": {"phase": "str", "run_index": "i64", "difficulty": "str",
                           "elapsed_s": "f64"},
              "sim.resources": {"o2_pct": "f64", "co2_pct": "f64"},
              "feat.st": {"quality": "f64"}}
MISFIT_RECORDS = {
    "str_in_f64": ("bio.st", b'{"v":"oops"}'),
    "bool_in_f64": ("bio.st", b'{"v":true}'),
    "f64_overflow": ("bio.st", b'{"v":1e999}'),
    "bio_missing_field": ("bio.st", b"{}"),
    "meta_missing_field": ("sim.meta", b"{}"),
    "joined_f64_overflow": ("sim.resources", b'{"o2_pct":1e999,"co2_pct":0.5}'),
}


def bag_with_lines(path, lines, topics=FIT_TOPICS):
    manifest = {"format": "MWBAG1", "topics": [{"name": n, "schema": s}
                                               for n, s in topics.items()]}
    path.write_bytes(b"MWBAG1\n" + json.dumps(manifest).encode() + b"\n" + b"".join(lines))
    return path


def bag_with_record(path, topic, data):
    lines = [b'{"t":%d,"topic":"bio.st","seq":%d,"data":{"v":%r}}\n' % (i * 250_000_000, i,
                                                                         30.0 + i / 64)
             for i in range(160) if i != 140]
    lines.insert(140, b'{"t":35000000000,"topic":"%s","seq":%d,"data":%s}\n'
                 % (topic.encode(), 140 if topic == "bio.st" else 0, data))
    return bag_with_lines(path, lines)


@pytest.mark.parametrize("topic, data", MISFIT_RECORDS.values(), ids=MISFIT_RECORDS)
def test_record_that_misfits_its_schema_is_corrupt_bag(tmp_path, topic, data):
    fitting = {"bio.st": b'{"v":30.5}', "sim.resources": b'{"o2_pct":20.5,"co2_pct":0.5}',
               "sim.meta": b'{"phase":"run","run_index":1,"difficulty":"low","elapsed_s":5.0}'}
    good = bag_with_record(tmp_path / "good.bag", topic, fitting[topic])
    extract_csv(good, tmp_path / "good.csv")
    assert (tmp_path / "good.csv").read_text().count("\n") > 1
    bad = bag_with_record(tmp_path / "bad.bag", topic, data)
    with pytest.raises(CorruptBag):
        extract_csv(bad, tmp_path / "bad.csv")


# A manifest at odds with a field the export reads: (topic, its schema, the
# data of its records, which fit that schema, and the field named). A bio.st
# schema goes with every bio.st record; another topic's with one record at
# t=35 s, where it lines up with a row.
FOREIGN_SCHEMAS = {
    "joined_field_missing": ("sim.resources", {"o2_pct": "f64"}, b'{"o2_pct":20.5}', "co2_pct"),
    "joined_field_optional": ("sim.resources", {"o2_pct": "f64", "co2_pct": "f64?"},
                              b'{"o2_pct":20.5}', "co2_pct"),
    "meta_phase_only": ("sim.meta", {"phase": "str"}, b'{"phase":"run"}', "difficulty"),
    "bio_field_renamed": ("bio.st", {"w": "f64"}, b'{"w":30.5}', "v"),
    "bio_field_str": ("bio.st", {"v": "str"}, b'{"v":"x"}', "v"),
    "bio_field_optional": ("bio.st", {"v": "f64?"}, b"{}", "v"),
}


@pytest.mark.parametrize("topic, schema, data, field", FOREIGN_SCHEMAS.values(),
                         ids=FOREIGN_SCHEMAS)
def test_manifest_at_odds_with_a_field_read_is_corrupt_bag(tmp_path, topic, schema, data, field):
    """A bag whose records fit its manifest, but whose manifest drops a field
    the export reads, makes it optional or gives it another kind, is refused
    by name, and no CSV is written."""
    lines = [b'{"t":%d,"topic":"bio.st","seq":%d,"data":%s}\n'
             % (i * 250_000_000, i, data if topic == "bio.st" else b'{"v":%r}' % (30.0 + i / 64))
             for i in range(160)]
    if topic != "bio.st":
        lines.insert(141, b'{"t":35000000000,"topic":"%s","seq":0,"data":%s}\n'
                     % (topic.encode(), data))
    path = bag_with_lines(tmp_path / "foreign.bag", lines, {**FIT_TOPICS, topic: schema})
    assert validate(path).ok
    out = tmp_path / "foreign.csv"
    with pytest.raises(CorruptBag, match=f"manifest topic {topic} gives field '{field}'"):
        extract_csv(path, out)
    assert not out.exists()


# -- the streaming export against the batch oracle ------------------------------

MANIFEST = json.dumps({"format": "MWBAG1", "topics": [
    {"name": d.name, "schema": dict(d.schema), "nominal_rate_hz": d.nominal_rate_hz}
    for d in SESSION_TOPICS]}).encode()
SCHEMAS = {d.name: d.schema for d in SESSION_TOPICS}
TELEMETRY = ("sim.rover", "sim.resources", "sim.radar")
TICK_NS = 250_000_000


@functools.lru_cache(maxsize=1)
def waveforms_70s() -> dict:
    """Modality -> (times_ns, rows of field values) of 70 s of every modality."""
    waveforms = phase_waveforms(SynthProfile(), 70.0, 7, StitchState())
    return {m: (wf.times_ns(), np.asarray(wf.values, dtype=float).reshape(len(wf.values), -1))
            for m, wf in waveforms.items()}


def telemetry_payload(topic: str, k: int) -> dict:
    kinds = {"f64": lambda i: k * 0.25 + i, "i64": lambda i: k % 12, "bool": lambda i: k % 3 == 0}
    return {f: kinds[kind](i) for i, (f, kind) in enumerate(SCHEMAS[topic].items())}


def session_lines(duration_ns: int, modalities, late=None, late_ns=0, telemetry=None,
                  leave="none") -> list:
    """Record lines in bag order for a bag of at most 70 s: the modalities,
    late from late_ns on, telemetry on a 250 ms grid ({topic: (gaps as
    ranges of ticks, ticks doubled)}), and sim.meta on whole seconds leaving
    the baseline phase at leave (None never; "none" for no sim.meta)."""
    records = []  # (t, topic, payload)
    for m in modalities:
        times, values = waveforms_70s()[m]
        keep = (times < duration_ns) & (times >= (late_ns if m == late else 0))
        fields = BIO_TOPICS[m].fields
        records += [(t, f"bio.{m}", dict(zip(fields, v)))
                    for t, v in zip(times[keep].tolist(), values[keep].tolist())]
    for topic, (gaps, doubled) in (telemetry or {}).items():
        for k in range(duration_ns // TICK_NS):
            if not any(a <= k < b for a, b in gaps):
                sample = (k * TICK_NS, topic, telemetry_payload(topic, k))
                records += [sample] * (1 + (k in doubled))
    if leave != "none":
        stamps = sorted({*range(0, duration_ns, 10**9), *([leave] if leave else [])})
        for t in stamps:
            phase = "baseline" if leave is None or t < leave else "run"
            records.append((t, "sim.meta", {"phase": phase, "run_index": -1,
                                            "difficulty": "", "elapsed_s": t / 1e9}))
    seqs: dict = {}
    lines = []
    for t, topic, payload in sorted(records, key=lambda r: (r[0], r[1])):
        seq = seqs[topic] = seqs.get(topic, -1) + 1
        lines.append(record_line(TimedSample(topic, t, seq, payload), SCHEMAS[topic]).encode())
    return lines


@st.composite
def streaming_bags(draw):
    """Record lines in bag order for a bag of at most 70 s, with the size of
    its chunks, the join tolerance and the bag time between hand-overs to
    the feature worker."""
    duration_ns = draw(st.integers(31, 70)) * 10**9
    modalities = draw(st.lists(st.sampled_from(list(BIO_TOPICS)), unique=True, min_size=1))
    late = draw(st.sampled_from(modalities))
    late_ns = draw(st.integers(0, 40 * 10**9))
    # telemetry on a 250 ms grid, so that stamps fall on row ends and on
    # row ends plus or minus the tolerance
    ticks, per_s = duration_ns // TICK_NS, 10**9 // TICK_NS
    telemetry = {}
    for topic in draw(st.lists(st.sampled_from(TELEMETRY), unique=True)):
        # each gap is around a whole second, where a row may end
        gaps = [(second * per_s - before, second * per_s + after)
                for second, before, after in draw(st.lists(st.tuples(
                    st.integers(30, 70), st.integers(0, 12), st.integers(0, 12)), max_size=6))]
        telemetry[topic] = gaps, draw(st.sets(st.integers(0, ticks), max_size=4))
    meta = draw(st.sampled_from(["none", "never", "before", "tied", "after"]))
    leave = "none"
    if meta != "none":
        bio_stamps = [t for m in modalities for t in waveforms_70s()[m][0].tolist()
                      if t < duration_ns and (m != late or t >= late_ns)]
        leave = {"never": None,
                 "before": draw(st.integers(1, duration_ns // 10**9 - 1)) * 10**9,
                 "tied": draw(st.sampled_from(bio_stamps)) if bio_stamps else 30 * 10**9,
                 "after": max(bio_stamps, default=0)
                 + draw(st.sampled_from([1, TICK_NS, 10**9, 3 * 10**9]))}[meta]
    lines = session_lines(duration_ns, modalities, late, late_ns, telemetry, leave)
    if lines:
        i = draw(st.integers(0, len(lines) - 1))
        spaced = json.loads(lines[i])
        if draw(st.integers(0, 7)) == 0:
            spaced["data"] = {}  # refused: it lacks every field
        lines[i] = json.dumps(spaced).encode() + b"\n"  # spaced as json.dumps spaces it
        if draw(st.booleans()):
            lines[-1] = lines[-1][:len(lines[-1]) // 2]  # a truncated final line
    chunk_bytes = draw(st.sampled_from([300, 4096, 128 * 1024]))
    tolerance_ns = draw(st.sampled_from([1, 50_000_000, TICK_NS, 3 * TICK_NS, 5 * 10**9]))
    # every chunk, the default, or only at the end of the bag
    hand_over_ns = draw(st.sampled_from([1, 10 * 10**9, 100 * 10**9]))
    return lines, chunk_bytes, tolerance_ns, hand_over_ns


def csv_or_error(extract, path, out, tolerance_ns):
    try:
        return Path(extract(path, out, align_tolerance_ns=tolerance_ns)).read_bytes()
    except CorruptBag as e:
        assert not out.exists()
        return str(e)


# Rows come back from the feature worker one hand-over late. With a 20 s
# tolerance and a hand-over every chunk, a row waits for about 180 chunks of
# 4 KiB, and sim.resources (which ends at 36 s) and sim.radar (which starts
# at 45 s) join rows 20 s away; with 1 ns, a row joins only the sample at its
# very end. sim.meta leaves the baseline phase at 41.5 s.
LATE_ROWS = dict(telemetry={"sim.rover": ([], set()), "sim.resources": ([(144, 280)], set()),
                            "sim.radar": ([(0, 180)], set())}, leave=41_500_000_000)


@settings(max_examples=30, deadline=None)
@given(bag=streaming_bags())
@example(bag=(session_lines(70 * 10**9, ("ppg", "st"), **LATE_ROWS), 4096, 20 * 10**9, 1))
@example(bag=(session_lines(70 * 10**9, ("ppg", "st"), **LATE_ROWS), 4096, 1, 10 * 10**9))
# the baseline phase ends inside a chunk of about 20 s
@example(bag=(session_lines(70 * 10**9, ("ppg", "st"), **LATE_ROWS), 128 * 1024, 50_000_000,
              10 * 10**9))
# the whole bag in one chunk: every row is in flight until the end
@example(bag=(session_lines(70 * 10**9, ("st",), telemetry={"sim.rover": ([], set())}),
              128 * 1024, 1, 10 * 10**9))
# 10 s hand-overs fall near 10, 20, 31, 41, 52 and 62 s: the baseline end
# (41.5 s) is read while slices are held, and the bag ends inside a held
# interval
@example(bag=(session_lines(70 * 10**9, ("ppg", "st"), **LATE_ROWS), 4096, 50_000_000,
              10 * 10**9))
# no hand-over before the end of the bag: the baseline end (52.3 s) and the
# whole bag are held until finish
@example(bag=(session_lines(65 * 10**9, ("ecg", "st"), telemetry={"sim.rover": ([], set())},
                            leave=52_300_000_000), 4096, 1, 100 * 10**9))
def test_streamed_csv_equals_the_batch_export(tmp_path_factory, bag):
    """Modalities that start late or are absent, sim.meta leaving the baseline
    phase before, at, or after the last bio stamp, or never, inside a chunk
    or a held interval, telemetry gaps wider than the tolerance and repeated
    stamps, a tolerance that spans many chunks, a spaced or refused line and
    a truncated final line, at any chunk size and hand-over interval: the
    same CSV bytes, or the same CorruptBag."""
    lines, chunk_bytes, tolerance_ns, hand_over_ns = bag
    tmp = tmp_path_factory.mktemp("stream")
    path = tmp / "s.bag"
    path.write_bytes(b"MWBAG1\n" + MANIFEST + b"\n" + b"".join(lines))
    with warnings.catch_warnings(), mock.patch.object(mbag, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(mexport, "HAND_OVER_NS", hand_over_ns):
        warnings.simplefilter("ignore")  # a truncated final line is skipped with a warning
        streamed = csv_or_error(extract_csv, path, tmp / "streamed.csv", tolerance_ns)
        batch = csv_or_error(extract_csv_oracle, path, tmp / "batch.csv", tolerance_ns)
    assert streamed == batch


@pytest.mark.parametrize("topic", ["bio.st", "sim.resources"])
@pytest.mark.parametrize("chunk_bytes", [300, 128 * 1024])
def test_record_out_of_order_is_corrupt_bag(tmp_path, topic, chunk_bytes):
    """A bio or joined record below the greatest t of those topics before it
    is refused at its offset, which validate flags as [order], and no CSV is
    written."""
    good = {"bio.st": b'{"v":30.5}', "sim.resources": b'{"o2_pct":20.5,"co2_pct":0.5}'}
    path = bag_with_record(tmp_path / "late.bag", topic, good[topic])
    lines = path.read_bytes().splitlines(keepends=True)
    late = lines.pop(2 + 140)  # t = 35 s, moved after the record at 36 s
    lines.insert(2 + 144, late)
    path.write_bytes(b"".join(lines))
    (issue,) = [i for i in validate(path).issues if i.kind == "order"]
    out = tmp_path / "late.csv"
    with mock.patch.object(mbag, "_CHUNK_BYTES", chunk_bytes), \
            pytest.raises(CorruptBag, match=f"record at byte {issue.byte_offset} is out of order"):
        extract_csv(path, out)
    assert not out.exists()


@pytest.mark.parametrize("chunk_bytes", [1, 128 * 1024])
def test_rows_join_samples_at_exactly_the_tolerance(tmp_path, chunk_bytes):
    """With sim.resources only at 34.5 s and 36.5 s and a 0.5 s tolerance, the
    rows ending at 34 s to 37 s each join a sample at exactly the tolerance:
    a row waits for a sample at its end plus the tolerance, and keeps one at
    its end minus the tolerance, however the chunks fall."""
    lines = [b'{"t":%d,"topic":"bio.st","seq":%d,"data":{"v":%r}}\n' % (i * 250_000_000, i,
                                                                          30.0 + i / 64)
             for i in range(160)]
    for seq, i in enumerate((138, 146)):  # 34.5 s and 36.5 s, after bio.st at that t
        lines.insert(i + 1 + seq, b'{"t":%d,"topic":"sim.resources","seq":%d,'
                     b'"data":{"o2_pct":20.5,"co2_pct":0.5}}\n' % (i * 250_000_000, seq))
    path = bag_with_lines(tmp_path / "tol.bag", lines)
    with mock.patch.object(mbag, "_CHUNK_BYTES", chunk_bytes):
        rows = {r["t_end_ns"]: r["sim.o2_pct"]
                for r in csv_rows(extract_csv(path, tmp_path / "tol.csv",
                                              align_tolerance_ns=500_000_000))}
    assert [rows[str(t * 10**9)] for t in range(33, 39)] == ["", *["20.5"] * 4, ""]
    assert (tmp_path / "tol.csv").read_bytes() == Path(extract_csv_oracle(
        path, tmp_path / "oracle.csv", align_tolerance_ns=500_000_000)).read_bytes()


def test_other_topics_are_not_held_to_the_order(tmp_path):
    """Only bio and joined topics bound what the export reads, so a feature
    or TLX record out of order is no fault of the export's."""
    path = bag_with_record(tmp_path / "ok.bag", "bio.st", b'{"v":30.5}')
    lines = path.read_bytes().splitlines(keepends=True)
    lines.insert(2 + 150, b'{"t":1,"topic":"feat.st","seq":0,"data":{"quality":1.0}}\n')
    path.write_bytes(b"".join(lines))
    out = Path(extract_csv(path, tmp_path / "ok.csv"))
    assert out.read_bytes() == Path(extract_csv_oracle(path, tmp_path / "oracle.csv")).read_bytes()


QUOTED = ["a,b", 'c"d', "e\nf", "g\rh"]


def test_cells_with_a_comma_a_quote_or_a_line_break_are_quoted(tmp_path):
    """sim.meta strings holding a comma, a double quote, LF or CR are each one
    quoted cell: every row has the header's column count, each such cell
    reads back exactly, and extract counts rows, not lines."""
    bus = Bus()
    topics = {d.name: bus.open_topic(d) for d in SESSION_TOPICS
              if d.name in ("bio.st", "sim.meta")}
    path = tmp_path / "quoted.bag"
    w = BagWriter(path, bus)
    bus.publish_block(topics["bio.st"], np.arange(160) * 250_000_000,
                      [30.0 + np.arange(160) / 64])
    for k in range(41):
        bus.publish(topics["sim.meta"], {"phase": QUOTED[k % 4], "run_index": -1,
                                         "difficulty": QUOTED[(k + 1) % 4],
                                         "elapsed_s": float(k)}, t_ns=k * 10**9)
    w.close()
    assert validate(path).ok
    out = tmp_path / "quoted.csv"
    r = CliRunner().invoke(main, ["extract", "--bag", str(path), "--out", str(out)])
    assert r.exit_code == 0, r.output
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 11 and f"wrote {len(rows)} rows" in r.output
    assert all(len(row) == len(header) for row in rows)
    phase, difficulty = header.index("meta.phase"), header.index("meta.difficulty")
    for row in rows:
        k = int(row[0]) // 10**9  # each row ends on a whole second, and joins its marker
        assert (row[phase], row[difficulty]) == (QUOTED[k % 4], QUOTED[(k + 1) % 4])
    assert out.read_bytes() == Path(extract_csv_oracle(path, tmp_path / "oracle.csv")).read_bytes()
