import csv
import json
from pathlib import Path

import pytest

from mwpipe.bag import BagWriter, replay
from mwpipe.bus import Bus, ManualClock, TopicDescriptor
from mwpipe.errors import CorruptBag
from mwpipe.export import extract_csv
from mwpipe.features import FEATURE_CATALOG
from mwpipe.session import SessionPlan, run_session
from mwpipe.synth import SynthProfile, gen_rr_series, render_cardiac


def write_single_modality_bag(path, duration_s=60):
    bus = Bus(clock=ManualClock())
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
    from mwpipe.bag import load_samples

    out = extract_csv(session_bag, tmp_path / "live.csv")
    rows = {int(r["t_end_ns"]): r for r in csv_rows(out)}
    live = [s for s in load_samples(session_bag) if s.topic == "feat.ecg"]
    assert live
    checked = 0
    for s in live:
        row = rows.get(s.t_ns)
        if row is None:
            continue
        for key, value in s.payload.items():
            if key == "quality":
                continue
            cell = row[f"ecg.{key}"]
            assert cell != ""
            assert float(cell) == value, key
            checked += 1
    assert checked > 100


def test_extract_over_replayed_bag_identical(session_bag, tmp_path):
    bus = Bus(clock=ManualClock())
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
              "sim.resources": {"o2_pct": "f64", "co2_pct": "f64"}}
MISFIT_RECORDS = {
    "str_in_f64": ("bio.st", b'{"v":"oops"}'),
    "bool_in_f64": ("bio.st", b'{"v":true}'),
    "f64_overflow": ("bio.st", b'{"v":1e999}'),
    "bio_missing_field": ("bio.st", b"{}"),
    "meta_missing_field": ("sim.meta", b"{}"),
    "joined_f64_overflow": ("sim.resources", b'{"o2_pct":1e999,"co2_pct":0.5}'),
}


def bag_with_record(path, topic, data):
    manifest = {"format": "MWBAG1", "topics": [{"name": n, "schema": s}
                                               for n, s in FIT_TOPICS.items()]}
    lines = [b'{"t":%d,"topic":"bio.st","seq":%d,"data":{"v":%r}}\n' % (i * 250_000_000, i,
                                                                         30.0 + i / 64)
             for i in range(160) if i != 140]
    lines.insert(140, b'{"t":35000000000,"topic":"%s","seq":%d,"data":%s}\n'
                 % (topic.encode(), 140 if topic == "bio.st" else 0, data))
    path.write_bytes(b"MWBAG1\n" + json.dumps(manifest).encode() + b"\n" + b"".join(lines))
    return path


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
