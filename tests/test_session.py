import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

import mwpipe.bag as mbag
import mwpipe.features.extract as mextract
import mwpipe.session as msession
from mwpipe.bag import BagWriter, validate
from mwpipe.errors import CorruptBag, PlanInvalid, ScaleOutOfRange
from mwpipe.export import extract_csv
from mwpipe.features.worker import FeatureWorker
from mwpipe.session import (
    TLX_SCALES,
    SessionPlan,
    TLXResponse,
    collect_tlx,
    run_session,
    scripted_tlx,
)
from mwpipe.sim.operator import PolicyConfig
from mwpipe.sim.rover import DEFAULT_PHYSICS

from oracles import body_bytes, load_samples

# short protocol for fast tests; the acceptance suite runs the full default
SMALL = dict(baseline_s=35.0, interrun_s=12.0, run_timeout_s=45.0)


@pytest.fixture(scope="module")
def small_session(tmp_path_factory):
    path = tmp_path_factory.mktemp("sess") / "small.bag"
    plan = SessionPlan(seed=3, **SMALL)
    result = run_session(plan, path)
    return plan, result, load_samples(path)


def by_topic(samples):
    out = defaultdict(list)
    for s in samples:
        out[s.topic].append(s)
    return out


def test_plan_validation():
    with pytest.raises(PlanInvalid):
        SessionPlan(run_order=("low", "low", "high", "high")).validate()
    with pytest.raises(PlanInvalid):
        SessionPlan(run_order=("low", "high", "low")).validate()
    with pytest.raises(PlanInvalid):
        SessionPlan(baseline_s=0).validate()
    # a phase shorter than one 0.1 s tick, once rounded to ticks
    for duration in ("baseline_s", "interrun_s", "run_timeout_s"):
        with pytest.raises(PlanInvalid, match="at least one"):
            SessionPlan(**{duration: 0.04}).validate()
    SessionPlan(run_order=("high", "low", "high", "low")).validate()
    SessionPlan(baseline_s=0.06, interrun_s=0.06, run_timeout_s=0.06).validate()


def test_phase_structure(small_session):
    plan, result, _ = small_session
    names = [p[0] for p in result.phases]
    assert names == ["baseline", "run", "freeplay", "run", "freeplay", "run",
                     "freeplay", "run"]
    base = result.phases[0]
    assert (base[2] - base[1]) / 1e9 == pytest.approx(plan.baseline_s)
    for name, start, end in result.phases:
        if name == "freeplay":
            assert (end - start) / 1e9 == pytest.approx(plan.interrun_s)


def test_four_runs_with_tlx(small_session):
    _, result, samples = small_session
    assert len(result.run_records) == 4
    assert [r.difficulty for r in result.run_records] == ["low", "high", "low", "high"]
    tlx_samples = [s for s in samples if s.topic == "survey.tlx"]
    assert len(tlx_samples) == 4
    for s in tlx_samples:
        for scale in ("mental", "physical", "temporal", "performance",
                      "effort", "frustration"):
            assert 0 <= s.payload[scale] <= 100


def test_tlx_follows_runs_last_telemetry(small_session):
    _, result, samples = small_session
    rover = [s for s in samples if s.topic == "sim.rover"]
    tlx = [s for s in samples if s.topic == "survey.tlx"]
    order = {(s.topic, s.seq): i for i, s in enumerate(samples)}
    for rec, t_sample in zip(result.run_records, tlx):
        last_rover_in_run = max(
            (s for s in rover if rec.t_start_ns <= s.t_ns < rec.t_end_ns),
            key=lambda s: s.t_ns,
        )
        assert order[("survey.tlx", t_sample.seq)] > order[("sim.rover", last_rover_in_run.seq)]


def test_rover_telemetry_exactly_10hz_per_phase(small_session):
    _, result, samples = small_session
    rover_times = [s.t_ns for s in samples if s.topic == "sim.rover"]
    for name, start, end in result.phases:
        n = sum(1 for t in rover_times if start <= t < end)
        assert n == round((end - start) / 1e9 * 10), name


def test_radar_states_within_range(small_session):
    _, _, samples = small_session
    states = {s.payload["state"] for s in samples if s.topic == "sim.radar"}
    assert states <= set(range(12))


def test_per_topic_monotonic_and_valid(small_session):
    _, result, samples = small_session
    last = {}
    for s in samples:
        if s.topic in last:
            prev_t, prev_seq = last[s.topic]
            assert s.t_ns > prev_t, s.topic
            assert s.seq == prev_seq + 1, s.topic
        else:
            assert s.seq == 0
        last[s.topic] = (s.t_ns, s.seq)
    report = validate(result.bag_path)
    assert report.ok, [str(i) for i in report.issues[:5]]


def test_difficulty_markers_match_plan(small_session):
    plan, result, samples = small_session
    meta = [s for s in samples if s.topic == "sim.meta"]
    runs = [p for p in result.phases if p[0] == "run"]
    for idx, (name, start, end) in enumerate(runs):
        inside = [s for s in meta if start <= s.t_ns < end]
        assert inside
        assert all(s.payload["difficulty"] == plan.run_order[idx] for s in inside)
        assert all(s.payload["run_index"] == idx for s in inside)


def test_session_determinism(tmp_path):
    plan = SessionPlan(seed=9, **SMALL)
    a = run_session(plan, tmp_path / "a.bag")
    b = run_session(plan, tmp_path / "b.bag")
    assert body_bytes(a.bag_path) == body_bytes(b.bag_path)
    c = run_session(SessionPlan(seed=10, **SMALL), tmp_path / "c.bag")
    assert body_bytes(a.bag_path) != body_bytes(c.bag_path)


@pytest.mark.parametrize("ticks", [1, 7, 10**9])
def test_bag_body_does_not_depend_on_the_flush_cadence(tmp_path, monkeypatch, ticks):
    """Flushing every tick, every 7 ticks (which divides no phase length, so
    an interval in flight crosses each phase end) or only at phase ends
    writes the bytes that the default cadence writes."""
    plan = SessionPlan(seed=2, baseline_s=32.0, interrun_s=10.0, run_timeout_s=20.0)
    default = run_session(plan, tmp_path / "default.bag")
    monkeypatch.setattr(msession, "_FLUSH_TICKS", ticks)
    flushed = run_session(plan, tmp_path / "flushed.bag")
    assert body_bytes(flushed.bag_path) == body_bytes(default.bag_path)
    # the session publishes once per flush interval, so this also checks
    # that the run outcomes do not depend on how the rows are split up
    assert flushed.run_records == default.run_records
    assert flushed.phases == default.phases


def test_session_publishes_once_per_interval(tmp_path, monkeypatch):
    """The bag writer gets each bio.* and sim.* topic as at most one block
    per flush interval of each phase; sim.meta's session-end row is its own
    block."""
    blocks = []
    on_publish = BagWriter._on_publish

    def counting(writer, block):
        blocks.append((block.topic, block.times_ns[0], block.times_ns[-1]))
        on_publish(writer, block)

    monkeypatch.setattr(BagWriter, "_on_publish", counting)
    result = run_session(SessionPlan(**WORKER_PLAN), tmp_path / "s.bag")
    interval_ns = msession._FLUSH_TICKS * msession.TICK_NS

    def interval(t):
        for i, (_, start, end) in enumerate(result.phases):
            if start <= t < end:
                return i, (t - start) // interval_ns
        return "session end"

    seen = defaultdict(list)
    for topic, first, last in blocks:
        if topic.startswith(("bio.", "sim.")):
            assert interval(first) == interval(last), topic
            seen[topic].append(interval(first))
    assert {"bio.ecg", "bio.gaze", "sim.rover", "sim.radar", "sim.meta"} <= set(seen)
    for topic, intervals in seen.items():
        assert len(intervals) == len(set(intervals)), topic


# An operator who never vents ends each run on CO2 within 10 s.
EARLY_END = dict(seed=5, baseline_s=12.0, interrun_s=10.0, run_timeout_s=20.0,
                 policy=PolicyConfig(reaction_mean_s=math.inf),
                 physics=replace(DEFAULT_PHYSICS, co2_fail_pct=5.0))


@pytest.mark.parametrize("plan, flush_ticks", [
    (dict(seed=5, baseline_s=30.0, interrun_s=10.0, run_timeout_s=20.0), None),
    (EARLY_END, None),
    # every tick a flush point, so each run ends on one
    (EARLY_END, 1),
], ids=["whole_intervals", "early_end", "early_end_on_a_flush_point"])
def test_each_point_is_handed_to_the_worker_once(tmp_path, monkeypatch, plan, flush_ticks):
    """The watermarks the session hands the feature worker rise strictly,
    whether a phase ends on a flush point or a run ends early."""
    watermarks = []
    advance = FeatureWorker.advance

    def recording(worker, slices, watermark_ns, *args):
        watermarks.append(watermark_ns)
        return advance(worker, slices, watermark_ns, *args)

    monkeypatch.setattr(FeatureWorker, "advance", recording)
    if flush_ticks is not None:
        monkeypatch.setattr(msession, "_FLUSH_TICKS", flush_ticks)
    result = run_session(SessionPlan(**plan), tmp_path / "s.bag")
    assert all(a < b for a, b in zip(watermarks, watermarks[1:])), watermarks
    assert watermarks[-1] == result.phases[-1][2]
    if plan is EARLY_END:
        assert all(r.outcome.status == "failed_co2" for r in result.run_records)
    else:  # every 10 s of the session, each phase end among them
        assert watermarks == list(range(10 * 10**9, result.phases[-1][2] + 1, 10 * 10**9))


def test_feature_topics_present(small_session):
    _, _, samples = small_session
    feat_topics = {s.topic for s in samples if s.topic.startswith("feat.")}
    assert feat_topics == {"feat.ecg", "feat.ppg", "feat.resp", "feat.eda",
                           "feat.st", "feat.gaze"}
    rows = [s for s in samples if s.topic == "feat.ecg"]
    assert all("quality" in s.payload for s in rows)


def test_no_gap_over_twice_nominal_period(small_session):
    _, _, samples = small_session
    rates = {"bio.ecg": 252.0, "bio.ppg": 64.0, "bio.resp": 1.008, "bio.eda": 4.0,
             "bio.st": 4.0, "bio.gaze": 120.0, "sim.rover": 10.0,
             "sim.resources": 10.0, "sim.radar": 10.0, "sim.meta": 1.0}
    times = defaultdict(list)
    for s in samples:
        if s.topic in rates:
            times[s.topic].append(s.t_ns)
    for topic, rate in rates.items():
        ts = times[topic]
        assert ts, topic
        worst = max(b - a for a, b in zip(ts, ts[1:]))
        assert worst <= 2e9 / rate, (topic, worst / 1e9)


# -- TLX responder --------------------------------------------------------------


def test_scripted_tlx_monotone_in_difficulty():
    for seed in range(20):
        low = scripted_tlx(0, "low", "completed", seed)
        high = scripted_tlx(0, "high", "completed", seed)
        assert high.mental >= low.mental
        assert high.effort >= low.effort


def test_tlx_bounds_enforced():
    with pytest.raises(ScaleOutOfRange):
        TLXResponse(0, 101, 0, 0, 0, 0, 0)
    with pytest.raises(ScaleOutOfRange):
        TLXResponse(0, -1, 0, 0, 0, 0, 0)
    TLXResponse(0, 100, 0, 0, 0, 0, 0)


def test_collect_tlx_interactive_prompt():
    answers = iter([10, 20, 30, 40, 50, 60])
    tlx = collect_tlx(1, "low", "completed", 0,
                      interactive_prompt=lambda scale: next(answers))
    assert tlx.mental == 10 and tlx.frustration == 60


def test_failure_shifts_tlx_scores():
    done = scripted_tlx(0, "high", "completed", 3)
    failed = scripted_tlx(0, "high", "failed_o2", 3)
    assert failed.performance < done.performance
    assert failed.frustration > done.frustration


# -- the feature worker --------------------------------------------------------

# A short plan whose baseline already emits feature rows.
WORKER_PLAN = dict(seed=4, baseline_s=32.0, interrun_s=10.0, run_timeout_s=15.0)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def assert_no_child_process():
    # waitpid(-1) sees every child, running or ended but never waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def worker_bag(tmp_path_factory):
    path = tmp_path_factory.mktemp("worker") / "worker.bag"
    run_session(SessionPlan(**WORKER_PLAN), path)
    return path


@pytest.fixture(params=["run_session", "extract_csv"])
def driver(request, tmp_path):
    """A call that forks a feature worker, as (function, args, the path it
    writes, a reader of that path's deterministic bytes)."""
    if request.param == "run_session":
        out = tmp_path / "out.bag"
        return run_session, (SessionPlan(**WORKER_PLAN), out), out, body_bytes
    out = tmp_path / "out.csv"
    return extract_csv, (request.getfixturevalue("worker_bag"), out), out, Path.read_bytes


def test_no_worker_outlives_a_run(driver):
    function, args, _, _ = driver
    function(*args)
    assert_no_child_process()


def test_an_extraction_error_in_the_worker_is_raised_by_the_caller(driver, monkeypatch):
    def broken(windows, **kwargs):
        if windows:  # an advance that completes no window of a modality passes none
            raise ValueError(f"no features for {windows[0].modality}")
        return []

    function, args, out, _ = driver
    # the worker is forked, so it inherits the patch
    monkeypatch.setattr(mextract, "extract_windows", broken)
    with pytest.raises(ValueError, match="^no features for [a-z]+$"):
        function(*args)
    assert_no_child_process()
    if function is extract_csv:
        assert not out.exists()


def test_a_pipeline_the_worker_cannot_build_is_raised_by_the_caller(worker_bag, tmp_path):
    """The worker builds the pipeline after the fork; the windower's error
    comes back as its reply to the first interval, with no CSV and no worker
    left."""
    out = tmp_path / "tiny.csv"
    with pytest.raises(ValueError, match="^len_s and stride_s must be at least 1 ns$"):
        extract_csv(worker_bag, out, window_s=1e-10)
    assert not out.exists()
    assert_no_child_process()


def test_a_bag_corrupt_halfway_leaves_no_csv_and_no_worker(worker_bag, tmp_path):
    """A garbage line after about half the body, read in small chunks, so
    that the worker has extracted many of them and has one in flight."""
    lines = worker_bag.read_bytes().splitlines(keepends=True)
    lines.insert(len(lines) // 2, b"not a record\n")
    bag, out = tmp_path / "garbage.bag", tmp_path / "garbage.csv"
    bag.write_bytes(b"".join(lines))
    with mock.patch.object(mbag, "_CHUNK_BYTES", 4096), \
            pytest.raises(CorruptBag, match="^record at byte [0-9]+ is refused"):
        extract_csv(bag, out)
    assert not out.exists()
    assert_no_child_process()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_tlx_prompt_error_after_the_first_run_is_raised(tmp_path, error):
    answered = []

    def prompt(scale):
        if len(answered) == len(TLX_SCALES):
            raise error("no answer")
        answered.append(scale)
        return 50

    with pytest.raises(error, match="no answer"):
        run_session(SessionPlan(**WORKER_PLAN), tmp_path / "tlx.bag",
                    tlx_interactive_prompt=prompt)
    assert len(answered) == len(TLX_SCALES)
    assert_no_child_process()


def test_a_run_in_a_pool_worker(driver):
    """Pool workers are daemonic, and multiprocessing.Process refuses to
    start there; perfbench/pin.py records its sessions in such a pool."""
    function, args, out, read = driver
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pool.apply(function, args)
    pooled = read(out)
    function(*args)
    assert read(out) == pooled


def _running(pid: int) -> bool:
    """Whether pid is a live process (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGKILL], ids=["ctrl-c", "killed"])
def test_an_interrupted_or_killed_simulate_leaves_no_worker(tmp_path, sig):
    """Ctrl-C (SIGINT to the whole process group) ends simulate with the
    CLI's one message and no traceback from the worker. A parent killed
    outright leaves no orphan: the worker sees the pipe close and exits."""
    bag = tmp_path / "cut.bag"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mwpipe.cli", "simulate",
         "--config", os.path.join(ROOT, "configs", "default.json"), "--out", str(bag)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        workers = []
        # The bag gets its first records two flush intervals into the
        # session, long after the worker has started.
        while not workers or bag.read_bytes().count(b"\n") < 3:
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.05)
            with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
                workers = [int(pid) for pid in fh.read().split()]
        assert len(workers) == 1
        if sig == signal.SIGINT:
            os.killpg(proc.pid, sig)
        else:
            proc.send_signal(sig)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        while _running(workers[0]):
            assert time.monotonic() < deadline
            time.sleep(0.05)
    finally:
        if _running(workers[0]):
            os.kill(workers[0], signal.SIGKILL)
    if sig == signal.SIGINT:
        assert proc.returncode == 1
        assert "Traceback" not in err
        assert err.strip() == "Aborted!"
