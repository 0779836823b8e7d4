from collections import defaultdict

import pytest

import mwpipe.session as msession
from mwpipe.bag import validate
from mwpipe.errors import PlanInvalid, ScaleOutOfRange
from mwpipe.session import (
    SessionPlan,
    TLXResponse,
    collect_tlx,
    run_session,
    scripted_tlx,
)

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


@pytest.mark.parametrize("ticks", [1, 10**9])
def test_bag_body_does_not_depend_on_the_flush_cadence(tmp_path, monkeypatch, ticks):
    """Flushing every tick, or only at phase ends, writes the bytes that the
    default cadence writes."""
    plan = SessionPlan(seed=2, baseline_s=32.0, interrun_s=10.0, run_timeout_s=20.0)
    default = run_session(plan, tmp_path / "default.bag")
    monkeypatch.setattr(msession, "_FLUSH_TICKS", ticks)
    flushed = run_session(plan, tmp_path / "flushed.bag")
    assert body_bytes(flushed.bag_path) == body_bytes(default.bag_path)


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
